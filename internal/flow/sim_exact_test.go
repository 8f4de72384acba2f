package flow

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"balsabm/internal/designs"
	"balsabm/internal/dpath"
)

// countdownProgram is a long SSEM loop: it counts the accumulator down
// from 300, storing it on every iteration, then stores a constant and
// halts (3*300+4 instructions executed). It keeps the simulator busy
// long enough that any change in event ordering shows up in the totals.
var countdownProgram = []uint64{
	designs.Encode(designs.OpLDI, 300),     // 0: acc = 300
	designs.Encode(designs.OpADDI, 0x1FFF), // 1: acc -= 1
	designs.Encode(designs.OpSTO, 28),      // 2: mem[28] = acc
	designs.Encode(designs.OpBNZ, 1),       // 3: if acc != 0 goto 1
	designs.Encode(designs.OpLDI, 77),      // 4
	designs.Encode(designs.OpSTO, 29),      // 5: mem[29] = 77
	designs.Encode(designs.OpHLT, 0),       // 6
}

func countdownDesign() *designs.Design {
	return designs.SSEMWithProgram("ssem-countdown", countdownProgram,
		"count acc 300..0, then store 77 and halt",
		func(mem *dpath.Memory) error {
			if mem.Words[28] != 0 || mem.Words[29] != 77 {
				return fmt.Errorf("mem[28..29] = %d %d, want 0 77", mem.Words[28], mem.Words[29])
			}
			return nil
		})
}

// TestSimExactGolden pins the simulator's exact outputs: the bit
// pattern of BenchTime and the applied-event count of both arms of the
// four Table 3 designs and of a long SSEM countdown program. DebugString
// rounds the time to six decimals and nothing else pins Events, so this
// is the test that catches a reordered event queue. Run with -update to
// regenerate after an intentional change of the simulation model.
func TestSimExactGolden(t *testing.T) {
	results, err := RunAll(nil)
	if err != nil {
		t.Fatal(err)
	}
	r, err := RunDesign(countdownDesign(), nil)
	if err != nil {
		t.Fatal(err)
	}
	results = append(results, r)
	var sb strings.Builder
	for _, r := range results {
		for _, arm := range []struct {
			name string
			a    ArmResult
		}{{"unopt", r.Unopt}, {"opt", r.Opt}} {
			fmt.Fprintf(&sb, "%s %s time=%#016x (%.6f ns) events=%d\n",
				r.Design, arm.name, math.Float64bits(arm.a.BenchTime), arm.a.BenchTime, arm.a.Events)
		}
	}
	got := sb.String()
	golden := filepath.Join("testdata", "sim_exact.golden")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (run with -update to create)", err)
	}
	if got != string(want) {
		t.Errorf("simulation outputs differ from %s:\n--- got\n%s--- want\n%s", golden, got, want)
	}
}
