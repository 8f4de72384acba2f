package techmap

import (
	"strings"
	"testing"

	"balsabm/internal/cell"
	"balsabm/internal/ch"
	"balsabm/internal/chtobm"
	"balsabm/internal/minimalist"
	"balsabm/internal/sim"
)

func controller(t *testing.T, name, src string) *minimalist.Controller {
	t.Helper()
	body, err := ch.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	sp, err := chtobm.Compile(&ch.Program{Name: name, Body: body})
	if err != nil {
		t.Fatal(err)
	}
	ctrl, err := minimalist.Synthesize(sp)
	if err != nil {
		t.Fatal(err)
	}
	return ctrl
}

const passivatorSrc = `(rep (enc-middle (p-to-p passive A) (p-to-p passive B)))`
const sequencerSrc = `(rep (enc-early (p-to-p passive P)
    (seq (p-to-p active A1) (p-to-p active A2))))`
const callSrc = `(rep (mutex
    (enc-early (p-to-p passive A1) (p-to-p active B))
    (enc-early (p-to-p passive A2) (p-to-p active B))))`

// The baseline (area-shared) passivator collapses to the textbook
// implementation: one C-element plus output buffers.
func TestPassivatorBaselineIsCElement(t *testing.T) {
	lib := cell.AMS035()
	ctrl := controller(t, "passivator", passivatorSrc)
	nl, err := MapController(ctrl, AreaShared, lib)
	if err != nil {
		t.Fatal(err)
	}
	counts := nl.CellCounts()
	if counts["C2"] != 1 {
		t.Fatalf("want exactly one C2, got %v", counts)
	}
	if counts["AND2"] != 0 || counts["OR2"] != 0 {
		t.Fatalf("leftover SOP logic: %v", counts)
	}
	// The optimized-style mapping of the same controller is much
	// larger — the paper's area-overhead mechanism in miniature.
	split, err := MapController(ctrl, SpeedSplit, lib)
	if err != nil {
		t.Fatal(err)
	}
	if split.Area(lib) <= nl.Area(lib) {
		t.Fatalf("speed-split (%.0f) should exceed baseline (%.0f)", split.Area(lib), nl.Area(lib))
	}
}

// SpeedSplit netlists must be functionally identical to their covers
// (the Section 5 hazard audit).
func TestCheckMappedSpeedSplit(t *testing.T) {
	lib := cell.AMS035()
	for _, tc := range []struct{ name, src string }{
		{"passivator", passivatorSrc},
		{"sequencer", sequencerSrc},
		{"call", callSrc},
	} {
		ctrl := controller(t, tc.name, tc.src)
		nl, err := MapController(ctrl, SpeedSplit, lib)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if err := CheckMapped(ctrl, nl, lib); err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
	}
}

// Split mapping keeps the two NAND levels in separate modules.
func TestSplitModules(t *testing.T) {
	lib := cell.AMS035()
	ctrl := controller(t, "sequencer", sequencerSrc)
	nl, err := MapController(ctrl, SpeedSplit, lib)
	if err != nil {
		t.Fatal(err)
	}
	areas := ModuleAreas(nl, lib)
	if areas[1] == 0 || areas[2] == 0 {
		t.Fatalf("module areas %v: both levels must be populated", areas)
	}
	for _, inst := range nl.Instances {
		if inst.Module != 1 && inst.Module != 2 {
			t.Fatalf("instance %v outside the two levels", inst)
		}
	}
}

// Verilog output is produced and mentions every cell.
func TestVerilog(t *testing.T) {
	lib := cell.AMS035()
	ctrl := controller(t, "sequencer", sequencerSrc)
	nl, err := MapController(ctrl, SpeedSplit, lib)
	if err != nil {
		t.Fatal(err)
	}
	v := VerilogModules(nl, lib)
	for _, want := range []string{"module sequencer", "endmodule", "NAND", "input P_r", "output A1_r"} {
		if !strings.Contains(v, want) {
			t.Fatalf("verilog missing %q:\n%s", want, v)
		}
	}
}

// Wide covers exercise the tree reducer (NAND trees above 4 inputs).
func TestWideFunctionMapping(t *testing.T) {
	lib := cell.AMS035()
	// A 5-way sequencer yields functions with many literals.
	src := `(rep (enc-early (p-to-p passive P)
	    (seq (p-to-p active A1) (p-to-p active A2) (p-to-p active A3)
	         (p-to-p active A4) (p-to-p active A5))))`
	ctrl := controller(t, "seq5", src)
	nl, err := MapController(ctrl, SpeedSplit, lib)
	if err != nil {
		t.Fatal(err)
	}
	if err := CheckMapped(ctrl, nl, lib); err != nil {
		t.Fatal(err)
	}
}

// Reports include positive areas and critical paths; speed-split should
// not be slower than a few ns for controllers this size.
func TestSummarize(t *testing.T) {
	lib := cell.AMS035()
	ctrl := controller(t, "call", callSrc)
	for _, mode := range []Mode{SpeedSplit, AreaShared} {
		nl, err := MapController(ctrl, mode, lib)
		if err != nil {
			t.Fatal(err)
		}
		r := Summarize(nl, mode, lib)
		if r.Area <= 0 || r.Critical <= 0 || r.Cells <= 0 {
			t.Fatalf("degenerate report %+v", r)
		}
		if r.Critical > 3 {
			t.Fatalf("critical path %.2f ns implausibly long", r.Critical)
		}
	}
}

// The baseline passivator walks its protocol on the event-driven
// simulator: both acknowledges rise once both requests are up, the
// C-element holds while only one request has fallen, and both fall
// once both requests are down.
func TestAreaSharedFunctional(t *testing.T) {
	lib := cell.AMS035()
	ctrl := controller(t, "passivator", passivatorSrc)
	nl, err := MapController(ctrl, AreaShared, lib)
	if err != nil {
		t.Fatal(err)
	}
	s := sim.New(lib)
	s.AddNetlist(nl, "pass", nil)
	if err := s.Init(); err != nil {
		t.Fatal(err)
	}
	step := func(a, b bool) {
		t.Helper()
		s.Schedule("A_r", a, 1)
		s.Schedule("B_r", b, 1)
		if err := s.Run(s.Time+100, 1000); err != nil {
			t.Fatal(err)
		}
	}
	if s.Value("A_a") || s.Value("B_a") {
		t.Fatal("acknowledges high at reset")
	}
	step(true, true)
	if !s.Value("A_a") || !s.Value("B_a") {
		t.Fatal("acknowledges did not rise")
	}
	step(false, true)
	if !s.Value("A_a") || !s.Value("B_a") {
		t.Fatal("C-element did not hold")
	}
	step(false, false)
	if s.Value("A_a") || s.Value("B_a") {
		t.Fatal("acknowledges did not fall")
	}
}
