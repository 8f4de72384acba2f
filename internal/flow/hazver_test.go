package flow

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"balsabm/internal/cell"
	"balsabm/internal/ch"
	"balsabm/internal/chtobm"
	"balsabm/internal/core"
	"balsabm/internal/designs"
	"balsabm/internal/gates"
	"balsabm/internal/hazver"
	"balsabm/internal/hclib"
	"balsabm/internal/minimalist"
	"balsabm/internal/techmap"
)

// TestHazverGolden statically verifies every Table 3 design, both
// arms, and diffs the full report (static stats plus rendered
// diagnostics, including the HZ200 per-function X-depth table) against
// examples/hazver/<design>.hazver. Run with -update to regenerate
// after an intentional output change. The goldens double as the
// acceptance pin: all four designs must verify hazard-free — any
// HZ-error fails the test outright.
func TestHazverGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("synthesizes every Table 3 design")
	}
	dir := "../../examples/hazver"
	for _, d := range designs.All() {
		d := d
		t.Run(d.Name, func(t *testing.T) {
			var sb strings.Builder
			for _, arm := range []string{"unopt", "opt"} {
				n := d.Control()
				mode := techmap.AreaShared
				if arm == "opt" {
					var err error
					n, _, err = core.OptimizeOpt(n, core.Options{})
					if err != nil {
						t.Fatalf("%s: clustering: %v", d.Name, err)
					}
					mode = techmap.SpeedSplit
				}
				res, err := HazverNetlist(context.Background(), d.Name, arm, n, mode, nil)
				if err != nil {
					t.Fatalf("%s.%s: %v", d.Name, arm, err)
				}
				fmt.Fprintf(&sb, "== %s ==\n", res.Name)
				fmt.Fprintf(&sb, "static: %s\n", res.Stats)
				sb.WriteString(hazver.Format(res.Diags, res.Name))
				if hazver.HasErrors(res.Diags) {
					t.Errorf("%s has HZ errors:\n%s", res.Name, hazver.Format(res.Diags, res.Name))
				}
			}
			got := sb.String()
			golden := filepath.Join(dir, d.Name+".hazver")
			if *updateNetlint {
				if err := os.MkdirAll(dir, 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(golden)
			if err != nil {
				t.Fatalf("missing golden file (run go test ./internal/flow -update): %v", err)
			}
			if got != string(want) {
				t.Errorf("hazver report changed for %s:\n--- got ---\n%s--- want ---\n%s",
					d.Name, got, want)
			}
		})
	}
}

// synthUnit pairs a synthesized controller with its mapped netlist and
// the hazver verification unit built from both.
type synthUnit struct {
	ctrl *minimalist.Controller
	nl   *gates.Netlist
	unit hazver.Unit
}

// synthHazverUnits is the direct-synthesis oracle for the hazver gate:
// one unit per distinct canonical shape, each compiled, minimized and
// mapped afresh in the arm's mode (hand-library shapes included). It
// keeps the intermediate controllers, so tests can tamper with
// netlists and cross-check techmap.CheckMapped on the same synthesis
// products.
func synthHazverUnits(t testing.TB, n *core.Netlist, mode techmap.Mode) []synthUnit {
	t.Helper()
	lib := cell.AMS035()
	seen := map[string]bool{}
	var out []synthUnit
	for _, comp := range n.Components {
		key := "raw|" + comp.Name
		if canon, ok := ch.CanonicalizeProgram(comp); ok {
			key = canon.Key
		}
		if seen[key] {
			continue
		}
		seen[key] = true
		sp, err := chtobm.Compile(comp)
		if err != nil {
			t.Fatalf("%s: compile: %v", comp.Name, err)
		}
		ctrl, err := minimalist.Synthesize(sp)
		if err != nil {
			t.Fatalf("%s: synthesize: %v", comp.Name, err)
		}
		nl, err := techmap.MapController(ctrl, mode, lib)
		if err != nil {
			t.Fatalf("%s: map: %v", comp.Name, err)
		}
		out = append(out, synthUnit{ctrl: ctrl, nl: nl, unit: hazver.Unit{
			Name:        comp.Name,
			Vars:        ctrl.Vars,
			Outputs:     ctrl.Spec.Outputs,
			StateBits:   ctrl.StateBits,
			Transitions: ctrl.Transitions,
			Netlist:     nl,
		}})
	}
	return out
}

// TestHazverInjectedHazard is the acceptance-criterion differential:
// replace one output's hazard-free driver with the classic glitching
// mux decomposition z = NAND(NAND(s, old), NAND(!s, old)) over a burst
// input s that changes while the specification holds z stable at 1.
// The tampered netlist is functionally identical at every binary
// point, so techmap.CheckMapped's exhaustive sampling still passes —
// but any arrival order where the s path and the !s path overlap in X
// glitches z, and hazver must catch it statically with HZ001 naming
// the function, the burst, and the offending net.
func TestHazverInjectedHazard(t *testing.T) {
	d, err := designs.ByName("systolic-counter")
	if err != nil {
		t.Fatal(err)
	}
	units := synthHazverUnits(t, d.Control(), techmap.SpeedSplit)

	// Find a specified burst that holds some output stable at 1 while
	// at least one input changes — the shape the mux tamper glitches.
	var (
		tu     synthUnit
		fnName string
		ti     = -1
		sVar   string
	)
search:
	for _, u := range units {
		for _, out := range u.ctrl.Spec.Outputs {
			for i, tr := range u.ctrl.Transitions[out] {
				ch := tr.Changed()
				if tr.From && tr.To && len(ch) > 0 && u.nl.HasNet(out) && u.nl.HasNet(u.ctrl.Vars[ch[0]]) {
					tu, fnName, ti, sVar = u, out, i, u.ctrl.Vars[ch[0]]
					break search
				}
			}
		}
	}
	if ti < 0 {
		t.Fatal("no stable-at-1 burst with a changing input found to tamper")
	}

	// Tamper: retarget z's driver to a fresh net, then rebuild z
	// through the glitching decomposition.
	nl := tu.nl
	z, s := nl.Net(fnName), nl.Net(sVar)
	di := -1
	for i := range nl.Instances {
		if nl.Instances[i].Output == z {
			di = i
		}
	}
	if di < 0 {
		t.Fatalf("output %q has no driver", fnName)
	}
	old := nl.Net("hz_old")
	nl.Instances[di].Output = old
	sInv, aN, bN := nl.Net("hz_sn"), nl.Net("hz_a"), nl.Net("hz_b")
	nl.AddInstance("INV", []int{s}, sInv, 0)
	nl.AddInstance("NAND2", []int{s, old}, aN, 0)
	nl.AddInstance("NAND2", []int{sInv, old}, bN, 0)
	nl.AddInstance("NAND2", []int{aN, bN}, z, 0)

	// The sampling audit is blind to the tamper: every binary point
	// still computes the specified value.
	if err := techmap.CheckMapped(tu.ctrl, nl, cell.AMS035()); err != nil {
		t.Fatalf("tampered netlist must stay functionally identical, CheckMapped: %v", err)
	}

	// hazver catches it statically, pinned to function, burst, net.
	res := hazver.Audit("tamper.opt", []hazver.Unit{tu.unit}, cell.AMS035(), hazver.Options{})
	if !hazver.HasErrors(res.Diags) {
		t.Fatalf("tampered netlist passed hazver:\n%s", hazver.Format(res.Diags, res.Name))
	}
	found := false
	for _, dg := range res.Diags {
		if dg.Code != "HZ001" || dg.Loc.Fn != fnName || dg.Loc.Tr != ti {
			continue
		}
		found = true
		if !strings.Contains(dg.Loc.Burst, sVar) {
			t.Errorf("burst %q does not name the changing input %q", dg.Loc.Burst, sVar)
		}
		if !strings.Contains(dg.Message, "hz_") {
			t.Errorf("message does not name an offending tamper net: %s", dg.Message)
		}
	}
	if !found {
		t.Errorf("no HZ001 at fn %q burst %d:\n%s", fnName, ti, hazver.Format(res.Diags, res.Name))
	}

	// The flow gate verifies the netlists the arm ships: with the
	// tampered netlist in place of the component's shipped one, it
	// aborts with exactly these findings.
	var errDiags []hazver.Diag
	for _, dg := range res.Diags {
		if dg.Severity == hazver.SevError {
			errDiags = append(errDiags, dg)
		}
	}
	r := newRunner(context.Background(), nil)
	mapped, _, err := r.synthesizeNetlist(d.Control(), techmap.SpeedSplit)
	if err != nil {
		t.Fatal(err)
	}
	shipped := false
	for i, comp := range d.Control().Components {
		if comp.Name == tu.unit.Name {
			mapped[i], shipped = nl, true
		}
	}
	if !shipped {
		t.Fatalf("tampered unit %q is not a component", tu.unit.Name)
	}
	_, err = r.hazverGate("tamper", "opt", d.Control(), mapped, techmap.SpeedSplit)
	var he *HazverError
	if !errors.As(err, &he) {
		t.Fatalf("gate passed the shipped tampered netlist: %v", err)
	}
	if he.Circuit() != "tamper.opt" || !strings.Contains(he.Error(), "HZ001") {
		t.Errorf("HazverError misses the finding: %s", he.Error())
	}
	if !reflect.DeepEqual(he.Diags, errDiags) {
		t.Errorf("gate findings differ from the direct audit's:\n%s\nwant:\n%s", he.Error(),
			hazver.Format(errDiags, "tamper.opt"))
	}
}

// TestHazverGateMatchesResynthesis is the differential behind the
// gate's reuse of the arm's own synthesis: for every Table 3 design in
// both arms, the units the gate derives from the shipped netlists —
// at Workers 1 and 8, and with every controller spliced from a warm
// controller cache — carry the same burst provenance and byte-identical
// netlists as the direct-synthesis oracle, and the audit result is
// identical. It also pins the gate's own syntheses to the baseline
// arm's hand-library shapes, shared across designs, and checks they
// leave the synthesis-cache counters alone.
func TestHazverGateMatchesResynthesis(t *testing.T) {
	if testing.Short() {
		t.Skip("synthesizes every Table 3 design several times")
	}
	lib := cell.AMS035()
	type armCase struct {
		design, arm string
		n           *core.Netlist
		mode        techmap.Mode
		want        []synthUnit
		wantRes     hazver.Result
	}
	var cases []armCase
	canonComps := 0 // components that go through the synthesis cache
	hclibUnits := 0 // per-arm units the gate must synthesize itself
	hclibShapes := map[string]bool{}
	for _, d := range designs.All() {
		optNetlist, _, err := core.OptimizeOpt(d.Control(), core.Options{})
		if err != nil {
			t.Fatalf("%s: clustering: %v", d.Name, err)
		}
		for _, arm := range []struct {
			name string
			n    *core.Netlist
			mode techmap.Mode
		}{{"unopt", d.Control(), techmap.AreaShared}, {"opt", optNetlist, techmap.SpeedSplit}} {
			want := synthHazverUnits(t, arm.n, arm.mode)
			units := make([]hazver.Unit, len(want))
			for i := range want {
				units[i] = want[i].unit
			}
			cases = append(cases, armCase{d.Name, arm.name, arm.n, arm.mode, want,
				hazver.Audit(d.Name+"."+arm.name, units, lib, hazver.Options{})})
			seen := map[string]bool{}
			for _, comp := range arm.n.Components {
				canon, ok := ch.CanonicalizeProgram(comp)
				if !ok {
					continue
				}
				canonComps++
				if _, isHclib := hclib.Build(comp); isHclib && arm.mode == techmap.AreaShared && !seen[canon.Key] {
					hclibUnits++
					hclibShapes[canon.Key] = true
				}
				seen[canon.Key] = true
			}
		}
	}

	t.Logf("%d hand-library units, %d distinct shapes", hclibUnits, len(hclibShapes))

	warm := NewMemoryControllerCache()
	for _, cfg := range []struct {
		name    string
		workers int
		ctl     ControllerCache
	}{
		{"workers1", 1, nil},
		{"workers8", 8, nil},
		{"seed-cache", 2, warm},
		{"warm-cache", 8, warm},
	} {
		t.Run(cfg.name, func(t *testing.T) {
			met := &Metrics{}
			r := newRunner(context.Background(), &Options{Workers: cfg.workers, Controllers: cfg.ctl, Metrics: met})
			for _, c := range cases {
				mapped, _, err := r.synthesizeNetlist(c.n, c.mode)
				if err != nil {
					t.Fatalf("%s.%s: %v", c.design, c.arm, err)
				}
				units, err := r.hazverUnits(c.n, mapped, c.mode)
				if err != nil {
					t.Fatalf("%s.%s: %v", c.design, c.arm, err)
				}
				if len(units) != len(c.want) {
					t.Fatalf("%s.%s: %d units, oracle has %d", c.design, c.arm, len(units), len(c.want))
				}
				for i, u := range units {
					w := c.want[i].unit
					if u.Name != w.Name || !reflect.DeepEqual(u.Vars, w.Vars) || !reflect.DeepEqual(u.Outputs, w.Outputs) ||
						u.StateBits != w.StateBits || !reflect.DeepEqual(u.Transitions, w.Transitions) {
						t.Errorf("%s.%s: unit %s provenance differs from the oracle's", c.design, c.arm, w.Name)
					}
					got, err := gates.EncodeJSON(u.Netlist)
					if err != nil {
						t.Fatal(err)
					}
					want, err := gates.EncodeJSON(w.Netlist)
					if err != nil {
						t.Fatal(err)
					}
					if !bytes.Equal(got, want) {
						t.Errorf("%s.%s: unit %s netlist differs from direct synthesis", c.design, c.arm, w.Name)
					}
				}
				res, err := r.hazverGate(c.design, c.arm, c.n, mapped, c.mode)
				if err != nil {
					t.Fatalf("%s.%s: %v", c.design, c.arm, err)
				}
				if !reflect.DeepEqual(res, c.wantRes) {
					t.Errorf("%s.%s: gate result differs from the oracle's:\n%s\nwant:\n%s", c.design, c.arm,
						hazver.Format(res.Diags, res.Name), hazver.Format(c.wantRes.Diags, c.wantRes.Name))
				}
			}
			if got := met.CacheHits.Load() + met.CacheMisses.Load(); got != int64(canonComps) {
				t.Errorf("synthesis cache saw %d lookups, want %d (one per canonical component)", got, canonComps)
			}
			// Each arm is gated twice above (units, then the full gate).
			if got := r.hazverMemo.Hits() + r.hazverMemo.Misses(); got != int64(2*hclibUnits) {
				t.Errorf("hazver memo saw %d lookups, want %d", got, 2*hclibUnits)
			}
			if r.hazverMemo.Len() != len(hclibShapes) {
				t.Errorf("hazver memo synthesized %d shapes, want %d", r.hazverMemo.Len(), len(hclibShapes))
			}
			if cfg.name == "warm-cache" {
				if met.ControllersResynthesized.Load() != 0 || met.ControllersReused.Load() == 0 {
					t.Errorf("warm run: %d reused, %d resynthesized; want every controller spliced",
						met.ControllersReused.Load(), met.ControllersResynthesized.Load())
				}
			}
		})
	}
}

// BenchmarkHazver audits every Table 3 design's optimized-arm units
// per iteration — the static verification cost EXPERIMENTS.md compares
// against CheckMapped's sampling sweep over the same circuits.
func BenchmarkHazver(b *testing.B) {
	lib := cell.AMS035()
	type bench struct {
		name  string
		units []hazver.Unit
	}
	var set []bench
	for _, d := range designs.All() {
		n, _, err := core.OptimizeOpt(d.Control(), core.Options{})
		if err != nil {
			b.Fatal(err)
		}
		su := synthHazverUnits(b, n, techmap.SpeedSplit)
		units := make([]hazver.Unit, len(su))
		for i := range su {
			units[i] = su[i].unit
		}
		set = append(set, bench{d.Name + ".opt", units})
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, bs := range set {
			res := hazver.Audit(bs.name, bs.units, lib, hazver.Options{})
			if hazver.HasErrors(res.Diags) {
				b.Fatalf("%s: HZ errors", bs.name)
			}
		}
	}
}

// BenchmarkCheckMappedSampling sweeps the same optimized-arm controllers
// through techmap.CheckMapped's exhaustive binary sampling — the
// pre-hazver functional audit hazver's endpoint passes subsume.
func BenchmarkCheckMappedSampling(b *testing.B) {
	lib := cell.AMS035()
	var set []synthUnit
	for _, d := range designs.All() {
		n, _, err := core.OptimizeOpt(d.Control(), core.Options{})
		if err != nil {
			b.Fatal(err)
		}
		set = append(set, synthHazverUnits(b, n, techmap.SpeedSplit)...)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, su := range set {
			if err := techmap.CheckMapped(su.ctrl, su.nl, lib); err != nil {
				b.Fatal(err)
			}
		}
	}
}
