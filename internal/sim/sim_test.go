package sim

import (
	"testing"

	"balsabm/internal/cell"
	"balsabm/internal/ch"
	"balsabm/internal/chtobm"
	"balsabm/internal/minimalist"
	"balsabm/internal/techmap"
)

func mapped(t *testing.T, name, src string, mode techmap.Mode) (*minimalist.Controller, *Simulator, *SpecDriver) {
	t.Helper()
	lib := cell.AMS035()
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
	nl, err := techmap.MapController(ctrl, mode, lib)
	if err != nil {
		t.Fatal(err)
	}
	s := New(lib)
	s.AddNetlist(nl, name, nil)
	d := NewSpecDriver(s, sp, 0.5, 7, nil)
	if err := s.Init(); err != nil {
		t.Fatal(err)
	}
	return ctrl, s, d
}

func TestBasicGates(t *testing.T) {
	lib := cell.AMS035()
	s := New(lib)
	a, b := s.Net("a"), s.Net("b")
	out := s.Net("out")
	s.AddGate("NAND2", []int{a, b}, out)
	if err := s.Init(); err != nil {
		t.Fatal(err)
	}
	if !s.Value("out") {
		t.Fatal("NAND of low inputs must initialize high")
	}
	s.Schedule("a", true, 1)
	s.Schedule("b", true, 2)
	if err := s.Run(100, 1000); err != nil {
		t.Fatal(err)
	}
	if s.Value("out") {
		t.Fatal("NAND(1,1) must be 0")
	}
	// Delay accounting: output flips one NAND2 delay after the last
	// input edge.
	if s.Time < 2.08-1e-9 {
		t.Fatalf("time %.3f, want >= 2.08", s.Time)
	}
}

func TestCElementHolds(t *testing.T) {
	lib := cell.AMS035()
	s := New(lib)
	a, b := s.Net("a"), s.Net("b")
	out := s.Net("c")
	s.AddGate("C2", []int{a, b}, out)
	if err := s.Init(); err != nil {
		t.Fatal(err)
	}
	s.Schedule("a", true, 1)
	if err := s.Run(50, 100); err != nil {
		t.Fatal(err)
	}
	if s.Value("c") {
		t.Fatal("C fired on one input")
	}
	s.Schedule("b", true, 1)
	if err := s.Run(50, 100); err != nil {
		t.Fatal(err)
	}
	if !s.Value("c") {
		t.Fatal("C did not fire")
	}
	s.Schedule("a", false, 1)
	if err := s.Run(50, 100); err != nil {
		t.Fatal(err)
	}
	if !s.Value("c") {
		t.Fatal("C did not hold")
	}
}

// Mapped controllers in both modes run their specification protocol in
// a closed loop with the spec driver.
func TestMappedControllersConform(t *testing.T) {
	srcs := map[string]string{
		"passivator": `(rep (enc-middle (p-to-p passive A) (p-to-p passive B)))`,
		"sequencer": `(rep (enc-early (p-to-p passive P)
		    (seq (p-to-p active A1) (p-to-p active A2))))`,
		"call": `(rep (mutex
		    (enc-early (p-to-p passive A1) (p-to-p active B))
		    (enc-early (p-to-p passive A2) (p-to-p active B))))`,
		"dwseq": `(rep (enc-early (p-to-p passive a1)
		    (mutex (enc-early (p-to-p passive i1) (p-to-p active o1))
		           (enc-early (p-to-p passive i2)
		              (enc-early void (seq (p-to-p active c1) (p-to-p active c2)))))))`,
	}
	for name, src := range srcs {
		for _, mode := range []techmap.Mode{techmap.SpeedSplit, techmap.AreaShared} {
			_, s, d := mapped(t, name, src, mode)
			d.Start(50)
			if err := s.Run(100000, 2_000_000); err != nil {
				t.Fatalf("%s [%v]: %v", name, mode, err)
			}
			if d.Err != nil {
				t.Fatalf("%s [%v]: %v", name, mode, d.Err)
			}
			if d.Cycles < 50 {
				t.Fatalf("%s [%v]: only %d cycles", name, mode, d.Cycles)
			}
		}
	}
}

// The optimized (clustered) controller must complete a full activation
// faster than the baseline pair of controllers joined by a channel —
// the paper's central speed claim in miniature (Fig 5 example).
func TestClusterLatencyAdvantage(t *testing.T) {
	lib := cell.AMS035()
	addMapped := func(s *Simulator, name, src string, mode techmap.Mode) {
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
		nl, err := techmap.MapController(ctrl, mode, lib)
		if err != nil {
			t.Fatal(err)
		}
		s.AddNetlist(nl, name, nil)
	}

	// Baseline: sequencer and call as two separate mapped controllers
	// wired by the b1/b2 channels; environment on a, c.
	seqSrc := `(rep (enc-early (p-to-p passive a)
	    (seq (p-to-p active b1) (p-to-p active b2))))`
	callSrc := `(rep (mutex
	    (enc-early (p-to-p passive b1) (p-to-p active c))
	    (enc-early (p-to-p passive b2) (p-to-p active c))))`
	mergedSrc := `(rep (enc-early (p-to-p passive a)
	    (seq (enc-early void (p-to-p active c))
	         (enc-early void (p-to-p active c)))))`

	elapsed := func(build func() (*Simulator, func() bool)) float64 {
		s, done := build()
		for !done() {
			if err := s.Run(100000, 2_000_000); err != nil {
				t.Fatal(err)
			}
		}
		return s.Time
	}

	baseline := elapsed(func() (*Simulator, func() bool) {
		s := New(lib)
		addMapped(s, "seq", seqSrc, techmap.AreaShared)
		addMapped(s, "call", callSrc, techmap.AreaShared)
		// Environment: activate on a for 20 cycles, acknowledge c
		// promptly.
		cycles := 0
		s.Watch("c_r", func(s *Simulator, _ int, val bool) {
			s.Schedule("c_a", val, 0.2)
		})
		s.Watch("a_a", func(s *Simulator, _ int, val bool) {
			if val {
				s.Schedule("a_r", false, 0.2)
			} else {
				cycles++
				if cycles >= 20 {
					s.Stop()
					return
				}
				s.Schedule("a_r", true, 0.2)
			}
		})
		if err := s.Init(); err != nil {
			t.Fatal(err)
		}
		s.Schedule("a_r", true, 1)
		return s, func() bool { return cycles >= 20 }
	})

	merged := elapsed(func() (*Simulator, func() bool) {
		s := New(lib)
		addMapped(s, "merged", mergedSrc, techmap.SpeedSplit)
		cycles := 0
		s.Watch("c_r", func(s *Simulator, _ int, val bool) {
			s.Schedule("c_a", val, 0.2)
		})
		s.Watch("a_a", func(s *Simulator, _ int, val bool) {
			if val {
				s.Schedule("a_r", false, 0.2)
			} else {
				cycles++
				if cycles >= 20 {
					s.Stop()
					return
				}
				s.Schedule("a_r", true, 0.2)
			}
		})
		if err := s.Init(); err != nil {
			t.Fatal(err)
		}
		s.Schedule("a_r", true, 1)
		return s, func() bool { return cycles >= 20 }
	})

	if merged >= baseline {
		t.Fatalf("merged controller (%.2f ns) not faster than channel-connected pair (%.2f ns)", merged, baseline)
	}
	t.Logf("baseline %.2f ns, merged %.2f ns (%.1f%% faster)", baseline, merged, 100*(baseline-merged)/baseline)
}

func TestAfterAndStop(t *testing.T) {
	s := New(cell.AMS035())
	fired := false
	s.After(5, func(s *Simulator) { fired = true; s.Stop() })
	s.After(10, func(s *Simulator) { t.Fatal("should have stopped") })
	if err := s.Run(100, 100); err != nil {
		t.Fatal(err)
	}
	if !fired || s.Time != 5 {
		t.Fatalf("fired=%v time=%v", fired, s.Time)
	}
}

func TestEventBudget(t *testing.T) {
	lib := cell.AMS035()
	s := New(lib)
	// A ring oscillator: INV feeding itself.
	n := s.Net("osc")
	s.AddGate("INV", []int{n}, n)
	s.Schedule("osc", true, 1)
	if err := s.Run(1e9, 100); err == nil {
		t.Fatal("oscillator should exhaust the event budget")
	}
}

// A Run that stops at its time limit must leave the crossing event
// queued: Run(t1) then Run(t2) ends exactly where one Run(t2) does.
func TestRunResumesAcrossTimeLimit(t *testing.T) {
	src := `(rep (enc-early (p-to-p passive P) (seq (p-to-p active A1) (p-to-p active A2))))`
	const t2 = 100000
	_, whole, d := mapped(t, "sequencer", src, techmap.SpeedSplit)
	d.Start(50)
	if err := whole.Run(t2, 2_000_000); err != nil {
		t.Fatal(err)
	}
	for _, t1 := range []float64{whole.Time / 3, whole.Time / 2, whole.Time - 0.01} {
		_, split, d := mapped(t, "sequencer", src, techmap.SpeedSplit)
		d.Start(50)
		if err := split.Run(t1, 2_000_000); err == nil {
			t.Fatalf("Run(%.2f) reached the end of a %.2f ns run", t1, whole.Time)
		}
		if split.Time != t1 {
			t.Fatalf("Run(%.2f) stopped at %.2f", t1, split.Time)
		}
		if err := split.Run(t2, 2_000_000); err != nil {
			t.Fatal(err)
		}
		if split.Time != whole.Time || split.Events != whole.Events || d.Err != nil {
			t.Errorf("Run(%.2f)+Run(%d): time %v events %d (driver: %v); one Run(%d): time %v events %d",
				t1, t2, split.Time, split.Events, d.Err, t2, whole.Time, whole.Events)
		}
	}
}

// Reading an unknown net by name answers low without creating it.
func TestValueOfUnknownNetDoesNotIntern(t *testing.T) {
	s := New(cell.AMS035())
	a := s.Net("a")
	s.ScheduleNet(a, true, 1)
	if err := s.Run(10, 10); err != nil {
		t.Fatal(err)
	}
	if !s.Value("a") {
		t.Fatal("a must be high")
	}
	if s.Value("nope") {
		t.Fatal("an unknown net must read low")
	}
	if _, ok := s.index["nope"]; ok || len(s.names) != 1 || len(s.values) != 1 || len(s.fanout) != 1 || len(s.watchers) != 1 {
		t.Fatalf("reading an unknown net grew the simulator: %d names, %d values, %d fanout, %d watchers",
			len(s.names), len(s.values), len(s.fanout), len(s.watchers))
	}
}
