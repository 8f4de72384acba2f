package gates

import (
	"strings"
	"testing"

	"balsabm/internal/cell"
)

// The compiled half adder must agree with the oracle on every input
// combination, evaluated in one 64-lane pass: lane l carries input
// combination l&3.
func TestCompileHalfAdderLanes(t *testing.T) {
	lib := cell.AMS035()
	nl := buildHalfAdder()
	prog, err := Compile(nl, lib, nil)
	if err != nil {
		t.Fatal(err)
	}
	if prog.Nets() != len(nl.NetNames) || prog.Ops() != 2 {
		t.Fatalf("compiled %d nets, %d ops", prog.Nets(), prog.Ops())
	}
	// Lane l: a = bit0 of l, b = bit1 of l, repeating with period 4.
	var aw, bw uint64
	for l := uint(0); l < 64; l++ {
		if l&1 != 0 {
			aw |= 1 << l
		}
		if l&2 != 0 {
			bw |= 1 << l
		}
	}
	ev := prog.NewEval()
	ev.Reset()
	ev.Set(nl.Net("a"), aw)
	ev.Set(nl.Net("b"), bw)
	ev.Run()
	sum, carry := ev.Word(nl.Net("sum")), ev.Word(nl.Net("carry"))
	for l := uint(0); l < 64; l++ {
		a, b := l&1 != 0, l&2 != 0
		vals := make([]uint8, len(nl.NetNames))
		vals[nl.Net("a")], vals[nl.Net("b")] = bit(a), bit(b)
		if err := oracleSettle(nl, lib, nil, vals); err != nil {
			t.Fatal(err)
		}
		wantSum, wantCarry := vals[nl.Net("sum")] == T1, vals[nl.Net("carry")] == T1
		if sum>>l&1 != 0 != wantSum || carry>>l&1 != 0 != wantCarry {
			t.Fatalf("lane %d (a=%v b=%v): sum=%v carry=%v, want %v %v",
				l, a, b, sum>>l&1 != 0, carry>>l&1 != 0, wantSum, wantCarry)
		}
	}
}

// A stateful cell driving a forced net compiles as a probe: the settle
// pass skips it, and Eval.Driver recomputes it with the forced word as
// previous state.
func TestCompileForcedProbe(t *testing.T) {
	lib := cell.AMS035()
	nl := New("fb")
	a, b := nl.Net("a"), nl.Net("b")
	y := nl.Net("y")
	nl.Inputs = append(nl.Inputs, a, b)
	nl.AddInstance("C2", []int{a, b}, y, 0)
	forced := map[int]bool{y: true}
	prog, err := Compile(nl, lib, forced)
	if err != nil {
		t.Fatal(err)
	}
	if !prog.HasDriver(y) {
		t.Fatal("forced net y lost its driver")
	}
	if prog.HasDriver(a) {
		t.Fatal("undriven input reports a driver")
	}
	c2 := lib.Get("C2")
	ev := prog.NewEval()
	for combo := 0; combo < 8; combo++ {
		av, bv, yv := combo&1 != 0, combo&2 != 0, combo&4 != 0
		ev.Reset()
		word := func(v bool) uint64 {
			if v {
				return ^uint64(0)
			}
			return 0
		}
		ev.Set(a, word(av))
		ev.Set(b, word(bv))
		ev.Set(y, word(yv))
		ev.Run()
		got, ok := ev.Driver(y)
		if !ok {
			t.Fatal("Driver(y) not found")
		}
		want := word(c2.Eval([]bool{av, bv}, yv))
		if got != want {
			t.Fatalf("a=%v b=%v y=%v: Driver(y) = %#x, want %#x", av, bv, yv, got, want)
		}
	}
}

// Compile must reject everything the single levelized pass cannot
// faithfully evaluate; callers then report the netlist unverifiable.
func TestCompileRejections(t *testing.T) {
	lib := cell.AMS035()

	t.Run("missing cell", func(t *testing.T) {
		nl := New("x")
		a := nl.Net("a")
		nl.AddInstance("FLUXCAP", []int{a}, nl.Net("q"), 0)
		if _, err := Compile(nl, lib, nil); err == nil || !strings.Contains(err.Error(), "FLUXCAP") {
			t.Fatalf("err = %v", err)
		}
	})

	t.Run("multi-driven unforced net", func(t *testing.T) {
		nl := New("x")
		a, b := nl.Net("a"), nl.Net("b")
		q := nl.Net("q")
		nl.AddInstance("INV", []int{a}, q, 0)
		nl.AddInstance("INV", []int{b}, q, 0)
		if _, err := Compile(nl, lib, nil); err == nil || !strings.Contains(err.Error(), "several drivers") {
			t.Fatalf("err = %v", err)
		}
		// Forcing the net turns both drivers into probe candidates
		// (first wins) and compilation succeeds.
		if _, err := Compile(nl, lib, map[int]bool{q: true}); err != nil {
			t.Fatal(err)
		}
	})

	t.Run("stateful cell outside the cut", func(t *testing.T) {
		nl := New("x")
		a, b := nl.Net("a"), nl.Net("b")
		q := nl.Net("q")
		nl.AddInstance("C2", []int{a, b}, q, 0)
		if _, err := Compile(nl, lib, nil); err == nil || !strings.Contains(err.Error(), "stateful") {
			t.Fatalf("err = %v", err)
		}
	})

	t.Run("cycle not cut by forced nets", func(t *testing.T) {
		nl := New("x")
		a := nl.Net("a")
		x := nl.Net("x")
		nl.AddInstance("OR2", []int{x, a}, x, 0)
		if _, err := Compile(nl, lib, nil); err == nil || !strings.Contains(err.Error(), "cycle") {
			t.Fatalf("err = %v", err)
		}
		// The same loop through a forced net compiles: the feedback arc
		// is cut at the source.
		if _, err := Compile(nl, lib, map[int]bool{x: true}); err != nil {
			t.Fatal(err)
		}
	})

	t.Run("too few pins", func(t *testing.T) {
		nl := New("x")
		nl.AddInstance("LATCH", []int{nl.Net("en")}, nl.Net("q"), 0)
		if _, err := Compile(nl, lib, nil); err == nil || !strings.Contains(err.Error(), "inputs") {
			t.Fatalf("err = %v", err)
		}
	})
}

// Every library cell kind, compiled into a one-gate netlist, must agree
// with cell.Eval on all input combinations (combinational cells only;
// stateful kinds are covered by the probe test).
func TestCompiledKindsAgreeWithEval(t *testing.T) {
	lib := cell.AMS035()
	for _, name := range []string{"INV", "BUF", "NAND2", "NAND3", "NAND4",
		"AND2", "AND4", "OR2", "OR4", "NOR2", "XOR2"} {
		c := lib.Get(name)
		nl := New(name)
		ins := make([]int, c.Inputs)
		insB := make([]bool, c.Inputs)
		for i := range ins {
			ins[i] = nl.Fresh("in")
			nl.Inputs = append(nl.Inputs, ins[i])
		}
		q := nl.Net("q")
		nl.AddInstance(name, ins, q, 0)
		prog, err := Compile(nl, lib, nil)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		ev := prog.NewEval()
		ev.Reset()
		// Lane l = input combination l (period 2^Inputs ≤ 16 divides 64).
		for i, in := range ins {
			var w uint64
			for l := uint(0); l < 64; l++ {
				if l>>uint(i)&1 != 0 {
					w |= 1 << l
				}
			}
			ev.Set(in, w)
		}
		ev.Run()
		got := ev.Word(q)
		for combo := 0; combo < 1<<uint(c.Inputs); combo++ {
			for i := range insB {
				insB[i] = combo>>uint(i)&1 != 0
			}
			want := c.Eval(insB, false)
			if got>>uint(combo)&1 != 0 != want {
				t.Fatalf("%s combo %d: got %v want %v", name, combo, !want, want)
			}
		}
	}
}
