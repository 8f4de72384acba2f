package gates

import (
	"fmt"
	"testing"

	"balsabm/internal/cell"
)

// This file holds the package's one interpreted netlist evaluator: the
// oracle the compiled Eval and TernaryEval are tested against.
// Production code has no interpreted path; it settles netlists only
// through Compile.

// oracleSettle is a fixed-point sweep over the instances in netlist
// order, evaluating each cell in Kleene's strong ternary logic
// (ternaryCell: exact, by enumerating the binary completions of its X
// inputs). Drivers of forced nets are skipped, so forced nets keep
// the values the caller loaded. vals holds one value per net: it is
// the starting state and the result, and stateful cells read their
// previous output from it, so carrying vals from one call to the next
// carries their state. On {0,1} values it is boolean evaluation,
// because Kleene logic restricted to {0,1} is Boolean logic.
func oracleSettle(nl *Netlist, lib *cell.Library, forced map[int]bool, vals []uint8) error {
	for iter := 0; iter <= 4*len(nl.Instances)+16; iter++ {
		changed := false
		for i := range nl.Instances {
			inst := &nl.Instances[i]
			if forced[inst.Output] {
				continue
			}
			if v := oracleCell(lib, inst, vals); v != vals[inst.Output] {
				vals[inst.Output] = v
				changed = true
			}
		}
		if !changed {
			return nil
		}
	}
	return fmt.Errorf("gates: oracle settle %s: did not settle", nl.Name)
}

// oracleCell evaluates one instance over vals, its output net's value
// serving as the previous output of a stateful cell.
func oracleCell(lib *cell.Library, inst *Instance, vals []uint8) uint8 {
	ins := make([]uint8, len(inst.Inputs))
	for j, in := range inst.Inputs {
		ins[j] = vals[in]
	}
	return ternaryCell(lib.Get(inst.Cell), ins, vals[inst.Output], make([]bool, len(ins)+1))
}

// oracleDriver re-evaluates the instance driving net over settled
// values; ok is false when the net has no driver.
func oracleDriver(nl *Netlist, lib *cell.Library, vals []uint8, net int) (uint8, bool) {
	d := nl.Driver(net)
	if d < 0 {
		return TX, false
	}
	return oracleCell(lib, &nl.Instances[d], vals), true
}

// oracleXDepth is the X-depth sweep: an X net computed by an unforced
// gate sits one above its deepest X input, sources and binary nets
// at depth 0, iterated to a fixed point. It returns the depth of the
// driver of net: 0 when that driver is binary, else one above its
// deepest X input.
func oracleXDepth(nl *Netlist, lib *cell.Library, forced map[int]bool, vals []uint8, net int) int {
	v, ok := oracleDriver(nl, lib, vals, net)
	if !ok || v != TX {
		return 0
	}
	drv := nl.DriverIndex()
	xd := make([]int, len(vals))
	deepest := func(inst *Instance) int {
		d := 0
		for _, in := range inst.Inputs {
			if vals[in] == TX && xd[in] > d {
				d = xd[in]
			}
		}
		return d
	}
	for pass := 0; pass <= len(nl.Instances); pass++ {
		changed := false
		for i := range nl.Instances {
			inst := &nl.Instances[i]
			out := inst.Output
			if forced[out] || drv[out] != i || vals[out] != TX {
				continue
			}
			if d := 1 + deepest(inst); d != xd[out] {
				xd[out] = d
				changed = true
			}
		}
		if !changed {
			break
		}
	}
	return 1 + deepest(&nl.Instances[drv[net]])
}

// bit converts a boolean to its ternary value.
func bit(b bool) uint8 {
	if b {
		return T1
	}
	return T0
}

func TestSettleAndValue(t *testing.T) {
	lib := cell.AMS035()
	nl := buildHalfAdder()
	for _, tc := range []struct {
		a, b, sum, carry bool
	}{
		{false, false, false, false},
		{true, false, true, false},
		{true, true, false, true},
	} {
		vals := make([]uint8, len(nl.NetNames))
		vals[nl.Net("a")], vals[nl.Net("b")] = bit(tc.a), bit(tc.b)
		if err := oracleSettle(nl, lib, nil, vals); err != nil {
			t.Fatal(err)
		}
		if sum, carry := vals[nl.Net("sum")], vals[nl.Net("carry")]; sum != bit(tc.sum) || carry != bit(tc.carry) {
			t.Fatalf("a=%v b=%v: sum=%s carry=%s", tc.a, tc.b, TernString(sum), TernString(carry))
		}
	}
}

func TestSettleDetectsOscillation(t *testing.T) {
	lib := cell.AMS035()
	nl := New("osc")
	n := nl.Net("x")
	nl.AddInstance("INV", []int{n}, n, 0)
	if err := oracleSettle(nl, lib, nil, make([]uint8, len(nl.NetNames))); err == nil {
		t.Fatal("ring oscillator must not settle")
	}
}

func TestSettleWithCElementState(t *testing.T) {
	lib := cell.AMS035()
	nl := New("c")
	a, b := nl.Net("a"), nl.Net("b")
	out := nl.Net("out")
	nl.Inputs = append(nl.Inputs, a, b)
	nl.Outputs = append(nl.Outputs, out)
	nl.AddInstance("C2", []int{a, b}, out, 0)
	vals := make([]uint8, len(nl.NetNames))
	vals[a], vals[b] = T1, T1
	if err := oracleSettle(nl, lib, nil, vals); err != nil {
		t.Fatal(err)
	}
	// Hold with prior state: a falls, out must stay high.
	vals[a] = T0
	if err := oracleSettle(nl, lib, nil, vals); err != nil {
		t.Fatal(err)
	}
	if vals[out] != T1 {
		t.Fatal("C-element lost its state across settle calls")
	}
}

// fuzzNetlist grows a random acyclic netlist from fuzz bytes: a few
// primary inputs, then gates whose inputs are drawn from earlier nets
// only. Gates driving forced nets may be stateful (the audit's cut);
// everything else is combinational, so the oracle's fixpoint is
// unique and the compiled single pass must land on it exactly. The
// returned values hold every primary input and forced net at 0 or 1.
func fuzzNetlist(data []byte) (*Netlist, map[int]bool, []uint8, bool) {
	if len(data) < 4 {
		return nil, nil, nil, false
	}
	next := func() byte {
		b := data[0]
		data = data[1:]
		return b
	}
	nIn := int(next())%4 + 1
	nGates := int(next())%12 + 1
	if len(data) < 5*nGates+nIn { // sel + up to 3 pins + forced flag per gate
		return nil, nil, nil, false
	}
	cells := []string{"INV", "BUF", "NAND2", "NAND3", "AND2", "OR2", "NOR2", "XOR2", "C2"}
	arity := []int{1, 1, 2, 3, 2, 2, 2, 2, 2}
	nl := New("fuzz")
	var nets []int
	for i := 0; i < nIn; i++ {
		n := nl.Fresh("in")
		nl.Inputs = append(nl.Inputs, n)
		nets = append(nets, n)
	}
	forced := map[int]bool{}
	for g := 0; g < nGates; g++ {
		sel := int(next()) % len(cells)
		out := nl.Fresh("g")
		ins := make([]int, arity[sel])
		for i := range ins {
			ins[i] = nets[int(next())%len(nets)]
		}
		wantForced := next()%4 == 0
		if cells[sel] == "C2" {
			wantForced = true // stateful cells must sit on the cut
		}
		if wantForced {
			forced[out] = true
		}
		nl.AddInstance(cells[sel], ins, out, 0)
		nets = append(nets, out)
	}
	vals := make([]uint8, len(nl.NetNames))
	for _, n := range nl.Inputs {
		vals[n] = next() % 2
	}
	for f := range forced {
		// Forced values derived from the net id, so map iteration
		// order cannot matter.
		vals[f] = uint8(f % 2)
	}
	return nl, forced, vals, true
}

// FuzzCompiledEvalAgreement pits the compiled lane engine against the
// oracle on random netlists with binary stimuli: lane 0 of every net
// must match the fixpoint, and every forced net's probe must match the
// oracle's driver re-evaluation.
func FuzzCompiledEvalAgreement(f *testing.F) {
	f.Add([]byte{2, 3, 0, 0, 1, 2, 1, 0, 1, 8, 0, 1, 1, 1, 0, 1, 0, 1})
	f.Add([]byte{4, 12, 3, 4, 5, 6, 7, 8, 0, 1, 2, 3, 4, 5, 6, 7, 8, 0,
		1, 2, 3, 4, 5, 6, 7, 8, 0, 1, 2, 3, 4, 5, 6, 7, 8, 0, 1, 2,
		3, 4, 5, 6, 7, 8, 0, 1, 2, 3, 4, 5, 6, 7})
	lib := cell.AMS035()
	f.Fuzz(func(t *testing.T, data []byte) {
		nl, forced, want, ok := fuzzNetlist(data)
		if !ok {
			return
		}
		prog, err := Compile(nl, lib, forced)
		if err != nil {
			t.Fatalf("acyclic netlist with stateful cells on the cut must compile: %v", err)
		}
		ev := prog.NewEval()
		ev.Reset()
		for net, v := range want {
			if v == T1 {
				ev.Set(net, ^uint64(0))
			}
		}
		if err := oracleSettle(nl, lib, forced, want); err != nil {
			t.Fatalf("oracle did not settle an acyclic netlist: %v", err)
		}
		ev.Run()
		for net, name := range nl.NetNames {
			if got := bit(ev.Word(net)&1 != 0); got != want[net] {
				t.Errorf("net %s: compiled %s, oracle %s", name, TernString(got), TernString(want[net]))
			}
		}
		// Probes: the compiled Driver must match re-evaluating the
		// driving instance against the settled values, prev = forced.
		for f := range forced {
			w, ok := ev.Driver(f)
			ref, refOK := oracleDriver(nl, lib, want, f)
			if ok != refOK {
				t.Errorf("forced net %s: compiled probe %v, driver %v", nl.NetNames[f], ok, refOK)
				continue
			}
			if got := bit(w&1 != 0); ok && got != ref {
				t.Errorf("probe %s: compiled %s, oracle %s", nl.NetNames[f], TernString(got), TernString(ref))
			}
		}
	})
}

// DriverXDepth must equal the oracle's X-depth sweep lane by lane,
// across random circuits and random ternary stimuli.
func TestDriverXDepthMatchesOracle(t *testing.T) {
	lib := cell.AMS035()
	r := lcg(0x2545f4914f6cdd1d)
	deep := 0
	for round := 0; round < 25; round++ {
		nl, inputs, out := randTernaryNetlist(&r, 3+int(r.next()%40))
		forced := map[int]bool{out: true}
		prog, err := Compile(nl, lib, forced)
		if err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		ev := prog.NewTernaryEval()
		ev.Reset()
		srcs := append(append([]int(nil), inputs...), out)
		stim := make([][]uint8, 64)
		for l := range stim {
			stim[l] = make([]uint8, len(nl.NetNames))
			for i := range stim[l] {
				stim[l][i] = TX
			}
			for _, in := range srcs {
				v := uint8(r.next() % 3)
				stim[l][in] = v
				ev.Assign(in, uint(l), v)
			}
		}
		ev.Run()
		for l, vals := range stim {
			if err := oracleSettle(nl, lib, forced, vals); err != nil {
				t.Fatalf("round %d lane %d: %v", round, l, err)
			}
			want := oracleXDepth(nl, lib, forced, vals, out)
			if got := ev.DriverXDepth(out, 1<<uint(l)); got != want {
				t.Fatalf("round %d lane %d: DriverXDepth %d, oracle %d", round, l, got, want)
			}
			deep = max(deep, want)
		}
	}
	if deep < 2 {
		t.Fatalf("deepest X chain %d: the stimuli never exercised a chain", deep)
	}
}
