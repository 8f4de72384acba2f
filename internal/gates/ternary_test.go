package gates

import (
	"testing"

	"balsabm/internal/cell"
)

// Kleene spot checks: X propagates exactly when the binary inputs do
// not already determine the output.
func TestTernaryKleene(t *testing.T) {
	lib := cell.AMS035()
	nl := New("k")
	a, b := nl.Net("a"), nl.Net("b")
	nand := nl.Net("nand")
	xor := nl.Net("xor")
	nl.Inputs = append(nl.Inputs, a, b)
	nl.AddInstance("NAND2", []int{a, b}, nand, 0)
	nl.AddInstance("XOR2", []int{a, b}, xor, 0)
	prog, err := Compile(nl, lib, nil)
	if err != nil {
		t.Fatal(err)
	}
	ev := prog.NewTernaryEval()
	cases := []struct {
		a, b, nand, xor uint8
	}{
		{T0, T0, T1, T0},
		{T1, T1, T0, T0},
		{T0, TX, T1, TX}, // 0 controls NAND, not XOR
		{T1, TX, TX, TX},
		{TX, TX, TX, TX},
	}
	ev.Reset()
	for i, c := range cases {
		ev.Assign(a, uint(i), c.a)
		ev.Assign(b, uint(i), c.b)
	}
	ev.Run()
	for i, c := range cases {
		if got := ev.At(nand, uint(i)); got != c.nand {
			t.Errorf("case %d: NAND(%s,%s) = %s, want %s", i, TernString(c.a), TernString(c.b), TernString(got), TernString(c.nand))
		}
		if got := ev.At(xor, uint(i)); got != c.xor {
			t.Errorf("case %d: XOR(%s,%s) = %s, want %s", i, TernString(c.a), TernString(c.b), TernString(got), TernString(c.xor))
		}
	}
}

// A C-element probe on a forced net must fold the forced value in as
// its previous output: with one input at X it holds a matching
// previous state but goes X when the previous state is the minority.
func TestTernaryCProbe(t *testing.T) {
	lib := cell.AMS035()
	nl := New("cp")
	a, b := nl.Net("a"), nl.Net("b")
	y := nl.Net("y")
	nl.Inputs = append(nl.Inputs, a, b)
	nl.AddInstance("C2", []int{a, b}, y, 0)
	prog, err := Compile(nl, lib, map[int]bool{y: true})
	if err != nil {
		t.Fatal(err)
	}
	ev := prog.NewTernaryEval()
	cases := []struct {
		a, b, prev, want uint8
	}{
		{T1, T1, T0, T1}, // all-1 fires regardless of state
		{T0, TX, T0, T0}, // holds 0, and X input cannot fire it alone
		{T1, TX, T1, T1}, // holds 1
		{T1, TX, T0, TX}, // may fire if X resolves to 1, may hold 0
		{TX, TX, T1, TX}, // may drop if both resolve 0
		{T0, T1, TX, TX}, // disagreeing inputs hold the unknown state
	}
	ev.Reset()
	for i, c := range cases {
		ev.Assign(a, uint(i), c.a)
		ev.Assign(b, uint(i), c.b)
		ev.Assign(y, uint(i), c.prev)
	}
	ev.Run()
	hi, lo, ok := ev.Driver(y)
	if !ok {
		t.Fatal("Driver(y) not found")
	}
	for i, c := range cases {
		got := ternFromBits(hi>>uint(i)&1, lo>>uint(i)&1)
		if got != c.want {
			t.Errorf("case %d: C2(%s,%s|prev %s) = %s, want %s",
				i, TernString(c.a), TernString(c.b), TernString(c.prev), TernString(got), TernString(c.want))
		}
	}
}

// lcg is the deterministic pseudo-random stream the repo's sampling
// paths use (no math/rand, no seeds from the clock).
type lcg uint64

func (r *lcg) next() uint64 {
	*r = *r*6364136223846793005 + 1442695040888963407
	return uint64(*r >> 16)
}

// randTernaryNetlist builds a random acyclic netlist over the AMS035
// combinational cells, with a stateful C2 probe driving the single
// forced output net.
func randTernaryNetlist(r *lcg, gatesN int) (*Netlist, []int, int) {
	nl := New("fuzz")
	kinds := []struct {
		cell string
		ins  int
	}{
		{"INV", 1}, {"BUF", 1}, {"NAND2", 2}, {"NAND3", 3},
		{"AND2", 2}, {"OR2", 2}, {"NOR2", 2}, {"XOR2", 2},
	}
	var inputs []int
	for i := 0; i < 5; i++ {
		id := nl.Fresh("in")
		nl.Inputs = append(nl.Inputs, id)
		inputs = append(inputs, id)
	}
	avail := append([]int(nil), inputs...)
	for g := 0; g < gatesN; g++ {
		k := kinds[r.next()%uint64(len(kinds))]
		ins := make([]int, k.ins)
		for j := range ins {
			ins[j] = avail[r.next()%uint64(len(avail))]
		}
		out := nl.Fresh("t")
		nl.AddInstance(k.cell, ins, out, 0)
		avail = append(avail, out)
	}
	out := nl.Net("out")
	nl.Outputs = append(nl.Outputs, out)
	cins := []int{avail[r.next()%uint64(len(avail))], avail[r.next()%uint64(len(avail))]}
	nl.AddInstance("C2", cins, out, 0)
	return nl, inputs, out
}

// The compiled dual-rail ternary evaluator must agree with the oracle
// (oracle_test.go) on every net and on the forced probe, across random
// circuits and random ternary stimuli.
func TestTernaryCompiledVsInterpreted(t *testing.T) {
	lib := cell.AMS035()
	r := lcg(0x9e3779b97f4a7c15)
	for round := 0; round < 25; round++ {
		nl, inputs, out := randTernaryNetlist(&r, 3+int(r.next()%40))
		forced := map[int]bool{out: true}
		prog, err := Compile(nl, lib, forced)
		if err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		ev := prog.NewTernaryEval()
		ev.Reset()
		stim := make([][]uint8, 64)
		for l := 0; l < 64; l++ {
			stim[l] = make([]uint8, len(nl.NetNames))
			for i := range stim[l] {
				stim[l][i] = TX
			}
			for _, in := range inputs {
				v := uint8(r.next() % 3)
				stim[l][in] = v
				ev.Assign(in, uint(l), v)
			}
			v := uint8(r.next() % 3)
			stim[l][out] = v
			ev.Assign(out, uint(l), v)
		}
		ev.Run()
		drv := nl.DriverIndex()
		for l := 0; l < 64; l++ {
			vals := stim[l]
			if err := oracleSettle(nl, lib, forced, vals); err != nil {
				t.Fatalf("round %d lane %d: %v", round, l, err)
			}
			for net := range nl.NetNames {
				if drv[net] < 0 || forced[net] {
					continue
				}
				if got, want := ev.At(net, uint(l)), vals[net]; got != want {
					t.Fatalf("round %d lane %d net %q: compiled %s, oracle %s",
						round, l, nl.NetNames[net], TernString(got), TernString(want))
				}
			}
			wantDrv, _ := oracleDriver(nl, lib, vals, out)
			hi, lo, _ := ev.Driver(out)
			if got := ternFromBits(hi>>uint(l)&1, lo>>uint(l)&1); got != wantDrv {
				t.Fatalf("round %d lane %d: Driver(out) compiled %s, oracle %s",
					round, l, TernString(got), TernString(wantDrv))
			}
		}
	}
}

// Ternary evaluation must refine binary evaluation: with no X in the
// stimulus the ternary lanes and the boolean lanes agree exactly.
func TestTernaryMatchesBinary(t *testing.T) {
	lib := cell.AMS035()
	r := lcg(12345)
	for round := 0; round < 10; round++ {
		nl, inputs, out := randTernaryNetlist(&r, 3+int(r.next()%30))
		forced := map[int]bool{out: true}
		prog, err := Compile(nl, lib, forced)
		if err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		tev := prog.NewTernaryEval()
		bev := prog.NewEval()
		tev.Reset()
		bev.Reset()
		words := make(map[int]uint64)
		for _, in := range append(append([]int(nil), inputs...), out) {
			w := r.next()
			words[in] = w
			bev.Set(in, w)
			for l := uint(0); l < 64; l++ {
				if w>>l&1 != 0 {
					tev.Assign(in, l, T1)
				} else {
					tev.Assign(in, l, T0)
				}
			}
		}
		tev.Run()
		bev.Run()
		for net := range nl.NetNames {
			if nl.Driver(net) < 0 || forced[net] {
				continue
			}
			bw := bev.Word(net)
			for l := uint(0); l < 64; l++ {
				want := T0
				if bw>>l&1 != 0 {
					want = T1
				}
				if got := tev.At(net, l); got != want {
					t.Fatalf("round %d net %q lane %d: ternary %s, binary %s",
						round, nl.NetNames[net], l, TernString(got), TernString(want))
				}
			}
		}
	}
}
