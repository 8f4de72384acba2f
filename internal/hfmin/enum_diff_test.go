package hfmin_test

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"balsabm/internal/bm"
	"balsabm/internal/ch"
	"balsabm/internal/chtobm"
	"balsabm/internal/core"
	"balsabm/internal/designs"
	"balsabm/internal/hfmin"
	"balsabm/internal/minimalist"
)

// fuzzGen mirrors the generator of minimalist's encodeCorpus (same
// seed, same draw order, so the same programs).
type fuzzGen struct {
	rng  *rand.Rand
	next int
}

func (g *fuzzGen) gen(act ch.Activity, depth int) ch.Expr {
	if depth <= 0 || g.rng.Intn(3) == 0 {
		g.next++
		return &ch.Chan{Kind: ch.PToP, Act: act, Name: fmt.Sprintf("c%d", g.next)}
	}
	if act == ch.Active {
		kinds := []ch.OpKind{ch.EncEarly, ch.EncMiddle, ch.Seq, ch.SeqOv}
		k := kinds[g.rng.Intn(4)]
		return &ch.Op{Kind: k, A: g.gen(ch.Active, depth-1), B: g.gen(ch.Active, depth-1)}
	}
	switch k := []ch.OpKind{ch.EncEarly, ch.EncMiddle, ch.EncLate, ch.Seq, ch.Mutex}[g.rng.Intn(5)]; k {
	case ch.Mutex:
		return &ch.Op{Kind: k, A: g.gen(ch.Passive, depth-1), B: g.gen(ch.Passive, depth-1)}
	default:
		return &ch.Op{Kind: k, A: g.gen(ch.Passive, depth-1), B: g.genAny(depth - 1)}
	}
}

func (g *fuzzGen) genAny(depth int) ch.Expr {
	if g.rng.Intn(2) == 0 {
		return g.gen(ch.Active, depth)
	}
	return g.gen(ch.Passive, depth)
}

// maxFuzzStates caps the fuzz specs of the corpus at the size
// minimalist's TestEncodeMatchesSynthesize minimizes: larger ones
// (up to 97 states) truncate thousands of enumerations, and the
// reference's quadratic leaf filter then takes minutes.
const maxFuzzStates = 20

// diffProblem is one single-output minimization instance of the corpus.
type diffProblem struct {
	name string
	p    *hfmin.Problem
}

// specProblems returns one problem per function of sp's encoding, in
// name order; none when the encoding fails (SynthesizeOpt fails on it
// too, so nothing is minimized).
func specProblems(sp *bm.Spec) []diffProblem {
	enc, err := minimalist.Encode(sp)
	if err != nil {
		return nil
	}
	names := make([]string, 0, len(enc.Transitions))
	for name := range enc.Transitions {
		names = append(names, name)
	}
	sort.Strings(names)
	var out []diffProblem
	for _, name := range names {
		out = append(out, diffProblem{
			name: sp.Name + "/" + name,
			p:    &hfmin.Problem{Vars: len(enc.Vars), Names: enc.Vars, Transitions: enc.Transitions[name]},
		})
	}
	return out
}

// designProblems returns every function of every controller shape the
// given Table 3 designs minimize, in both arms (unclustered and
// clustered), each shape once.
func designProblems(tb testing.TB, ds []*designs.Design) []diffProblem {
	tb.Helper()
	var out []diffProblem
	seen := map[string]bool{}
	addNetlist := func(n *core.Netlist) {
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
				tb.Fatalf("%s: compile: %v", comp.Name, err)
			}
			out = append(out, specProblems(sp)...)
		}
	}
	for _, d := range ds {
		addNetlist(d.Control())
		opt, _, err := core.OptimizeOpt(d.Control(), core.Options{})
		if err != nil {
			tb.Fatalf("%s: clustering: %v", d.Name, err)
		}
		addNetlist(opt)
	}
	return out
}

// diffCorpus returns the problems of the four Table 3 designs, then
// every function of the fuzz specs of minimalist's encodeCorpus up to
// maxFuzzStates states, then benchProblem at 10, 14 and 18 variables.
func diffCorpus(t *testing.T) []diffProblem {
	t.Helper()
	out := designProblems(t, designs.All())
	rng := rand.New(rand.NewSource(20020304)) // DATE 2002
	for i := 0; i < 300; i++ {
		g := &fuzzGen{rng: rng}
		body := &ch.Rep{Body: &ch.Op{
			Kind: ch.EncEarly,
			A:    &ch.Chan{Kind: ch.PToP, Act: ch.Passive, Name: "act"},
			B:    g.genAny(rng.Intn(4) + 1),
		}}
		sp, err := chtobm.Compile(&ch.Program{Name: fmt.Sprintf("fuzz%d", i), Body: body})
		if err != nil {
			t.Fatalf("fuzz %d: compile: %v", i, err)
		}
		if sp.NStates <= maxFuzzStates {
			out = append(out, specProblems(sp)...)
		}
	}
	for _, n := range []int{10, 14, 18} {
		out = append(out, diffProblem{name: fmt.Sprintf("bench%d", n), p: hfmin.BenchProblem(n)})
	}
	return out
}

// diffStats totals one differential run.
type diffStats struct {
	cubes, truncated, recovered int
	refNodes, nodes             int64
}

// checkEnum compares the pruned enumeration with the reference on every
// required cube of p under budget. Where the reference completes, the
// pruned search must return the same primes in the same order, also
// complete, and visit no more nodes. Where the reference truncates, the
// outputs may differ (the pruned search gets further), so only the end
// result is checked: Minimize must still pass CheckCover and use no
// more products than Minimize on the reference engine.
func checkEnum(t *testing.T, dp diffProblem, budget int64, st *diffStats) {
	t.Helper()
	got, ref, err := hfmin.EnumBoth(dp.p, budget)
	if err != nil {
		return // inconsistent specification: Minimize rejects it before enumerating
	}
	truncated := false
	for i, r := range ref {
		g := got[i]
		st.cubes++
		st.refNodes += r.Nodes
		st.nodes += g.Nodes
		if !r.Exact {
			truncated = true
			st.truncated++
			if g.Exact {
				st.recovered++
			}
			continue
		}
		if !g.Exact || !reflect.DeepEqual(g.Primes, r.Primes) {
			t.Errorf("%s seed %s (budget %d): primes %v exact=%t, reference %v exact=%t",
				dp.name, r.Seed, budget, g.Primes, g.Exact, r.Primes, r.Exact)
		}
		if g.Nodes > r.Nodes {
			t.Errorf("%s seed %s (budget %d): %d nodes, reference %d", dp.name, r.Seed, budget, g.Nodes, r.Nodes)
		}
	}
	if !truncated {
		return
	}
	res, err := hfmin.MinimizeWith(dp.p, budget, false)
	if err != nil {
		t.Errorf("%s (budget %d): %v", dp.name, budget, err)
		return
	}
	if err := hfmin.CheckCover(res.Cover, dp.p.Transitions); err != nil {
		t.Errorf("%s (budget %d): %v", dp.name, budget, err)
	}
	refRes, err := hfmin.MinimizeWith(dp.p, budget, true)
	if err != nil {
		t.Fatalf("%s (budget %d): reference: %v", dp.name, budget, err)
	}
	if len(res.Cover) > len(refRes.Cover) {
		t.Errorf("%s (budget %d): %d products, reference %d", dp.name, budget, len(res.Cover), len(refRes.Cover))
	}
}

// TestEnumMatchesReference is the differential test of the
// subsumption-pruned dhf-prime enumeration against the unpruned one it
// replaced, over the Table 3 controllers, the encode fuzz corpus and
// the synthetic sequencer problems. It runs at the production node
// budget, where the pruned search must visit fewer nodes in total, and
// at a budget of 8 nodes, which forces the greedy fallback.
func TestEnumMatchesReference(t *testing.T) {
	corpus := diffCorpus(t)
	for _, budget := range []int64{hfmin.EnumBudget, 8} {
		var st diffStats
		for _, dp := range corpus {
			checkEnum(t, dp, budget, &st)
		}
		t.Logf("budget %d, %d cubes: %d nodes (reference %d); reference truncated %d, pruned search completed %d of those",
			budget, st.cubes, st.nodes, st.refNodes, st.truncated, st.recovered)
		if st.cubes < 1000 {
			t.Fatalf("corpus has only %d required cubes", st.cubes)
		}
		if budget == hfmin.EnumBudget && st.nodes >= st.refNodes {
			t.Errorf("pruned search visited %d nodes, reference %d", st.nodes, st.refNodes)
		}
		if budget < hfmin.EnumBudget && st.truncated == 0 {
			t.Errorf("budget %d truncated no enumeration; the fallback went untested", budget)
		}
	}
}

// BenchmarkDHFPrimesTable3 measures the prime enumeration alone on the
// required cubes of real controllers: every function the wagging
// register and the systolic counter minimize, in both arms. Unlike
// benchProblem's sequencer chains, these specs make the unpruned
// search produce many nested, non-prime leaves.
func BenchmarkDHFPrimesTable3(b *testing.B) {
	for _, name := range []string{"wagging-register", "systolic-counter"} {
		d, err := designs.ByName(name)
		if err != nil {
			b.Fatal(err)
		}
		var runs []func() int64
		for _, dp := range designProblems(b, []*designs.Design{d}) {
			run, err := hfmin.EnumAll(dp.p)
			if err != nil {
				b.Fatalf("%s: %v", dp.name, err)
			}
			runs = append(runs, run)
		}
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			var nodes int64
			for i := 0; i < b.N; i++ {
				nodes = 0
				for _, run := range runs {
					nodes += run()
				}
			}
			b.ReportMetric(float64(nodes), "nodes/op")
		})
	}
}
