package hfmin

import (
	"strings"
	"testing"

	"balsabm/internal/logic"
)

func pt(bits ...int) []bool {
	out := make([]bool, len(bits))
	for i, b := range bits {
		out[i] = b != 0
	}
	return out
}

func minimize(t *testing.T, p *Problem) logic.Cover {
	t.Helper()
	res, err := p.Minimize()
	if err != nil {
		t.Fatal(err)
	}
	return res.Cover
}

// A static 1→1 transition must be held by a single product even when
// two products would cover its points.
func TestStaticHolding(t *testing.T) {
	p := &Problem{Vars: 2, Transitions: []Transition{
		// b stays 1 while a toggles: f == b.
		{Start: pt(0, 1), End: pt(1, 1), From: true, To: true},
		{Start: pt(1, 1), End: pt(0, 1), From: true, To: true},
		// With b low, f is 0.
		{Start: pt(0, 0), End: pt(1, 0), From: false, To: false},
	}}
	cover := minimize(t, p)
	if len(cover) != 1 || cover[0].String() != "-1" {
		t.Fatalf("got %v, want single cube -1", cover)
	}
	// A fragmented cover must be rejected by the checker.
	frag := logic.Cover{mustCube(t, "01"), mustCube(t, "11")}
	if err := CheckCover(frag, p.Transitions); err == nil {
		t.Fatal("fragmented cover accepted")
	}
}

// The classic dynamic 1→0 case: both inputs fall (in context c=1); the
// cover needs one product per falling literal, anchored at the start
// point.
func TestDynamicFall(t *testing.T) {
	p := &Problem{Vars: 3, Names: []string{"a", "b", "c"}, Transitions: []Transition{
		{Start: pt(1, 1, 1), End: pt(0, 0, 1), From: true, To: false},
		{Start: pt(0, 0, 0), End: pt(1, 1, 0), From: false, To: false},
	}}
	cover := minimize(t, p)
	if len(cover) != 2 {
		t.Fatalf("got %v", cover)
	}
	got := cover.String()
	if !strings.Contains(got, "1-1") || !strings.Contains(got, "-11") {
		t.Fatalf("got %v, want 1-1 and -11", cover)
	}
	// An implicant intersecting the falling transition without its
	// start point is an illegal (hazardous) intersection.
	bad := logic.Cover{mustCube(t, "1-1"), mustCube(t, "011")}
	if err := CheckCover(bad, p.Transitions); err == nil {
		t.Fatal("illegal intersection accepted")
	}
}

// 0→1 transitions: only the end point is ON; products must stay off
// during the rise.
func TestDynamicRise(t *testing.T) {
	p := &Problem{Vars: 3, Transitions: []Transition{
		{Start: pt(0, 0, 1), End: pt(1, 1, 1), From: false, To: true},
		{Start: pt(0, 0, 0), End: pt(1, 1, 0), From: false, To: false},
	}}
	cover := minimize(t, p)
	if !cover.Eval(pt(1, 1, 1)) {
		t.Fatal("end point uncovered")
	}
	if cover.Eval(pt(0, 0, 1)) {
		t.Fatal("start point covered")
	}
	if cover.Eval(pt(1, 0, 1)) || cover.Eval(pt(0, 1, 1)) {
		t.Fatal("cover on during the rise's OFF phase")
	}
}

// The passivator's acknowledge function minimizes to the majority
// (C-element) cover ab + ay + by over inputs a, b and state bit y.
func TestPassivatorCElement(t *testing.T) {
	p := &Problem{Vars: 3, Names: []string{"a", "b", "y"}, Transitions: []Transition{
		// State 0 (y=0): inputs rise, output rises at the end.
		{Start: pt(0, 0, 0), End: pt(1, 1, 0), From: false, To: true},
		// State change y: 0→1 with inputs high: f holds 1.
		{Start: pt(1, 1, 0), End: pt(1, 1, 1), From: true, To: true},
		// State 1 (y=1): inputs fall, output falls at the end.
		{Start: pt(1, 1, 1), End: pt(0, 0, 1), From: true, To: false},
		// State change y: 1→0 with inputs low: f holds 0.
		{Start: pt(0, 0, 1), End: pt(0, 0, 0), From: false, To: false},
	}}
	cover := minimize(t, p)
	want := map[string]bool{"11-": true, "1-1": true, "-11": true}
	if len(cover) != 3 {
		t.Fatalf("got %v, want majority cover", cover)
	}
	for _, c := range cover {
		if !want[c.String()] {
			t.Fatalf("unexpected product %s in %v", c, cover)
		}
	}
}

// Contradictory specifications (the same point required 0 and 1) must
// be reported as a ConflictError — the signal minimalist uses to refine
// the state assignment.
func TestConflictDetection(t *testing.T) {
	p := &Problem{Vars: 2, Transitions: []Transition{
		{Start: pt(0, 0), End: pt(1, 1), From: false, To: true},
		{Start: pt(1, 1), End: pt(0, 0), From: true, To: false},
		// Without a state variable, the mid points clash:
		{Start: pt(1, 0), End: pt(1, 1), From: true, To: true},
	}}
	_, err := p.Minimize()
	if err == nil {
		t.Fatal("expected conflict")
	}
	if _, ok := err.(*ConflictError); !ok {
		t.Fatalf("got %T: %v", err, err)
	}
}

// A constant-0 function minimizes to the empty cover.
func TestConstantZero(t *testing.T) {
	p := &Problem{Vars: 2, Transitions: []Transition{
		{Start: pt(0, 0), End: pt(1, 1), From: false, To: false},
	}}
	cover := minimize(t, p)
	if len(cover) != 0 {
		t.Fatalf("got %v", cover)
	}
}

// Exact covering beats per-required-cube selection: overlapping
// required cubes shared by one prime.
func TestMinimumCover(t *testing.T) {
	// f = 1 whenever a=1, expressed through two static transitions
	// whose cubes both fit inside the single prime 1--.
	p := &Problem{Vars: 3, Transitions: []Transition{
		{Start: pt(1, 0, 0), End: pt(1, 1, 0), From: true, To: true},
		{Start: pt(1, 0, 1), End: pt(1, 1, 1), From: true, To: true},
		{Start: pt(0, 0, 0), End: pt(0, 1, 1), From: false, To: false},
	}}
	cover := minimize(t, p)
	if len(cover) != 1 || cover[0].String() != "1--" {
		t.Fatalf("got %v, want 1--", cover)
	}
}

// Transition sanity errors.
func TestBadTransitions(t *testing.T) {
	p := &Problem{Vars: 2, Transitions: []Transition{
		{Start: pt(0, 0), End: pt(0, 0), From: false, To: true},
	}}
	if _, err := p.Minimize(); err == nil {
		t.Fatal("value change without input change accepted")
	}
	p = &Problem{Vars: 2, Transitions: []Transition{
		{Start: pt(0), End: pt(0, 0), From: false, To: false},
	}}
	if _, err := p.Minimize(); err == nil {
		t.Fatal("arity mismatch accepted")
	}
}

// CheckCover also audits value correctness at transition end points.
func TestCheckCoverValues(t *testing.T) {
	trans := []Transition{
		{Start: pt(0, 0), End: pt(1, 1), From: false, To: true},
		{Start: pt(1, 1), End: pt(0, 0), From: true, To: false},
	}
	// Constant-0 cover: misses the 0→1 end point.
	if err := CheckCover(nil, trans); err == nil {
		t.Fatal("empty cover accepted")
	}
	// Tautology cover: stuck at 1 at the 1→0 end point and on during
	// the OFF phase of the rise.
	if err := CheckCover(logic.Cover{mustCube(t, "--")}, trans); err == nil {
		t.Fatal("tautology accepted")
	}
}

// The result must report how it was obtained: exact instances carry
// Exact with a nonzero enumeration node count, and wide instances
// (>64 specified variables, served by the generic packed path) agree
// with the mask path on exactness.
func TestResultExactAndCounters(t *testing.T) {
	p := benchProblem(14)
	res, err := p.Minimize()
	if err != nil {
		t.Fatal(err)
	}
	if !res.Exact {
		t.Fatalf("benchProblem(14) fell back to greedy: %+v", res)
	}
	if res.EnumNodes == 0 {
		t.Fatal("exact result reports zero enumeration nodes")
	}
	if res.BranchNodes < 0 {
		t.Fatalf("negative branch nodes: %d", res.BranchNodes)
	}
	// A trivial constant-zero function is exact with no work at all.
	zero := &Problem{Vars: 2, Transitions: []Transition{
		{Start: pt(0, 0), End: pt(1, 1), From: false, To: false},
	}}
	rz, err := zero.Minimize()
	if err != nil {
		t.Fatal(err)
	}
	if !rz.Exact {
		t.Fatal("constant-zero function not exact")
	}
}

// dhfPrimes against a brute-force oracle: enumerate every subset of
// the seed's specified literals, keep the subsets whose freed cube is
// a dhf-implicant under the reference []Lit engine, filter to the
// maximal ones, and require the constraint-branching enumeration to
// return exactly that set.
func TestDHFPrimesOracle(t *testing.T) {
	problems := []*Problem{
		benchProblem(10),
		benchProblem(12),
		{Vars: 3, Transitions: []Transition{
			{Start: pt(1, 1, 1), End: pt(0, 0, 1), From: true, To: false},
			{Start: pt(0, 0, 0), End: pt(1, 1, 0), From: false, To: false},
		}},
	}
	for pi, p := range problems {
		_, off, required, priv, err := p.sets()
		if err != nil {
			t.Fatal(err)
		}
		isDHFRef := func(c logic.Cube) bool {
			for _, o := range off {
				if c.Intersects(o) {
					return false
				}
			}
			for _, pv := range priv {
				if c.Intersects(pv.cube) && !c.ContainsPoint(pv.start) {
					return false
				}
			}
			return true
		}
		mat := newProblemMat(p.Vars, off, priv)
		for _, r := range required {
			var spec []int
			for v := 0; v < p.Vars; v++ {
				if r[v] != logic.DC {
					spec = append(spec, v)
				}
			}
			if len(spec) > 16 {
				t.Fatalf("problem %d: seed too wide for the oracle", pi)
			}
			// All feasible freed-subsets, as cubes.
			var feasible []logic.Cube
			for s := 0; s < 1<<len(spec); s++ {
				c := r.Clone()
				for i, v := range spec {
					if s>>i&1 != 0 {
						c[v] = logic.DC
					}
				}
				if isDHFRef(c) {
					feasible = append(feasible, c)
				}
			}
			want := map[string]bool{}
			for _, c := range feasible {
				maximal := true
				for _, d := range feasible {
					if !c.Equal(d) && d.Contains(c) {
						maximal = false
						break
					}
				}
				if maximal {
					want[c.String()] = true
				}
			}
			got, _, exact := mat.dhfPrimes(mat.sp.Pack(r), (*problemMat).dhfPrimesMask)
			if !exact {
				t.Fatalf("problem %d seed %s: enumeration truncated", pi, r)
			}
			if len(got) != len(want) {
				t.Errorf("problem %d seed %s: got %d primes, oracle has %d", pi, r, len(got), len(want))
			}
			for _, c := range got {
				if !want[mat.sp.Unpack(c).String()] {
					t.Errorf("problem %d seed %s: %s is not an oracle prime", pi, r, mat.sp.Unpack(c))
				}
			}
		}
	}
}

func TestFormatPLA(t *testing.T) {
	out := FormatPLA("f", []string{"a", "b"}, logic.Cover{mustCube(t, "1-")})
	for _, want := range []string{".ob f", ".i 2", ".ilb a b", ".p 1", "1- 1", ".e"} {
		if !strings.Contains(out, want) {
			t.Fatalf("missing %q in:\n%s", want, out)
		}
	}
}

func mustCube(t *testing.T, s string) logic.Cube {
	t.Helper()
	c, err := logic.ParseCube(s)
	if err != nil {
		t.Fatal(err)
	}
	return c
}
