package minimalist

import (
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"balsabm/internal/bm"
	"balsabm/internal/ch"
	"balsabm/internal/chtobm"
	"balsabm/internal/core"
	"balsabm/internal/designs"
)

// fuzzGen mirrors chtobm's agreement-fuzzer generator (same seed, same
// draw order, so the same programs): random CH expressions legal by
// construction under the Table 1 restrictions.
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

// maxFuzzStates caps the fuzz specs TestEncodeMatchesSynthesize fully
// synthesizes: the largest fuzz specs (up to 97 states and 62
// variables) take the minimizer minutes, while every spec up to the
// cap synthesizes in well under a second.
const maxFuzzStates = 20

// encodeCorpus returns the compiled specifications of every controller
// shape of the Table 3 designs in both arms (unclustered and
// clustered), followed by the 300 specs of chtobm's agreement fuzzer.
func encodeCorpus(t *testing.T) []*bm.Spec {
	t.Helper()
	seen := map[string]bool{}
	var specs []*bm.Spec
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
				t.Fatalf("%s: compile: %v", comp.Name, err)
			}
			specs = append(specs, sp)
		}
	}
	for _, d := range designs.All() {
		addNetlist(d.Control())
		opt, _, err := core.OptimizeOpt(d.Control(), core.Options{})
		if err != nil {
			t.Fatalf("%s: clustering: %v", d.Name, err)
		}
		addNetlist(opt)
	}
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
		specs = append(specs, sp)
	}
	return specs
}

// TestEncodeMatchesSynthesize pins the split of synthesis into Encode
// and minimization: on every corpus spec, Encode yields exactly the
// variable order, state-bit count, state codes and per-function
// transition tables of the controller SynthesizeOpt returns (or fails
// with the same error), so a caller needing only the burst provenance
// of a synthesized controller can skip the minimizer. Fuzz specs above
// maxFuzzStates are encoded twice and must agree with themselves.
func TestEncodeMatchesSynthesize(t *testing.T) {
	specs := encodeCorpus(t)
	if len(specs) <= 300 {
		t.Fatalf("corpus has only %d specs", len(specs))
	}
	synthesized := 0
	for i, sp := range specs {
		enc, encErr := Encode(sp)
		if i >= len(specs)-300 && sp.NStates > maxFuzzStates {
			again, err := Encode(sp)
			if (encErr == nil) != (err == nil) || (err == nil && !reflect.DeepEqual(enc, again)) {
				t.Errorf("%s: Encode is not deterministic", sp.Name)
			}
			continue
		}
		ctrl, synErr := SynthesizeOpt(sp, Options{})
		if encErr != nil {
			if synErr == nil || encErr.Error() != synErr.Error() {
				t.Errorf("%s: Encode error %v, SynthesizeOpt error %v", sp.Name, encErr, synErr)
			}
			continue
		}
		if synErr != nil {
			// Only a function's minimization may fail past a successful
			// encoding (a spec hfmin proves inconsistent).
			if !strings.HasPrefix(synErr.Error(), "minimalist: "+sp.Name+"/") {
				t.Errorf("%s: encoded, but SynthesizeOpt failed outside minimization: %v", sp.Name, synErr)
			}
			continue
		}
		synthesized++
		if !reflect.DeepEqual(enc.Vars, ctrl.Vars) {
			t.Errorf("%s: Vars %v, want %v", sp.Name, enc.Vars, ctrl.Vars)
		}
		if enc.StateBits != ctrl.StateBits {
			t.Errorf("%s: StateBits %d, want %d", sp.Name, enc.StateBits, ctrl.StateBits)
		}
		if !reflect.DeepEqual(enc.Codes, ctrl.Codes) {
			t.Errorf("%s: Codes %v, want %v", sp.Name, enc.Codes, ctrl.Codes)
		}
		if !reflect.DeepEqual(enc.Transitions, ctrl.Transitions) {
			t.Errorf("%s: Transitions differ from the synthesized controller's", sp.Name)
		}
	}
	if synthesized < len(specs)/2 {
		t.Errorf("only %d of %d corpus specs synthesized", synthesized, len(specs))
	}
}
