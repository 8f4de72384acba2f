package core

import (
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"balsabm/internal/ch"
)

// fuzz generator for legal CH expressions (mirrors the chtobm fuzzer,
// kept local to avoid an internal test dependency).
type genCtx struct {
	rng  *rand.Rand
	next int
}

func (g *genCtx) fresh() string {
	g.next++
	return fmt.Sprintf("n%d", g.next)
}

func (g *genCtx) gen(act ch.Activity, depth int) ch.Expr {
	if depth <= 0 || g.rng.Intn(3) == 0 {
		return &ch.Chan{Kind: ch.PToP, Act: act, Name: g.fresh()}
	}
	if act == ch.Active {
		kinds := []ch.OpKind{ch.EncEarly, ch.EncMiddle, ch.Seq}
		k := kinds[g.rng.Intn(len(kinds))]
		return &ch.Op{Kind: k, A: g.gen(ch.Active, depth-1), B: g.gen(ch.Active, depth-1)}
	}
	switch g.rng.Intn(5) {
	case 0:
		return &ch.Op{Kind: ch.EncEarly, A: g.gen(ch.Passive, depth-1), B: g.genAny(depth - 1)}
	case 1:
		return &ch.Op{Kind: ch.EncMiddle, A: g.gen(ch.Passive, depth-1), B: g.genAny(depth - 1)}
	case 2:
		return &ch.Op{Kind: ch.EncLate, A: g.gen(ch.Passive, depth-1), B: g.genAny(depth - 1)}
	case 3:
		return &ch.Op{Kind: ch.Seq, A: g.gen(ch.Passive, depth-1), B: g.genAny(depth - 1)}
	default:
		return &ch.Op{Kind: ch.Mutex, A: g.gen(ch.Passive, depth-1), B: g.gen(ch.Passive, depth-1)}
	}
}

func (g *genCtx) genAny(depth int) ch.Expr {
	if g.rng.Intn(2) == 0 {
		return g.gen(ch.Active, depth)
	}
	return g.gen(ch.Passive, depth)
}

// renameOneActiveLeaf picks one active p-to-p leaf and renames it to
// name, reporting success.
func renameOneActiveLeaf(e ch.Expr, rng *rand.Rand, name string) bool {
	var leaves []*ch.Chan
	ch.Walk(e, func(x ch.Expr) {
		if c, ok := x.(*ch.Chan); ok && c.Kind == ch.PToP && c.Act == ch.Active {
			leaves = append(leaves, c)
		}
	})
	if len(leaves) == 0 {
		return false
	}
	leaves[rng.Intn(len(leaves))].Name = name
	return true
}

// fuzzPair draws one activating/activated pair joined by channel
// "chan", reporting false when the draw is not a legal pair.
func fuzzPair(rng *rand.Rand) (x, y *ch.Program, ok bool) {
	g := &genCtx{rng: rng}
	// Activating component: passive activation enclosing a random
	// active expression, one of whose leaves becomes the channel.
	activeExpr := g.gen(ch.Active, rng.Intn(2)+1)
	if !renameOneActiveLeaf(activeExpr, rng, "chan") {
		return nil, nil, false
	}
	x = &ch.Program{Name: "act", Body: &ch.Rep{Body: &ch.Op{
		Kind: ch.EncEarly,
		A:    &ch.Chan{Kind: ch.PToP, Act: ch.Passive, Name: "go"},
		B:    activeExpr,
	}}}
	// Activated component: an enclosure of a random body within
	// the channel handshake (fresh names distinct from x's).
	g2 := &genCtx{rng: rng, next: 100}
	encs := []ch.OpKind{ch.EncEarly, ch.EncMiddle, ch.EncLate}
	y = &ch.Program{Name: "low", Body: &ch.Rep{Body: &ch.Op{
		Kind: encs[rng.Intn(len(encs))],
		A:    &ch.Chan{Kind: ch.PToP, Act: ch.Passive, Name: "chan"},
		B:    g2.genAny(rng.Intn(2) + 1),
	}}}
	if ch.Validate(x.Body) != nil || ch.Validate(y.Body) != nil {
		return nil, nil, false
	}
	return x, y, true
}

// RandomNetlists returns count netlists of size fuzz pairs each, drawn
// as TestFuzzClusterConformance draws them. Each pair's names get a
// p<i>- prefix, and a sequencer "top" activates every pair's "go" in
// turn, so a T1 run sees several internal channels, re-probes them
// after each commit, and can merge across levels.
func RandomNetlists(count, size int) []*Netlist {
	rng := rand.New(rand.NewSource(1962))
	var out []*Netlist
	for len(out) < count {
		n := &Netlist{}
		var seq ch.Expr
		for i := 0; i < size; {
			x, y, ok := fuzzPair(rng)
			if !ok {
				continue
			}
			prefix := fmt.Sprintf("p%d-", i)
			for _, p := range []*ch.Program{x, y} {
				var names []string
				ch.Walk(p.Body, func(e ch.Expr) {
					if c, ok := e.(*ch.Chan); ok && c.Kind == ch.PToP {
						names = append(names, c.Name)
					}
				})
				body := p.Body
				for _, nm := range names {
					body = ch.RenameChannel(body, nm, prefix+nm)
				}
				n.Components = append(n.Components, &ch.Program{Name: prefix + p.Name, Body: body})
			}
			var goCh ch.Expr = &ch.Chan{Kind: ch.PToP, Act: ch.Active, Name: prefix + "go"}
			if seq == nil {
				seq = goCh
			} else {
				seq = &ch.Op{Kind: ch.Seq, A: seq, B: goCh}
			}
			i++
		}
		n.Components = append(n.Components, &ch.Program{Name: "top", Body: &ch.Rep{Body: &ch.Op{
			Kind: ch.EncEarly,
			A:    &ch.Chan{Kind: ch.PToP, Act: ch.Passive, Name: "start"},
			B:    seq,
		}}})
		out = append(out, n)
	}
	return out
}

// TestFuzzClusterConformance: for random activating/activated pairs,
// every merge that T1 would commit (i.e. the merged component is
// Burst-Mode synthesizable) must be conformation-equivalent to the
// composed pair with the channel hidden — the Section 4.3 property,
// fuzzed beyond the paper's single-operator grid.
func TestFuzzClusterConformance(t *testing.T) {
	rng := rand.New(rand.NewSource(1962)) // SSEM's ancestor year, why not
	tried, verified := 0, 0
	for i := 0; i < 300 && verified < 80; i++ {
		x, y, ok := fuzzPair(rng)
		if !ok {
			continue
		}
		merged, err := ActivationChannelRemoval("chan", x, y)
		if err != nil {
			continue
		}
		tried++
		if !synthesizable(merged, Options{}) {
			continue // T1 would skip this merge; nothing to verify
		}
		if err := VerifyActivationChannelRemoval("chan", x, y); err != nil {
			if errors.Is(err, ErrInterference) {
				// The composition itself needs the fundamental-mode
				// timing assumption; equivalence cannot be stated at
				// the speed-independent level. Not a merge bug.
				continue
			}
			t.Fatalf("iteration %d: committed merge is not behavior-preserving: %v\nactivating:\n%s\nactivated:\n%s",
				i, err, ch.Format(x.Body), ch.Format(y.Body))
		}
		verified++
	}
	if verified < 10 {
		t.Fatalf("only %d/%d merges verified; generator too restrictive", verified, tried)
	}
	t.Logf("verified %d committed merges (of %d candidates)", verified, tried)
}
