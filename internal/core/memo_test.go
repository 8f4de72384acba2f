package core_test

import (
	"fmt"
	"testing"

	"balsabm/internal/core"
	"balsabm/internal/designs"
)

// TestT1MemoMatchesReference: the probe memo changes no decision.
// T1ClusteringOpt and the un-memoized reference sweep produce the
// same clustered netlist and the same report (merges, skips,
// containment) on the four Table 3 control netlists, their call-split
// forms (what T2 hands to T1), and random multi-pair netlists, at one
// worker and at eight.
func TestT1MemoMatchesReference(t *testing.T) {
	type input struct {
		name string
		n    *core.Netlist
	}
	var inputs []input
	for _, d := range designs.All() {
		inputs = append(inputs,
			input{d.Name, d.Control()},
			input{d.Name + "/split", core.SplitCalls(d.Control())})
	}
	for i, n := range core.RandomNetlists(40, 3) {
		inputs = append(inputs, input{fmt.Sprintf("fuzz%d", i), n})
	}
	render := func(n *core.Netlist, rep *core.Report) string {
		return n.Format() + fmt.Sprintf("%+v", *rep)
	}
	merges := 0
	for _, in := range inputs {
		for _, w := range []int{1, 8} {
			opt := core.Options{Workers: w}
			n1, r1, err := core.T1ClusteringOpt(in.n, opt)
			if err != nil {
				t.Fatalf("%s: %v", in.name, err)
			}
			n2, r2, err := core.T1ClusteringRef(in.n, opt)
			if err != nil {
				t.Fatalf("%s: reference: %v", in.name, err)
			}
			if a, b := render(n1, r1), render(n2, r2); a != b {
				t.Errorf("%s, Workers=%d: memoized and reference clustering disagree:\n--- memo ---\n%s\n--- reference ---\n%s",
					in.name, w, a, b)
			}
			merges += len(r1.Merges)
		}
	}
	if merges == 0 {
		t.Fatal("no input committed a merge")
	}
}
