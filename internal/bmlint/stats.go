package bmlint

import (
	"fmt"

	"balsabm/internal/bm"
	"balsabm/internal/hfmin"
)

// Stats is the BM200 static complexity report: how big the machine
// is, how wide its bursts are, and a rough a-priori estimate of how
// hard the hazard-free minimizer will have to work on it.
//
// The pressure heuristic: hfmin minimizes one function per output
// (plus one per state bit), and the dhf-prime enumeration it runs
// branches on the required cubes of that output's transitions. An
// output toggled by t arcs contributes on the order of 2^t candidate
// subsets before the packed engine's pruning, so 2^t for the
// most-toggled output is the natural worst-case yardstick against
// hfmin.EnumBudget — the node budget past which the minimizer
// abandons the exact path for greedy expansion.
type Stats struct {
	States  int    `json:"states"` // specification states
	Arcs    int    `json:"arcs"`
	Inputs  int    `json:"inputs"`
	Outputs int    `json:"outputs"`
	MaxIn   int    `json:"maxIn"`           // widest input burst
	MaxOut  int    `json:"maxOut"`          // widest output burst
	Toggles int    `json:"toggles"`         // total output toggles across all arcs
	Worst   string `json:"worst,omitempty"` // most-toggled output (lexically first on ties)
	WorstN  int    `json:"worstN"`          // its toggle count
	Budget  int    `json:"budget"`          // hfmin.EnumBudget, for the pressure comparison
}

// ComputeStats computes the BM200 report for a spec.
func ComputeStats(sp *bm.Spec) Stats {
	st := Stats{
		States:  sp.NStates,
		Arcs:    len(sp.Arcs),
		Inputs:  len(sp.Inputs),
		Outputs: len(sp.Outputs),
		Budget:  hfmin.EnumBudget,
	}
	toggles := map[string]int{}
	for _, a := range sp.Arcs {
		if len(a.In) > st.MaxIn {
			st.MaxIn = len(a.In)
		}
		if len(a.Out) > st.MaxOut {
			st.MaxOut = len(a.Out)
		}
		st.Toggles += len(a.Out)
		for _, s := range a.Out {
			toggles[s.Name]++
		}
	}
	// Outputs are sorted on the Spec, so the tie-break is the lexically
	// first name and the result is deterministic.
	for _, name := range sp.Outputs {
		if toggles[name] > st.WorstN {
			st.Worst, st.WorstN = name, toggles[name]
		}
	}
	return st
}

// Pressure renders the estimated enumeration pressure 2^WorstN: the
// exact value while it fits comfortably, the power form beyond.
func (s Stats) Pressure() string {
	if s.WorstN <= 20 {
		return fmt.Sprint(1 << s.WorstN)
	}
	return fmt.Sprintf("2^%d", s.WorstN)
}

// String renders the one-line BM200 report message.
func (s Stats) String() string {
	msg := fmt.Sprintf(
		"static report: %d states, %d arcs, %d inputs, %d outputs, widest burst %d in/%d out",
		s.States, s.Arcs, s.Inputs, s.Outputs, s.MaxIn, s.MaxOut)
	if s.Worst == "" {
		return msg
	}
	rel := "within"
	if s.WorstN > 20 || 1<<s.WorstN > s.Budget {
		rel = "exceeds"
	}
	return msg + fmt.Sprintf("; worst output %q toggled by %d arcs (est. enumeration pressure %s %s hfmin budget %d)",
		s.Worst, s.WorstN, s.Pressure(), rel, s.Budget)
}
