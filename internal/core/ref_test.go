package core

import (
	"balsabm/internal/ch"
	"balsabm/internal/parallel"
)

// The un-memoized T1 sweep T1ClusteringOpt replaced, kept verbatim
// (renamed) as the reference of TestT1MemoMatchesReference: every
// sweep re-runs the full legality probe of every remaining channel
// after each commit.

// T1ClusteringRef is the reference for T1ClusteringOpt.
func T1ClusteringRef(n *Netlist, opt Options) (*Netlist, *Report, error) {
	opt.Pool = opt.pool()
	out := n.Clone()
	rep := &Report{Containment: map[string]string{}}
	for _, c := range out.Components {
		rep.Containment[c.Name] = c.Name
	}
	for {
		merged, err := t1SweepRef(out, rep, opt)
		if err != nil {
			return nil, nil, err
		}
		if !merged {
			break
		}
	}
	sortComponents(out)
	return out, rep, nil
}

// t1EvaluateRef probes one channel for a legal merge. It is pure with
// respect to the netlist (ActivationChannelRemoval and the
// synthesizability check clone everything they rewrite), so candidates
// for many channels can be evaluated concurrently against the same
// netlist state.
func t1EvaluateRef(out *Netlist, channel string, uses map[string][]ChanUse, opt Options) t1Candidate {
	us := uses[channel]
	if len(us) != 2 {
		return t1Candidate{}
	}
	// x activates (active side); y is activated (passive side).
	var xName, yName string
	switch {
	case us[0].Port.Act == ch.Active && us[1].Port.Act == ch.Passive:
		xName, yName = us[0].Component, us[1].Component
	case us[0].Port.Act == ch.Passive && us[1].Port.Act == ch.Active:
		xName, yName = us[1].Component, us[0].Component
	default:
		return t1Candidate{}
	}
	if xName == yName {
		return t1Candidate{}
	}
	x, y := out.Find(xName), out.Find(yName)
	merged, err := ActivationChannelRemoval(channel, x, y)
	if err != nil {
		return t1Candidate{}
	}
	if !synthesizable(merged, opt) {
		return t1Candidate{}
	}
	return t1Candidate{xName: xName, yName: yName, merged: merged}
}

// t1SweepRef performs one pass over the current internal channels,
// reporting whether any merge committed.
//
// The legality probes (each a full activation-channel removal plus
// CH-to-BM compilation) dominate clustering time, so they are fanned
// out across the worker pool. Commit order is kept identical to the
// sequential algorithm: the remaining channels are evaluated in
// parallel against the current netlist, the first committable one (in
// channel order) commits, and the channels after it are re-evaluated
// against the updated netlist — exactly the states the sequential
// sweep would have probed, so merges, skips and the final netlist are
// byte-for-byte the same at any worker count.
func t1SweepRef(out *Netlist, rep *Report, opt Options) (bool, error) {
	channels, err := out.InternalPToP()
	if err != nil {
		return false, err
	}
	anyMerge := false
	for i := 0; i < len(channels); {
		uses, err := out.ChannelUses()
		if err != nil {
			return false, err
		}
		rest := channels[i:]
		cands, err := parallel.MapCtx(opt.ctx(), opt.Pool, len(rest), func(k int) (t1Candidate, error) {
			return t1EvaluateRef(out, rest[k], uses, opt), nil
		})
		if err != nil {
			return false, err
		}
		committed := -1
		for k, cand := range cands {
			if cand.merged == nil {
				rep.Skipped = append(rep.Skipped, rest[k])
				continue
			}
			// Commit: replace x and y with the merged component.
			out.remove(cand.xName)
			out.remove(cand.yName)
			out.Components = append(out.Components, cand.merged)
			for orig, cont := range rep.Containment {
				if cont == cand.yName || cont == cand.xName {
					rep.Containment[orig] = cand.merged.Name
				}
			}
			rep.Merges = append(rep.Merges, Merge{
				Channel: rest[k], Activator: cand.xName, Activated: cand.yName, Result: cand.merged.Name,
			})
			anyMerge = true
			committed = k
			break
		}
		if committed < 0 {
			break // every remaining channel skipped; sweep is done
		}
		i += committed + 1
	}
	return anyMerge, nil
}

// SplitCalls splits every call component of n into its fragments, as
// the first T2 round does before handing the netlist to T1.
func SplitCalls(n *Netlist) *Netlist {
	out := &Netlist{}
	var frags []*ch.Program
	for _, c := range n.Clone().Components {
		if passives, active, ok := callShape(c); ok {
			frags = append(frags, splitCall(c, passives, active)...)
		} else {
			out.Components = append(out.Components, c)
		}
	}
	out.Components = append(out.Components, frags...)
	return out
}
