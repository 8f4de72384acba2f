package flow

import (
	"context"
	"fmt"
	"strings"
	"time"

	"balsabm/internal/bm"
	"balsabm/internal/ch"
	"balsabm/internal/chtobm"
	"balsabm/internal/core"
	"balsabm/internal/gates"
	"balsabm/internal/hazver"
	"balsabm/internal/hclib"
	"balsabm/internal/minimalist"
	"balsabm/internal/techmap"
)

// HazverError aborts a flow run: the static gate-level hazard
// verification found an error-severity diagnostic in one arm — a
// specified burst on which the mapped logic can glitch (HZ001/HZ002)
// or disagrees with its specification at a burst endpoint (HZ003), so
// the measured hardware would not be hazard-free.
type HazverError struct {
	Design string
	Arm    string // "unopt" or "opt"
	Diags  []hazver.Diag
}

func (e *HazverError) Error() string {
	var sb strings.Builder
	sb.WriteString("hazver: ")
	sb.WriteString(e.Circuit())
	sb.WriteString(": ")
	if len(e.Diags) == 1 {
		sb.WriteString(e.Diags[0].String())
	} else {
		sb.WriteString("static hazard verification failed:")
		for _, d := range e.Diags {
			sb.WriteString("\n\t")
			sb.WriteString(d.String())
		}
	}
	return sb.String()
}

// Circuit names the verified circuit, e.g. "stack.opt".
func (e *HazverError) Circuit() string { return e.Design + "." + e.Arm }

// HazverFinding is one non-error hazard-verification finding surfaced
// by the post-mapping gate, tagged with the circuit it was found in.
type HazverFinding struct {
	Design string
	Arm    string
	Diag   hazver.Diag
}

// Circuit names the verified circuit, e.g. "stack.opt".
func (f HazverFinding) Circuit() string { return f.Design + "." + f.Arm }

// hazverUnits derives the verification units of one arm from the
// netlists it ships: one unit per distinct canonical controller shape
// (rename-isomorphic components verify identically, so each shape is
// proved once on its first component). A unit pairs the component's
// encoding — the burst provenance, from chtobm.Compile and
// minimalist.Encode, no minimization — with the component's own
// netlist from mapped, which is byte-identical to direct synthesis
// whether it was synthesized, reused in-run or spliced from the
// controller cache.
//
// The one exception is the baseline arm's hand-library shapes: hclib
// circuits use internal state the Burst-Mode specification does not
// name, so the unit verifies the synthesized AreaShared circuit in
// their place (their hazard freedom is established dynamically by the
// benchmark simulations). Those are the gate's only syntheses, shared
// across the run by hazverSynth.
func (r *runner) hazverUnits(n *core.Netlist, mapped []*gates.Netlist, mode techmap.Mode) ([]hazver.Unit, error) {
	if len(mapped) != len(n.Components) {
		return nil, fmt.Errorf("hazver: %d mapped netlists for %d components", len(mapped), len(n.Components))
	}
	seen := map[string]bool{}
	var units []hazver.Unit
	for i, comp := range n.Components {
		if err := r.ctx.Err(); err != nil {
			return nil, err
		}
		key := "raw|" + comp.Name
		canon, ok := ch.CanonicalizeProgram(comp)
		if ok {
			key = canon.Key
		}
		if seen[key] {
			continue
		}
		seen[key] = true
		sp, err := chtobm.Compile(comp)
		if err != nil {
			return nil, fmt.Errorf("hazver: %s: %w", comp.Name, err)
		}
		enc, err := minimalist.Encode(sp)
		if err != nil {
			return nil, fmt.Errorf("hazver: %s: %w", comp.Name, err)
		}
		nl := mapped[i]
		if mode == techmap.AreaShared {
			if _, ok := hclib.Build(comp); ok {
				if nl, err = r.hazverSynth(comp.Name, sp, canon, mode); err != nil {
					return nil, err
				}
			}
		}
		units = append(units, hazver.Unit{
			Name:        comp.Name,
			Vars:        enc.Vars,
			Outputs:     sp.Outputs,
			StateBits:   enc.StateBits,
			Transitions: enc.Transitions,
			Netlist:     nl,
		})
	}
	return units, nil
}

// hazverSynth synthesizes and maps a component's compiled spec for
// verification only, through the run's single-flight hazver memo keyed
// by mode and canonical shape, so one RunAll synthesizes each shape
// once however many designs carry it; the cached netlist is spliced
// onto the component exactly as the synthesis cache splices.
// Components the canonicalizer rejects (nil canon) bypass the memo.
// The memo is separate from the synthesis cache and leaves its
// hit/miss counters alone: nothing it holds ships.
func (r *runner) hazverSynth(name string, sp *bm.Spec, canon *ch.CanonicalForm, mode techmap.Mode) (*gates.Netlist, error) {
	synth := func() (*gates.Netlist, error) {
		ctrl, err := minimalist.SynthesizeOpt(sp, minimalist.Options{Pool: r.pool, Ctx: r.ctx})
		if err != nil {
			return nil, fmt.Errorf("hazver: %s: %w", name, err)
		}
		nl, err := techmap.MapController(ctrl, mode, r.opt.Lib)
		if err != nil {
			return nil, fmt.Errorf("hazver: %s: %w", name, err)
		}
		return nl, nil
	}
	if canon == nil {
		return synth()
	}
	e, _, err := r.hazverMemo.Do(fmt.Sprintf("%s|%s", mode, canon.Key), func() (*synthEntry, error) {
		nl, err := synth()
		if err != nil {
			return nil, err
		}
		return &synthEntry{wires: canon.Wires, netlist: nl}, nil
	})
	if err != nil {
		return nil, err
	}
	return e.splice(name, canon.Wires), nil
}

// hazverAudit is the whole post-mapping hazard verification of one
// arm — unit derivation plus hazver.Audit — timed as the "hazver"
// stage, so -stats and the daemon's stage timings show everything the
// gate does.
func (r *runner) hazverAudit(design, arm string, n *core.Netlist, mapped []*gates.Netlist, mode techmap.Mode) (hazver.Result, error) {
	start := time.Now()
	defer func() { r.met.Timings.Observe("hazver", time.Since(start)) }()
	units, err := r.hazverUnits(n, mapped, mode)
	if err != nil {
		return hazver.Result{}, err
	}
	return hazver.Audit(design+"."+arm, units, r.opt.Lib, hazver.Options{Pool: r.pool, Ctx: r.ctx}), nil
}

// HazverNetlist statically verifies every controller of a control
// netlist for hazard freedom on its specified input bursts: the
// netlist is synthesized and mapped in the given mode once, as the
// flow would ship it, and each distinct canonical shape's mapped logic
// is checked by two-pass ternary evaluation (hazver.Audit). Unlike the
// flow gate, error findings do not abort: the report is the product.
// Callers wanting the optimized arm cluster the netlist first
// (core.OptimizeOpt) and pass techmap.SpeedSplit.
func HazverNetlist(ctx context.Context, design, arm string, n *core.Netlist, mode techmap.Mode, opt *Options) (hazver.Result, error) {
	r := newRunner(ctx, opt)
	mapped, _, err := r.synthesizeNetlist(n, mode)
	if err != nil {
		return hazver.Result{}, err
	}
	return r.hazverAudit(design, arm, n, mapped, mode)
}

// hazverGate is the post-mapping gate inside runDesign: after an arm's
// controllers are mapped and the merged circuit passes netlint, the
// mapped logic of every controller shape the arm ships is statically
// verified hazard-free on its specified bursts. Error findings abort
// the arm as a *HazverError; warnings and the HZ200 static report land
// on the metrics sink (shown by -stats, streamed on the daemon's
// "lint" SSE stage) and never block. The full audit result is returned
// either way so callers can report it.
func (r *runner) hazverGate(design, arm string, n *core.Netlist, mapped []*gates.Netlist, mode techmap.Mode) (hazver.Result, error) {
	res, err := r.hazverAudit(design, arm, n, mapped, mode)
	if err != nil {
		return hazver.Result{}, err
	}
	var errs []hazver.Diag
	for _, d := range res.Diags {
		if d.Severity == hazver.SevError {
			errs = append(errs, d)
		} else {
			r.met.recordHazver(HazverFinding{Design: design, Arm: arm, Diag: d})
		}
	}
	if len(errs) > 0 {
		return res, &HazverError{Design: design, Arm: arm, Diags: errs}
	}
	return res, nil
}

// HazverGate runs the post-mapping static hazard gate the way the
// flow's runDesign does, for callers outside a flow run (the daemon's
// synth executor): mapped are the arm's netlists, one per component of
// n in order, as SynthesizeNetlistCtx returned them. Error findings
// abort as a *HazverError; warnings and the HZ200 report land on
// opt.Metrics and never block.
func HazverGate(ctx context.Context, design, arm string, n *core.Netlist, mapped []*gates.Netlist, mode techmap.Mode, opt *Options) (hazver.Result, error) {
	return newRunner(ctx, opt).hazverGate(design, arm, n, mapped, mode)
}
