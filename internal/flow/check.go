package flow

import (
	"context"
	"fmt"
	"strings"
	"time"

	"balsabm/internal/analysis"
	"balsabm/internal/bmlint"
	"balsabm/internal/cell"
	"balsabm/internal/chtobm"
	"balsabm/internal/core"
	"balsabm/internal/diag"
	"balsabm/internal/gates"
	"balsabm/internal/netlint"
	"balsabm/internal/techmap"
)

// Checker identifies one checker tier to the flow's gates. Name is the
// registry name (the checker label on findings, events and metrics);
// Gate names its gate: the stage the gate is timed as, the prefix of
// its abort messages and the CLI subcommand; Headline opens an abort
// that carries more than one finding.
type Checker struct {
	Name     string
	Gate     string
	Headline string
}

// The four checker tiers, in pipeline order.
var (
	Chlint  = Checker{Name: "chlint", Gate: "lint", Headline: "control netlist fails lint"}
	Bmlint  = Checker{Name: "bmlint", Gate: "bmlint", Headline: "compiled spec fails bmlint"}
	Netlint = Checker{Name: "netlint", Gate: "netlint", Headline: "merged circuit fails netlint"}
	Hazver  = Checker{Name: "hazver", Gate: "hazver", Headline: "static hazard verification failed"}
)

// Checkers lists the checker tiers in pipeline order.
var Checkers = []Checker{Chlint, Bmlint, Netlint, Hazver}

// Finding is one non-error diagnostic a gate recorded, tagged with its
// checker and the unit it was found in: a design for chlint, a spec
// ("stack.opt.push_seq1") for bmlint, a circuit ("stack.opt") for
// netlint and hazver.
type Finding struct {
	Checker Checker
	Unit    string
	Diag    diag.Diag[diag.Loc]
}

// GateError aborts a flow run: a gate found error-severity diagnostics
// in one unit — an unsynthesizable control netlist, an ill-formed
// Burst-Mode spec, a miswired merged circuit, or mapped logic that can
// glitch on a specified burst — so carrying on would measure broken
// hardware.
type GateError struct {
	Checker Checker
	Unit    string
	Diags   []diag.Diag[diag.Loc] // the error-severity findings only
}

func (e *GateError) Error() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%s: %s: ", e.Checker.Gate, e.Unit)
	if len(e.Diags) == 1 {
		sb.WriteString(e.Diags[0].String())
	} else {
		sb.WriteString(e.Checker.Headline)
		sb.WriteString(":")
		for _, d := range e.Diags {
			sb.WriteString("\n\t")
			sb.WriteString(d.String())
		}
	}
	return sb.String()
}

// classify splits one unit's diagnostics the gates' way: non-error
// findings are recorded on met (nil drops them), error findings are
// returned as a *GateError.
func classify[L diag.Loc](c Checker, unit string, ds []diag.Diag[L], met *Metrics) error {
	var errs []diag.Diag[diag.Loc]
	for _, d := range ds {
		if d.Severity == diag.SevError {
			errs = append(errs, diag.Erase(d))
		} else if met != nil {
			met.record(Finding{Checker: c, Unit: unit, Diag: diag.Erase(d)})
		}
	}
	if len(errs) > 0 {
		return &GateError{Checker: c, Unit: unit, Diags: errs}
	}
	return nil
}

// LintNetlist is the pre-synthesis gate: it runs every analyzer pass
// over the control netlist before any synthesis work starts. Error
// findings abort the run as a *GateError; warnings and advisories are
// recorded on the metrics sink (shown by -stats, streamed by the
// daemon's SSE brokers) and never block.
func LintNetlist(n *core.Netlist, design string, met *Metrics) error {
	start := time.Now()
	diags := analysis.Analyze(n)
	if met != nil {
		met.Timings.Observe(Chlint.Gate, time.Since(start))
	}
	return classify(Chlint, design, diags, met)
}

// BmlintNetlist compiles every component of a control netlist to its
// Burst-Mode specification (chtobm.CompileLoose, so even specs the
// final Check would reject reach the analyzer) and audits each,
// returning one result per component in netlist order. Unlike the
// flow gate, error findings do not abort: the report is the product.
func BmlintNetlist(n *core.Netlist) ([]bmlint.Result, error) {
	results := make([]bmlint.Result, 0, len(n.Components))
	for _, p := range n.Components {
		sp, err := chtobm.CompileLoose(p)
		if err != nil {
			return nil, fmt.Errorf("bmlint: %s: %w", p.Name, err)
		}
		results = append(results, bmlint.Audit(sp))
	}
	return results, nil
}

// BmlintGate audits every compiled spec of an arm's control netlist
// the way the flow's post-compile gate does: error findings abort as
// a *GateError for the first failing spec ("<design>.<arm>.<spec>");
// warnings and the BM200 complexity report are recorded on the metrics
// sink and never block. It runs sequentially over the netlist (the
// specs are cheap to compile), so recorded findings are in
// deterministic netlist order at any worker count. The per-component
// audit results are returned either way so callers can report them.
func BmlintGate(design, arm string, n *core.Netlist, met *Metrics) ([]bmlint.Result, error) {
	start := time.Now()
	results, err := BmlintNetlist(n)
	if met != nil {
		met.Timings.Observe(Bmlint.Gate, time.Since(start))
	}
	if err != nil {
		return nil, err
	}
	return results, bmlintClassify(design, arm, results, met)
}

// bmlintClassify classifies each spec's audit the gate's way and
// returns the abort of the first failing spec.
func bmlintClassify(design, arm string, results []bmlint.Result, met *Metrics) error {
	var first error
	for _, res := range results {
		if err := classify(Bmlint, design+"."+arm+"."+res.Name, res.Diags, met); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// NetlintMerged merges one arm's mapped controllers into a single
// circuit (gates.Merge — the same wiring the simulator builds) and
// audits it, returning diagnostics plus the static area/depth report.
func NetlintMerged(design, arm string, mapped []*gates.Netlist, lib *cell.Library) netlint.Result {
	return netlint.Audit(gates.Merge(design+"."+arm, mapped), lib)
}

// NetlintGate audits the merged circuit of an arm's mapped controllers
// the way the flow's post-merge gate does: error findings abort as a
// *GateError; warnings and the NL200 static report are recorded on the
// metrics sink and never block. The full audit result is returned
// either way so callers can report it.
func NetlintGate(design, arm string, mapped []*gates.Netlist, lib *cell.Library, met *Metrics) (netlint.Result, error) {
	start := time.Now()
	res := NetlintMerged(design, arm, mapped, lib)
	if met != nil {
		met.Timings.Observe(Netlint.Gate, time.Since(start))
	}
	return res, classify(Netlint, res.Name, res.Diags, met)
}

// NetlintNetlist maps every component of a control netlist (no
// simulation, no benchmark) and audits each mapped controller plus the
// merged circuit, naming them "<design>.<arm>.<controller>" and
// "<design>.<arm>". Unlike the flow gate, error findings do not abort:
// the report is the product. Callers wanting the optimized arm cluster
// the netlist first (core.OptimizeOpt) and pass techmap.SpeedSplit.
func NetlintNetlist(ctx context.Context, design, arm string, n *core.Netlist, mode techmap.Mode, opt *Options) ([]netlint.Result, netlint.Result, error) {
	r := newRunner(ctx, opt)
	mapped, _, err := r.synthesizeNetlist(n, mode)
	if err != nil {
		return nil, netlint.Result{}, err
	}
	start := time.Now()
	ctrls := r.netlintControllers(design, arm, mapped)
	merged := NetlintMerged(design, arm, mapped, r.opt.Lib)
	r.met.Timings.Observe(Netlint.Gate, time.Since(start))
	return ctrls, merged, nil
}

// netlintControllers audits each mapped controller of an arm on its
// own, named "<design>.<arm>.<controller>".
func (r *runner) netlintControllers(design, arm string, mapped []*gates.Netlist) []netlint.Result {
	ctrls := make([]netlint.Result, 0, len(mapped))
	for _, nl := range mapped {
		res := netlint.Audit(nl, r.opt.Lib)
		res.Name = design + "." + arm + "." + nl.Name
		ctrls = append(ctrls, res)
	}
	return ctrls
}
