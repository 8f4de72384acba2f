package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"balsabm/internal/bm"
	"balsabm/internal/cell"
	"balsabm/internal/ch"
	"balsabm/internal/chtobm"
	"balsabm/internal/core"
	"balsabm/internal/designs"
	"balsabm/internal/dpath"
	"balsabm/internal/flow"
	"balsabm/internal/gates"
	"balsabm/internal/hazver"
	"balsabm/internal/hclib"
	"balsabm/internal/minimalist"
	"balsabm/internal/netlint"
	"balsabm/internal/parallel"
	"balsabm/internal/sim"
	"balsabm/internal/techmap"
)

// The traced run replays an op layer by layer, in the order the flow's
// runDesign (and the daemon's runSynth) call them, at Workers 1, with a
// span around every call into a layer's public entry point:
//
//	balsa.CompileSource → flow.LintNetlist → core.OptimizeOpt →
//	flow.BmlintGate → per distinct canonical shape: chtobm.Compile /
//	hclib.Build / minimalist.SynthesizeOpt / techmap.MapController /
//	techmap.CheckMappedOpt → flow.NetlintGate → the hazver gate's
//	private re-synthesis per shape, then hazver.Audit →
//	sim.New / Init / Run + bench.Validate.
//
// The two arms of a design run one after the other, so spans never
// overlap and an op's layer self times add up to its duration.

// Flow settings the replay shares with flow.Options' defaults.
const (
	simTimeLimit  = 5e6
	simEventLimit = 100_000_000
)

// minTracedOps is the least number of ops a traced run replays.
const minTracedOps = 3

// counters are the per-layer counts a traced run sums over its ops.
type counters struct {
	merges, controllersOut    int64
	bmStates                  int64
	functions, exactFunctions int64
	enumNodes, branchNodes    int64
	cells                     int64
	hazverUnits               int64
	events                    int64
	memoHits, memoMisses      int64
	reused, resynthesized     int64
	ctlGets, ctlHits          int64
	jobs, cachedJobs          int64
}

func (c *counters) addMinimizer(st minimalist.Stats) {
	c.functions += int64(st.Functions)
	c.exactFunctions += int64(st.ExactFunctions)
	c.enumNodes += st.EnumNodes
	c.branchNodes += st.BranchNodes
}

func (c *counters) addFlowMetrics(m *flow.Metrics) {
	c.memoHits += m.CacheHits.Load()
	c.memoMisses += m.CacheMisses.Load()
	c.reused += m.ControllersReused.Load()
	c.resynthesized += m.ControllersResynthesized.Load()
}

// tracedResult is what a workload's traced run hands back.
type tracedResult struct {
	ops        int
	failed     int
	mismatches int
	c          counters
	// coverage holds, per op, the layer-covered time over the untraced
	// latency of the same op at Workers 1.
	coverage []float64
}

// record books one traced op's outcome.
func (r *tracedResult) record(err error) {
	r.ops++
	if err != nil {
		r.failed++
		if isMismatch(err) {
			r.mismatches++
		}
		fmt.Fprintf(os.Stderr, "perfbench: traced op %d: %v\n", r.ops-1, err)
	}
}

// memoEntry is one in-run synthesis the replay reuses for
// rename-isomorphic components, like the flow's canonical-form memo.
type memoEntry struct {
	wires []string
	nl    *gates.Netlist
	res   flow.ControllerResult
}

// replay is the layer-by-layer reconstruction of one flow run.
type replay struct {
	ctx  context.Context
	tr   *tracer
	lib  *cell.Library
	pool *parallel.Pool
	met  *flow.Metrics // sink for the gates' non-error findings
	memo map[string]*memoEntry
	c    *counters
}

func newReplay(ctx context.Context, tr *tracer, lib *cell.Library, pool *parallel.Pool, c *counters) *replay {
	return &replay{ctx: ctx, tr: tr, lib: lib, pool: pool, met: &flow.Metrics{}, memo: map[string]*memoEntry{}, c: c}
}

// runDesign replays flow.RunDesign for one design: the unoptimized arm,
// then the optimized one.
func (p *replay) runDesign(d *designs.Design) (*flow.DesignResult, error) {
	if err := p.tr.do("analysis", func() error { return flow.LintNetlist(d.Control(), d.Name, p.met) }); err != nil {
		return nil, err
	}
	res := &flow.DesignResult{Design: d.Name}
	var err error
	res.Unopt, res.Bench, err = p.arm(d, "unopt", d.Control(), techmap.AreaShared)
	if err != nil {
		return nil, fmt.Errorf("%s: unoptimized arm: %w", d.Name, err)
	}
	var clustered *core.Netlist
	err = p.tr.do("core", func() error {
		var err error
		clustered, res.Report, err = core.OptimizeOpt(d.Control(), core.Options{Pool: p.pool, Ctx: p.ctx})
		return err
	})
	if err != nil {
		return nil, fmt.Errorf("%s: clustering: %w", d.Name, err)
	}
	p.c.merges += int64(len(res.Report.Merges))
	p.c.controllersOut += int64(len(clustered.Components))
	res.Opt, _, err = p.arm(d, "opt", clustered, techmap.SpeedSplit)
	if err != nil {
		return nil, fmt.Errorf("%s: optimized arm: %w", d.Name, err)
	}
	return res, nil
}

// arm replays one flow arm: bmlint gate, synthesis, netlint gate,
// hazver gate, benchmark simulation.
func (p *replay) arm(d *designs.Design, arm string, n *core.Netlist, mode techmap.Mode) (flow.ArmResult, string, error) {
	var a flow.ArmResult
	if err := p.tr.do("bmlint", func() error { _, err := flow.BmlintGate(d.Name, arm, n, p.met); return err }); err != nil {
		return a, "", err
	}
	mapped, ctrls, err := p.synthesizeNetlist(n, mode)
	if err != nil {
		return a, "", err
	}
	a.Controllers = ctrls
	for _, c := range ctrls {
		a.ControlArea += c.Area
	}
	if a.Static, err = p.netlint(d.Name, arm, mapped); err != nil {
		return a, "", err
	}
	if err := p.hazver(d.Name, arm, n, mode); err != nil {
		return a, "", err
	}
	desc, err := p.simulate(d, mapped, &a)
	return a, desc, err
}

// synthesizeNetlist maps every component, synthesizing each distinct
// canonical shape once and splicing later occurrences in by renaming
// the shape's channel wires. (The flow also renames techmap's helper
// nets; those are private to each controller, so the spliced circuit
// is the same circuit.)
func (p *replay) synthesizeNetlist(n *core.Netlist, mode techmap.Mode) ([]*gates.Netlist, []flow.ControllerResult, error) {
	mapped := make([]*gates.Netlist, len(n.Components))
	results := make([]flow.ControllerResult, len(n.Components))
	for i, comp := range n.Components {
		var canon *ch.CanonicalForm
		var key string
		var entry *memoEntry
		p.tr.do("flow", func() error {
			var ok bool
			canon, ok = ch.CanonicalizeProgram(comp)
			if ok {
				key = fmt.Sprintf("%s|audit=true|%s", mode, canon.Key)
				entry = p.memo[key]
			}
			return nil
		})
		if entry == nil {
			nl, res, err := p.synthesize(comp, mode)
			if err != nil {
				return nil, nil, err
			}
			mapped[i], results[i] = nl, res
			if key != "" {
				p.memo[key] = &memoEntry{wires: canon.Wires, nl: nl, res: res}
			}
			continue
		}
		p.tr.do("flow", func() error {
			sub := map[string]string{}
			for k, w := range entry.wires {
				if w != canon.Wires[k] {
					sub[w] = canon.Wires[k]
				}
			}
			mapped[i] = entry.nl.Rename(comp.Name, sub)
			results[i] = entry.res
			results[i].Name = comp.Name
			return nil
		})
	}
	return mapped, results, nil
}

// synthesize is one controller's pipeline: compile to Burst-Mode, the
// hand library (baseline arm) or two-level minimization, mapping, and
// the sampling audit of the optimized arm.
func (p *replay) synthesize(comp *ch.Program, mode techmap.Mode) (*gates.Netlist, flow.ControllerResult, error) {
	res := flow.ControllerResult{Name: comp.Name}
	var sp *bm.Spec
	if err := p.tr.do("chtobm", func() error {
		var err error
		sp, err = chtobm.Compile(comp)
		return err
	}); err != nil {
		return nil, res, fmt.Errorf("%s: %w", comp.Name, err)
	}
	p.c.bmStates += int64(sp.NStates)
	res.States = sp.NStates
	if mode == techmap.AreaShared {
		var nl *gates.Netlist
		var ok bool
		p.tr.do("hclib", func() error {
			nl, ok = hclib.Build(comp)
			if ok {
				res.Cells, res.Area, res.Critical, res.Exact = len(nl.Instances), nl.Area(p.lib), nl.CriticalDelay(p.lib), true
			}
			return nil
		})
		if ok {
			return nl, res, nil
		}
	}
	var ctrl *minimalist.Controller
	if err := p.tr.do("minimalist", func() error {
		var err error
		ctrl, err = minimalist.SynthesizeOpt(sp, minimalist.Options{Pool: p.pool, Ctx: p.ctx})
		return err
	}); err != nil {
		return nil, res, fmt.Errorf("%s: %w", comp.Name, err)
	}
	p.c.addMinimizer(ctrl.Stats)
	var nl *gates.Netlist
	if err := p.tr.do("techmap.map", func() error {
		var err error
		nl, err = techmap.MapController(ctrl, mode, p.lib)
		if err == nil {
			res.StateBits, res.Products, res.Cells = ctrl.StateBits, ctrl.Products(), len(nl.Instances)
			res.Area, res.Critical, res.Exact = nl.Area(p.lib), nl.CriticalDelay(p.lib), ctrl.Stats.Exact()
		}
		return err
	}); err != nil {
		return nil, res, fmt.Errorf("%s: %w", comp.Name, err)
	}
	p.c.cells += int64(len(nl.Instances))
	if mode == techmap.SpeedSplit {
		if err := p.tr.do("techmap.audit", func() error {
			return techmap.CheckMappedOpt(ctrl, nl, p.lib, techmap.CheckOptions{Pool: p.pool, Ctx: p.ctx})
		}); err != nil {
			return nil, res, fmt.Errorf("hazard audit: %w", err)
		}
	}
	return nl, res, nil
}

// netlint replays the post-merge gate.
func (p *replay) netlint(design, arm string, mapped []*gates.Netlist) (st netlint.Stats, err error) {
	err = p.tr.do("netlint", func() error {
		res, err := flow.NetlintGate(design, arm, mapped, p.lib, p.met)
		st = res.Stats
		return err
	})
	return st, err
}

// hazver replays the post-mapping gate the way flow's hazver gate runs
// it: every distinct canonical shape is compiled, minimized and mapped
// again in the arm's mode (its own synthesis, apart from the arm's —
// the cost the flow's stage timers do not show), then the units are
// audited together.
func (p *replay) hazver(design, arm string, n *core.Netlist, mode techmap.Mode) error {
	var units []hazver.Unit
	err := p.tr.do("hazver.resynth", func() error {
		seen := map[string]bool{}
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
				return fmt.Errorf("hazver: %s: %w", comp.Name, err)
			}
			ctrl, err := minimalist.SynthesizeOpt(sp, minimalist.Options{Pool: p.pool, Ctx: p.ctx})
			if err != nil {
				return fmt.Errorf("hazver: %s: %w", comp.Name, err)
			}
			nl, err := techmap.MapController(ctrl, mode, p.lib)
			if err != nil {
				return fmt.Errorf("hazver: %s: %w", comp.Name, err)
			}
			units = append(units, hazver.Unit{
				Name: comp.Name, Vars: ctrl.Vars, Outputs: ctrl.Spec.Outputs,
				StateBits: ctrl.StateBits, Transitions: ctrl.Transitions, Netlist: nl,
			})
		}
		return nil
	})
	if err != nil {
		return err
	}
	p.c.hazverUnits += int64(len(units))
	return p.tr.do("hazver.audit", func() error {
		res := hazver.Audit(design+"."+arm, units, p.lib, hazver.Options{Pool: p.pool, Ctx: p.ctx})
		if hazver.HasErrors(res.Diags) {
			return fmt.Errorf("hazver: %s.%s: %d error findings", design, arm, len(res.Diags))
		}
		return nil
	})
}

// simulate replays one arm's benchmark simulation.
func (p *replay) simulate(d *designs.Design, mapped []*gates.Netlist, a *flow.ArmResult) (string, error) {
	var s *sim.Simulator
	var b *dpath.Builder
	var bench *designs.BenchRun
	if err := p.tr.do("sim.init", func() error {
		s = sim.New(p.lib)
		for _, nl := range mapped {
			s.AddNetlist(nl, nl.Name, nil)
		}
		b = dpath.NewBuilder(s)
		d.Datapath(b)
		bench = d.Bench(b)
		return s.Init()
	}); err != nil {
		return "", err
	}
	err := p.tr.do("sim.run", func() error {
		bench.Start()
		for !bench.Done() {
			if err := p.ctx.Err(); err != nil {
				return err
			}
			if err := s.Run(simTimeLimit, simEventLimit); err != nil {
				return err
			}
			if !bench.Done() && s.Quiet() {
				return fmt.Errorf("%s: deadlock at %.2f ns (benchmark incomplete)", d.Name, s.Time)
			}
		}
		if err := bench.Validate(); err != nil {
			return fmt.Errorf("%s: functional check failed: %w", d.Name, err)
		}
		return nil
	})
	if err != nil {
		return "", err
	}
	a.BenchTime, a.DatapathArea, a.Events = s.Time, b.Area, s.Events
	p.c.events += s.Events
	return bench.Description, nil
}

// sameDesignResult reports whether the replay reproduced the flow's
// numbers for a design.
func sameDesignResult(got, want *flow.DesignResult) error {
	for _, arm := range []struct {
		name      string
		got, want flow.ArmResult
	}{{"unopt", got.Unopt, want.Unopt}, {"opt", got.Opt, want.Opt}} {
		g, w := arm.got, arm.want
		if g.BenchTime != w.BenchTime || g.ControlArea != w.ControlArea || g.DatapathArea != w.DatapathArea || g.Events != w.Events || len(g.Controllers) != len(w.Controllers) {
			return mismatchf("%s.%s: traced replay gives time %.4f area %.4f+%.4f events %d controllers %d, the flow %.4f %.4f+%.4f %d %d",
				got.Design, arm.name, g.BenchTime, g.ControlArea, g.DatapathArea, g.Events, len(g.Controllers),
				w.BenchTime, w.ControlArea, w.DatapathArea, w.Events, len(w.Controllers))
		}
	}
	return nil
}

// tracedDesigns is the traced run of table3 and ssem-sim. Each
// iteration replays one op (every design of next(i)) with spans, then
// runs the same op untraced through the flow at Workers 1: that run
// supplies the flow's own counters (the in-run memo), the reference the
// replay must reproduce, and the denominator of trace.coverage.
func tracedDesigns(ctx context.Context, tr *tracer, seconds float64, lib *cell.Library, next func(i int) []*designs.Design,
	check func([]*flow.DesignResult) error) (*tracedResult, error) {
	pool := parallel.NewPool(1)
	out := &tracedResult{}
	if _, err := runFlow(ctx, next(0), lib, nil); err != nil { // warm-up: lazy tables fill untraced
		return nil, err
	}
	deadline := time.Now().Add(time.Duration(seconds * float64(time.Second)))
	for i := 0; i < minTracedOps || time.Now().Before(deadline); i++ {
		ds := next(i)
		tr.setOp(i)
		p := newReplay(ctx, tr, lib, pool, &out.c)
		root := tr.begin("op")
		var got []*flow.DesignResult
		var err error
		for _, d := range ds {
			var r *flow.DesignResult
			if r, err = p.runDesign(d); err != nil {
				break
			}
			got = append(got, r)
		}
		tr.end(root)
		if err == nil {
			err = check(got)
		}
		met := &flow.Metrics{}
		start := time.Now()
		want, ferr := runFlow(ctx, ds, lib, met)
		lat := time.Since(start)
		out.c.addFlowMetrics(met)
		if err == nil && ferr != nil {
			err = ferr
		}
		for k := 0; err == nil && k < len(got); k++ {
			err = sameDesignResult(got[k], want[k])
		}
		out.record(err)
		if err == nil {
			out.coverage = append(out.coverage, float64(tr.covered()[i])/float64(lat))
		}
	}
	return out, nil
}

// runFlow runs the flow at Workers 1 on a list of designs: RunAll for
// the Table 3 set (one runner shares its memo across the designs),
// RunDesign for a single design.
func runFlow(ctx context.Context, ds []*designs.Design, lib *cell.Library, met *flow.Metrics) ([]*flow.DesignResult, error) {
	opt := &flow.Options{Lib: lib, Workers: 1, Metrics: met}
	if len(ds) == 1 {
		r, err := flow.RunDesignCtx(ctx, ds[0], opt)
		return []*flow.DesignResult{r}, err
	}
	return flow.RunAllCtx(ctx, opt)
}

func tracedTable3(ctx context.Context, _ *env, tr *tracer, seconds float64) (*tracedResult, error) {
	want, order, err := parseTable3Expected(table3Expected)
	if err != nil {
		return nil, err
	}
	all := designs.All()
	return tracedDesigns(ctx, tr, seconds, cell.AMS035(), func(int) []*designs.Design { return all },
		func(rs []*flow.DesignResult) error { _, err := checkTable3(rs, want, order); return err })
}

func tracedSSEM(ctx context.Context, e *env, tr *tracer, seconds float64) (*tracedResult, error) {
	ds, err := genSSEMDesigns(e.seed)
	if err != nil {
		return nil, err
	}
	return tracedDesigns(ctx, tr, seconds, cell.AMS035(), func(i int) []*designs.Design { return ds[i%len(ds) : i%len(ds)+1] },
		func([]*flow.DesignResult) error { return nil })
}

// runTraced is the per-layer run: the workload's traced replay, its
// spans written out, and the per-layer metrics derived from them.
func runTraced(ctx context.Context, w *workload, e *env, seconds float64) (*report, error) {
	tr := newTracer()
	res, err := w.traced(ctx, e, tr, seconds)
	if err != nil {
		return nil, err
	}
	if err := tr.write(filepath.Join(e.workdir, fmt.Sprintf("trace-%s-seed%d.json", w.name, e.seed))); err != nil {
		return nil, err
	}
	return &report{
		Correct:   res.mismatches == 0,
		Attempted: res.ops,
		Failed:    res.failed,
		Metrics:   layerMetrics(tr.selfByName(), res),
	}, nil
}

// selfMetrics maps span names to the per-layer self-time metrics.
var selfMetrics = []struct{ span, metric string }{
	{"balsa", "balsa.self_ms"},
	{"analysis", "analysis.self_ms"},
	{"core", "core.self_ms"},
	{"bmlint", "bmlint.self_ms"},
	{"chtobm", "chtobm.self_ms"},
	{"minimalist", "minimalist.self_ms"},
	{"techmap.map", "techmap.map_self_ms"},
	{"techmap.audit", "techmap.audit_self_ms"},
	{"hclib", "hclib.self_ms"},
	{"flow", "flow.self_ms"},
	{"netlint", "netlint.self_ms"},
	{"hazver.resynth", "hazver.resynth_ms"},
	{"hazver.audit", "hazver.audit_ms"},
	{"sim.init", "sim.init_ms"},
	{"sim.run", "sim.run_ms"},
	{"store.ctl_get", "store.ctl_get_ms"},
	{"store.ctl_put", "store.ctl_put_ms"},
	{"server.queue_wait", "server.queue_wait_ms"},
	{"server.run", "server.run_ms"},
	{"server.client", "server.client_ms"},
	{"api.encode", "api.encode_ms"},
}

func ratio(num, den int64) float64 {
	if den == 0 {
		return 0
	}
	return float64(num) / float64(den)
}

// layerMetrics turns span self times and counts into per-op metrics. A
// layer a workload never calls reports 0.
func layerMetrics(self map[string]time.Duration, r *tracedResult) map[string]metric {
	ops := float64(r.ops)
	if ops == 0 {
		ops = 1
	}
	m := map[string]metric{}
	for _, sm := range selfMetrics {
		m[sm.metric] = metric{float64(self[sm.span]) / float64(time.Millisecond) / ops, "ms"}
	}
	c := r.c
	perOp := func(v int64) float64 { return float64(v) / ops }
	eventsPerS := 0.0
	if run := self["sim.run"]; run > 0 {
		eventsPerS = float64(c.events) / run.Seconds()
	}
	for k, v := range map[string]metric{
		"core.merges":                    {perOp(c.merges), "count"},
		"core.controllers_out":           {perOp(c.controllersOut), "count"},
		"chtobm.bm_states":               {perOp(c.bmStates), "count"},
		"minimalist.functions":           {perOp(c.functions), "count"},
		"hfmin.enum_nodes":               {perOp(c.enumNodes), "count"},
		"hfmin.branch_nodes":             {perOp(c.branchNodes), "count"},
		"hfmin.exact_ratio":              {ratio(c.exactFunctions, c.functions), "ratio"},
		"techmap.cells":                  {perOp(c.cells), "count"},
		"flow.memo_hit_ratio":            {ratio(c.memoHits, c.memoHits+c.memoMisses), "ratio"},
		"flow.controllers_reused":        {perOp(c.reused), "count"},
		"flow.controllers_resynthesized": {perOp(c.resynthesized), "count"},
		"hazver.units":                   {perOp(c.hazverUnits), "count"},
		"sim.events":                     {perOp(c.events), "count"},
		"sim.events_per_s":               {eventsPerS, "1/s"},
		"store.ctl_hit_ratio":            {ratio(c.ctlHits, c.ctlGets), "ratio"},
		"server.result_cache_ratio":      {ratio(c.cachedJobs, c.jobs), "ratio"},
		"trace.coverage":                 {median(r.coverage), "ratio"},
	} {
		m[k] = v
	}
	return m
}
