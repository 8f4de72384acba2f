package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"sync/atomic"
	"time"

	"balsabm/internal/api"
	"balsabm/internal/balsa"
	"balsabm/internal/cell"
	"balsabm/internal/ch"
	"balsabm/internal/core"
	"balsabm/internal/flow"
	"balsabm/internal/gates"
	"balsabm/internal/parallel"
	"balsabm/internal/store"
	"balsabm/internal/techmap"
)

// timedCache decorates a controller cache (the store) with a span per
// call, so the traced run sees the store tier inside the flow's
// synthesis. It uses only the flow.ControllerCache interface.
type timedCache struct {
	inner      flow.ControllerCache
	tr         atomic.Pointer[tracer]
	gets, hits atomic.Int64
}

func (c *timedCache) GetController(key string) ([]byte, bool) {
	start := time.Now()
	blob, ok := c.inner.GetController(key)
	c.tr.Load().add("store.ctl_get", start, time.Now())
	c.gets.Add(1)
	if ok {
		c.hits.Add(1)
	}
	return blob, ok
}

func (c *timedCache) PutController(key string, blob []byte) {
	start := time.Now()
	c.inner.PutController(key, blob)
	c.tr.Load().add("store.ctl_put", start, time.Now())
}

// flowStageSpans names the spans carved from the flow's own leaf stage
// timers inside flow.SynthesizeNetlistCtx.
var flowStageSpans = map[string]string{
	"compile":    "chtobm",
	"hclib":      "hclib",
	"synthesize": "minimalist",
	"map":        "techmap.map",
	"audit":      "techmap.audit",
}

// synthCached replays the daemon's synthesis stage for a clustered
// netlist through the controller cache. It calls
// flow.SynthesizeNetlistCtx once per distinct canonical shape, in first
// appearance order, so at Workers 1 at most one controller synthesizes
// per call and the flow's leaf stage timers (compile, minimize, map,
// audit) are disjoint; they become the call's child spans beside the
// store's. Going through the flow is what keeps the cache's blob format
// the flow's own business.
func (p *replay) synthCached(n *core.Netlist, cache flow.ControllerCache) ([]*gates.Netlist, []flow.ControllerResult, error) {
	var order []string
	groups := map[string][]int{}
	for i, comp := range n.Components {
		key := "raw|" + comp.Name
		if canon, ok := ch.CanonicalizeProgram(comp); ok {
			key = canon.Key
		}
		if _, ok := groups[key]; !ok {
			order = append(order, key)
		}
		groups[key] = append(groups[key], i)
	}
	mapped := make([]*gates.Netlist, len(n.Components))
	results := make([]flow.ControllerResult, len(n.Components))
	for _, key := range order {
		idx := groups[key]
		sub := &core.Netlist{}
		for _, i := range idx {
			sub.Components = append(sub.Components, n.Components[i])
		}
		met := &flow.Metrics{}
		id := p.tr.begin("flow")
		nls, ctrls, err := flow.SynthesizeNetlistCtx(p.ctx, sub, techmap.SpeedSplit,
			&flow.Options{Lib: p.lib, Workers: 1, Metrics: met, Controllers: cache})
		for stage, st := range met.Timings.Snapshot() {
			if name, ok := flowStageSpans[stage]; ok {
				p.tr.carve(name, st.Total)
			}
		}
		p.tr.end(id)
		if err != nil {
			return nil, nil, err
		}
		p.c.addFlowMetrics(met)
		p.c.functions += met.MinimizeExact.Load() + met.MinimizeGreedy.Load()
		p.c.exactFunctions += met.MinimizeExact.Load()
		p.c.enumNodes += met.EnumNodes.Load()
		p.c.branchNodes += met.BranchNodes.Load()
		if met.ControllersResynthesized.Load() > 0 {
			p.c.bmStates += int64(ctrls[0].States)
			p.c.cells += int64(ctrls[0].Cells)
		}
		for k, i := range idx {
			mapped[i], results[i] = nls[k], ctrls[k]
		}
	}
	return mapped, results, nil
}

// replaySynth replays one KindSynth job (Balsa source, optimized mode)
// the way the daemon's runSynth executes it, and returns its quality.
func (p *replay) replaySynth(name, src string, cache flow.ControllerCache) (quality, error) {
	var n *core.Netlist
	if err := p.tr.do("balsa", func() error {
		hcn, err := balsa.CompileSource(src, name)
		if err != nil {
			return err
		}
		n, err = hcn.Control()
		return err
	}); err != nil {
		return quality{}, err
	}
	if err := p.tr.do("analysis", func() error { return flow.LintNetlist(n, "submitted", p.met) }); err != nil {
		return quality{}, err
	}
	if err := p.tr.do("core", func() error {
		var rep *core.Report
		var err error
		n, rep, err = core.OptimizeOpt(n, core.Options{MaxStates: editMaxStates, Workers: 1, Ctx: p.ctx})
		if err == nil {
			p.c.merges += int64(len(rep.Merges))
			p.c.controllersOut += int64(len(n.Components))
		}
		return err
	}); err != nil {
		return quality{}, err
	}
	if err := p.tr.do("bmlint", func() error { _, err := flow.BmlintGate("synth", api.ModeOpt, n, p.met); return err }); err != nil {
		return quality{}, err
	}
	mapped, ctrls, err := p.synthCached(n, cache)
	if err != nil {
		return quality{}, err
	}
	if _, err := p.netlint("synth", api.ModeOpt, mapped); err != nil {
		return quality{}, err
	}
	if err := p.hazver("synth", api.ModeOpt, n, techmap.SpeedSplit); err != nil {
		return quality{}, err
	}
	var q quality
	for _, c := range ctrls {
		q.area += c.Area
		q.delay += c.Critical
	}
	return q, nil
}

// tracedEdit is balsa-edit's traced run. Each op replays the next job
// of a client in process, layer by layer, against store A through the
// timing decorator; then the same job goes to an in-process daemon with
// store B, and its JobStatus stamps split the client-observed latency
// into queue wait, run time and the client's HTTP/JSON/polling time.
// Both stores see the same submissions in the same order, so their
// caches evolve alike. The daemon's untraced run time of a job that
// executed is the denominator of trace.coverage.
func tracedEdit(ctx context.Context, e *env, tr *tracer, seconds float64) (*tracedResult, error) {
	dirA := filepath.Join(e.workdir, "edit-trace-replay")
	if err := os.RemoveAll(dirA); err != nil {
		return nil, err
	}
	stA, err := store.Open(dirA, 0)
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dirA)
	defer stA.Close()
	d, err := startDaemon(filepath.Join(e.workdir, "edit-trace-daemon"))
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(d.store.Dir())
	defer d.stop()

	lib := cell.AMS035()
	pool := parallel.NewPool(1)
	out := &tracedResult{}
	cache := &timedCache{inner: stA}
	clients := newEditClients(e.seed)
	daemonReq := func(c *editClient) api.JobRequest {
		req := c.request(c.stream.design.source())
		req.Config.Workers = 1
		return req
	}

	// Cold base submissions, recorded on a tracer that is thrown away.
	setupTr := newTracer()
	cache.tr.Store(setupTr)
	for _, c := range clients {
		var setupC counters
		if _, err := newReplay(ctx, setupTr, lib, pool, &setupC).replaySynth(c.name, c.stream.design.source(), cache); err != nil {
			return nil, fmt.Errorf("base design %s: %w", c.name, err)
		}
		st, _, err := d.job(ctx, daemonReq(c))
		if err != nil {
			return nil, fmt.Errorf("base design %s: %w", c.name, err)
		}
		c.lastJob = st.ID
	}
	cache.tr.Store(tr)
	cache.gets.Store(0)
	cache.hits.Store(0)

	deadline := time.Now().Add(time.Duration(seconds * float64(time.Second)))
	for i := 0; i < minTracedOps*editClients || time.Now().Before(deadline); i++ {
		c := clients[i%editClients]
		c.stream.next()
		tr.setOp(i)
		root := tr.begin("op")
		q, err := newReplay(ctx, tr, lib, pool, &out.c).replaySynth(c.name, c.stream.design.source(), cache)
		var st api.JobStatus
		var res *api.JobResult
		var clientDur, encodeDur time.Duration
		if err == nil {
			start := time.Now()
			id := tr.begin("server.client")
			st, res, err = d.job(ctx, daemonReq(c))
			if err == nil {
				created, started, finished := parseStamp(st.Created), parseStamp(st.Started), parseStamp(st.Finished)
				tr.add("server.queue_wait", created, started)
				tr.add("server.run", started, finished)
			}
			tr.end(id)
			clientDur = time.Since(start)
		}
		if err == nil {
			start := time.Now()
			err = tr.do("api.encode", func() error { _, err := api.Encode(res); return err })
			encodeDur = time.Since(start)
		}
		tr.end(root)
		if err == nil {
			c.lastJob = st.ID
			out.c.jobs++
			if st.Dedup || st.Disk {
				out.c.cachedJobs++
			}
			if got := synthQuality(res); got != q {
				err = mismatchf("%s job %s: daemon controllers sum to area %.4f delay %.4f, the traced replay to %.4f %.4f",
					c.name, st.ID, got.area, got.delay, q.area, q.delay)
			}
		}
		out.record(err)
		if err == nil && !st.Dedup && !st.Disk {
			run := parseStamp(st.Finished).Sub(parseStamp(st.Started))
			replayed := tr.covered()[i] - clientDur - encodeDur
			if run > 0 {
				out.coverage = append(out.coverage, float64(replayed)/float64(run))
			}
		}
	}
	out.c.ctlGets, out.c.ctlHits = cache.gets.Load(), cache.hits.Load()
	return out, nil
}

// parseStamp reads a JobStatus timestamp; a missing or malformed stamp
// reads as the zero time, which the caller's arithmetic then exposes.
func parseStamp(s string) time.Time {
	t, _ := time.Parse(time.RFC3339Nano, s)
	return t
}
