// Package sim is an event-driven logic simulator for mapped gate
// netlists plus behavioral processes. It stands in for the paper's
// back-annotated Verilog-XL simulations: every library cell switches
// with its library delay, datapath components are modelled behaviorally
// with the same delay model in both arms of a comparison, and
// environments are Go callbacks.
package sim

import (
	"fmt"

	"balsabm/internal/cell"
	"balsabm/internal/gates"
)

// event is a scheduled net assignment, gate-output commit, or callback.
// It holds no pointers: callbacks live in Simulator.callbacks and the
// event carries only their slot, so the queue is a flat array that
// pushes never box and the garbage collector never scans.
type event struct {
	time float64
	seq  int64
	net  int32
	gate int32 // -1 for plain net events; else index of the driving gate
	fn   int32 // -1 unless a callback; else its slot in Simulator.callbacks
	val  bool
}

// eventQueue is a binary min-heap of events ordered by (time, seq).
// Every event gets a fresh seq, so the order is total and any correct
// heap pops exactly the same sequence: same-time events run in the
// order they were scheduled.
type eventQueue []event

func (q eventQueue) less(i, j int) bool {
	if q[i].time != q[j].time {
		return q[i].time < q[j].time
	}
	return q[i].seq < q[j].seq
}

func (q *eventQueue) push(e event) {
	*q = append(*q, e)
	h := *q
	for i := len(h) - 1; i > 0; {
		parent := (i - 1) / 2
		if !h.less(i, parent) {
			break
		}
		h[i], h[parent] = h[parent], h[i]
		i = parent
	}
}

func (q *eventQueue) pop() event {
	h := *q
	top := h[0]
	n := len(h) - 1
	h[0] = h[n]
	h = h[:n]
	for i := 0; ; {
		least, l, r := i, 2*i+1, 2*i+2
		if l < n && h.less(l, least) {
			least = l
		}
		if r < n && h.less(r, least) {
			least = r
		}
		if least == i {
			break
		}
		h[i], h[least] = h[least], h[i]
		i = least
	}
	*q = h
	return top
}

// gateInst is a placed cell with inertial-delay bookkeeping: at most
// one output change is in flight; re-evaluations that return to the
// current output value cancel it (pulses shorter than the cell delay
// are absorbed, as in real gates).
type gateInst struct {
	cell       *cell.Cell
	ins        []int
	out        int
	delay      float64 // cell delay plus fanout loading (set by Init)
	tab        [2]uint64
	lutOK      bool // tab is valid: ≤6 inputs, pin count matches
	hasPending bool
	pendingVal bool
	pendingSeq int64
}

// eval recomputes the gate's output from the current net values. The
// hot path indexes the cell's cached truth table (cell.TruthTable, so
// it can never disagree with cell.Eval) instead of allocating an
// input slice per evaluation; cells the LUT cannot represent fall
// back to Eval.
func (g *gateInst) eval(values []bool) bool {
	if g.lutOK {
		idx := 0
		for j, in := range g.ins {
			if values[in] {
				idx |= 1 << uint(j)
			}
		}
		prev := 0
		if values[g.out] {
			prev = 1
		}
		return g.tab[prev]>>uint(idx)&1 != 0
	}
	ins := make([]bool, len(g.ins))
	for i, in := range g.ins {
		ins[i] = values[in]
	}
	return g.cell.Eval(ins, values[g.out])
}

// FanoutPenalty is the extra delay per additional fanout load on a
// gate's output (a first-order wire/load model: large clustered
// controllers drive many product terms from each literal, so their
// effective gate delays exceed the unloaded library figures).
const FanoutPenalty = 0.02 // ns per extra load

// Watcher observes value changes on a net.
type Watcher func(s *Simulator, net int, val bool)

// Simulator is the event-driven kernel. Nets are dense int ids:
// values, fanout and watchers are per-net slices that grow together in
// Net, so dispatching an applied event is plain indexing.
type Simulator struct {
	lib       *cell.Library
	names     []string
	index     map[string]int
	values    []bool
	gates     []gateInst
	fanout    [][]int     // net -> gate indices
	watchers  [][]Watcher // net -> watchers, in registration order
	queue     eventQueue
	callbacks []func(*Simulator) // After callbacks by slot; nil when free
	freeFns   []int32            // free callback slots
	seq       int64
	stopped   bool

	// Time is the current simulation time in ns.
	Time float64
	// Events counts applied net changes (a rough activity measure).
	Events int64
}

// New creates a simulator over the given cell library.
func New(lib *cell.Library) *Simulator {
	return &Simulator{lib: lib, index: map[string]int{}}
}

// Net interns a global net by name.
func (s *Simulator) Net(name string) int {
	if id, ok := s.index[name]; ok {
		return id
	}
	id := len(s.names)
	s.names = append(s.names, name)
	s.index[name] = id
	s.values = append(s.values, false)
	s.fanout = append(s.fanout, nil)
	s.watchers = append(s.watchers, nil)
	return id
}

// NetName returns the name of a net id.
func (s *Simulator) NetName(net int) string { return s.names[net] }

// Value reads a net by name. A name no netlist, watcher or schedule
// has mentioned is low, and reading it does not create the net.
func (s *Simulator) Value(name string) bool {
	id, ok := s.index[name]
	return ok && s.values[id]
}

// ValueOf reads a net by id.
func (s *Simulator) ValueOf(net int) bool { return s.values[net] }

// AddGate places a library cell instance on global nets.
func (s *Simulator) AddGate(cellName string, ins []int, out int) {
	g := gateInst{cell: s.lib.Get(cellName), ins: append([]int(nil), ins...), out: out}
	if tab, ok := g.cell.TruthTable(); ok && len(g.ins) == g.cell.Inputs {
		g.tab, g.lutOK = tab, true
	}
	idx := len(s.gates)
	s.gates = append(s.gates, g)
	for _, in := range g.ins {
		s.fanout[in] = append(s.fanout[in], idx)
	}
}

// AddNetlist instantiates a mapped netlist. Primary input and output
// nets keep their own names (optionally translated via portMap);
// internal nets are prefixed with instanceName to stay private.
func (s *Simulator) AddNetlist(nl *gates.Netlist, instanceName string, portMap map[string]string) {
	boundary := map[int]bool{}
	for _, n := range nl.Inputs {
		boundary[n] = true
	}
	for _, n := range nl.Outputs {
		boundary[n] = true
	}
	local := make([]int, len(nl.NetNames))
	for id, name := range nl.NetNames {
		global := name
		if mapped, ok := portMap[name]; ok {
			global = mapped
		} else if !boundary[id] {
			global = instanceName + "." + name
		}
		local[id] = s.Net(global)
	}
	for _, inst := range nl.Instances {
		ins := make([]int, len(inst.Inputs))
		for i, in := range inst.Inputs {
			ins[i] = local[in]
		}
		s.AddGate(inst.Cell, ins, local[inst.Output])
	}
}

// Watch registers a callback fired after the named net changes value.
func (s *Simulator) Watch(name string, w Watcher) {
	s.WatchNet(s.Net(name), w)
}

// WatchNet registers a callback fired after a net changes value.
func (s *Simulator) WatchNet(net int, w Watcher) {
	s.watchers[net] = append(s.watchers[net], w)
}

// Schedule sets a net to a value after the given delay.
func (s *Simulator) Schedule(name string, val bool, delay float64) {
	s.ScheduleNet(s.Net(name), val, delay)
}

// ScheduleNet sets a net by id after the given delay.
func (s *Simulator) ScheduleNet(net int, val bool, delay float64) {
	s.seq++
	s.queue.push(event{time: s.Time + delay, seq: s.seq, net: int32(net), val: val, gate: -1, fn: -1})
}

// evalGate recomputes a gate and manages its pending output event.
func (s *Simulator) evalGate(gi int) {
	g := &s.gates[gi]
	out := g.eval(s.values)
	switch {
	case g.hasPending:
		if out == g.pendingVal {
			return // already in flight
		}
		if out == s.values[g.out] {
			g.hasPending = false // inertial cancellation
			return
		}
		// Binary signals: out != pending and out != current cannot both
		// hold; kept for safety with future multi-valued cells.
		fallthrough
	default:
		if out == s.values[g.out] {
			return
		}
		s.seq++
		g.hasPending = true
		g.pendingVal = out
		g.pendingSeq = s.seq
		s.queue.push(event{time: s.Time + g.delay, seq: s.seq, net: int32(g.out), val: out, gate: int32(gi), fn: -1})
	}
}

// After schedules a callback to run at the given delay from now. The
// callback waits in a side-table slot that is freed, for reuse by
// later calls, just before it runs.
func (s *Simulator) After(delay float64, fn func(*Simulator)) {
	var slot int32
	if n := len(s.freeFns); n > 0 {
		slot = s.freeFns[n-1]
		s.freeFns = s.freeFns[:n-1]
		s.callbacks[slot] = fn
	} else {
		slot = int32(len(s.callbacks))
		s.callbacks = append(s.callbacks, fn)
	}
	s.seq++
	s.queue.push(event{time: s.Time + delay, seq: s.seq, gate: -1, fn: slot})
}

// Stop halts the current Run after the present event.
func (s *Simulator) Stop() { s.stopped = true }

// Init settles the combinational network at time zero without
// generating events (power-up evaluation), so gates whose quiescent
// output is 1 (e.g. NAND of low inputs) start correctly.
func (s *Simulator) Init() error {
	// Effective per-gate delays: library delay plus fanout loading.
	loads := make([]int, len(s.names))
	for _, g := range s.gates {
		for _, in := range g.ins {
			loads[in]++
		}
	}
	for i := range s.gates {
		g := &s.gates[i]
		extra := loads[g.out] - 1
		if extra < 0 {
			extra = 0
		}
		if extra > 3 {
			extra = 3 // synthesis would insert buffer trees beyond this
		}
		g.delay = g.cell.Delay + FanoutPenalty*float64(extra)
	}
	for iter := 0; iter < 4*len(s.gates)+16; iter++ {
		changed := false
		for i := range s.gates {
			g := &s.gates[i]
			out := g.eval(s.values)
			if out != s.values[g.out] {
				s.values[g.out] = out
				changed = true
			}
		}
		if !changed {
			return nil
		}
	}
	return fmt.Errorf("sim: power-up evaluation did not settle")
}

// Run processes events until the queue drains, the time limit passes,
// the event budget is exhausted, or Stop is called. An event beyond the
// time limit stays queued, so a later Run with a higher limit resumes
// exactly where this one stopped.
func (s *Simulator) Run(until float64, maxEvents int64) error {
	s.stopped = false
	for len(s.queue) > 0 && !s.stopped {
		if s.queue[0].time > until {
			s.Time = until
			return fmt.Errorf("sim: time limit %.2f ns exceeded", until)
		}
		e := s.queue.pop()
		s.Time = e.time
		if e.fn >= 0 {
			fn := s.callbacks[e.fn]
			s.callbacks[e.fn] = nil
			s.freeFns = append(s.freeFns, e.fn)
			fn(s)
			continue
		}
		if e.gate >= 0 {
			g := &s.gates[e.gate]
			if !g.hasPending || g.pendingSeq != e.seq {
				continue // cancelled or superseded
			}
			g.hasPending = false
		}
		net := int(e.net)
		if s.values[net] == e.val {
			continue
		}
		s.values[net] = e.val
		s.Events++
		if s.Events > maxEvents {
			return fmt.Errorf("sim: event budget %d exceeded at %.2f ns (oscillation?)", maxEvents, s.Time)
		}
		for _, gi := range s.fanout[net] {
			s.evalGate(gi)
		}
		for _, w := range s.watchers[net] {
			w(s, net, e.val)
		}
	}
	return nil
}

// Quiet reports whether no events are pending.
func (s *Simulator) Quiet() bool { return len(s.queue) == 0 }
