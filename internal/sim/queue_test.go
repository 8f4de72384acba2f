package sim

import (
	"container/heap"
	"fmt"
	"math/rand"
	"testing"

	"balsabm/internal/cell"
)

// The oracle for the typed event queue: the event loop on
// container/heap, with boxed events that carry their callback pointer
// (and Run's peek at the time limit). It lives in test code only.

type refEvent struct {
	time float64
	seq  int64
	net  int
	val  bool
	gate int
	fn   func()
}

type refHeap []refEvent

func (h refHeap) Len() int { return len(h) }
func (h refHeap) Less(i, j int) bool {
	if h[i].time != h[j].time {
		return h[i].time < h[j].time
	}
	return h[i].seq < h[j].seq
}
func (h refHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *refHeap) Push(x any)   { *h = append(*h, x.(refEvent)) }
func (h *refHeap) Pop() any     { old := *h; n := len(old); e := old[n-1]; *h = old[:n-1]; return e }

// refKernel replays a Simulator's gates (after Init) on the reference
// queue.
type refKernel struct {
	values   []bool
	gates    []gateInst
	fanout   [][]int
	watchers map[int][]func(net int, val bool)
	queue    refHeap
	seq      int64
	time     float64
	events   int64
	cancels  int // inertial cancellations
}

func newRefKernel(s *Simulator) *refKernel {
	return &refKernel{
		values:   append([]bool(nil), s.values...),
		gates:    append([]gateInst(nil), s.gates...),
		fanout:   s.fanout,
		watchers: map[int][]func(int, bool){},
	}
}

func (k *refKernel) scheduleNet(net int, val bool, delay float64) {
	k.seq++
	heap.Push(&k.queue, refEvent{time: k.time + delay, seq: k.seq, net: net, val: val, gate: -1})
}

func (k *refKernel) after(delay float64, fn func()) {
	k.seq++
	heap.Push(&k.queue, refEvent{time: k.time + delay, seq: k.seq, fn: fn})
}

func (k *refKernel) now() float64 { return k.time }

func (k *refKernel) evalGate(gi int) {
	g := &k.gates[gi]
	out := g.eval(k.values)
	if g.hasPending {
		if out == g.pendingVal {
			return
		}
		if out == k.values[g.out] {
			g.hasPending = false
			k.cancels++
			return
		}
	}
	if out == k.values[g.out] {
		return
	}
	k.seq++
	g.hasPending, g.pendingVal, g.pendingSeq = true, out, k.seq
	heap.Push(&k.queue, refEvent{time: k.time + g.delay, seq: k.seq, net: g.out, val: out, gate: gi})
}

func (k *refKernel) run(until float64, maxEvents int64) error {
	for k.queue.Len() > 0 {
		if k.queue[0].time > until {
			k.time = until
			return fmt.Errorf("time limit")
		}
		e := heap.Pop(&k.queue).(refEvent)
		k.time = e.time
		if e.fn != nil {
			e.fn()
			continue
		}
		if e.gate >= 0 {
			g := &k.gates[e.gate]
			if !g.hasPending || g.pendingSeq != e.seq {
				continue
			}
			g.hasPending = false
		}
		if k.values[e.net] == e.val {
			continue
		}
		k.values[e.net] = e.val
		k.events++
		if k.events > maxEvents {
			return fmt.Errorf("event budget")
		}
		for _, gi := range k.fanout[e.net] {
			k.evalGate(gi)
		}
		for _, w := range k.watchers[e.net] {
			w(e.net, e.val)
		}
	}
	return nil
}

// TestQueueMatchesContainerHeap interleaves random pushes and pops, with
// times drawn from a handful of values so most events tie on time, and
// checks every pop against container/heap.
func TestQueueMatchesContainerHeap(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		var q eventQueue
		var ref refHeap
		var seq int64
		for step := 0; step < 2000; step++ {
			if len(q) != ref.Len() {
				t.Fatalf("seed %d step %d: length %d, reference %d", seed, step, len(q), ref.Len())
			}
			if len(q) == 0 || rng.Intn(3) > 0 {
				seq++
				tm := float64(rng.Intn(6)) * 0.25
				q.push(event{time: tm, seq: seq, net: int32(seq), gate: -1, fn: -1})
				heap.Push(&ref, refEvent{time: tm, seq: seq})
				continue
			}
			got, want := q.pop(), heap.Pop(&ref).(refEvent)
			if got.time != want.time || got.seq != want.seq || got.net != int32(want.seq) {
				t.Fatalf("seed %d step %d: popped (%v, %d), reference (%v, %d)", seed, step, got.time, got.seq, want.time, want.seq)
			}
		}
	}
}

// kernel is what a scenario drives: the Simulator and the reference.
type kernel interface {
	scheduleNet(net int, val bool, delay float64)
	after(delay float64, fn func())
	now() float64
}

type simKernel struct{ s *Simulator }

func (k simKernel) scheduleNet(net int, val bool, delay float64) { k.s.ScheduleNet(net, val, delay) }
func (k simKernel) after(delay float64, fn func())               { k.s.After(delay, func(*Simulator) { fn() }) }
func (k simKernel) now() float64                                 { return k.s.Time }

// step is one observation of a run: an applied net change (cb < 0) or
// a callback firing.
type step struct {
	time float64
	net  int
	val  bool
	cb   int
}

// randomCircuit builds an acyclic random netlist over nInputs primary
// inputs: every gate reads earlier nets only, and its fast cells see
// input pulses shorter than their delays, so inertial cancellation
// happens often.
func randomCircuit(rng *rand.Rand, nInputs, nGates int) (*Simulator, []int) {
	s := New(cell.AMS035())
	var inputs []int
	for i := 0; i < nInputs; i++ {
		inputs = append(inputs, s.Net(fmt.Sprintf("in%d", i)))
	}
	cells := []struct {
		name string
		ins  int
	}{{"INV", 1}, {"BUF", 1}, {"NAND2", 2}, {"NOR2", 2}, {"AND2", 2}, {"XOR2", 2}, {"C2", 2}, {"OR3", 3}, {"LATCH", 2}}
	for g := 0; g < nGates; g++ {
		c := cells[rng.Intn(len(cells))]
		ins := make([]int, c.ins)
		for i := range ins {
			ins[i] = rng.Intn(len(s.names))
		}
		s.AddGate(c.name, ins, s.Net(fmt.Sprintf("g%d", g)))
	}
	return s, inputs
}

// play schedules a seeded random stimulus: input toggles on a coarse
// time grid (many equal timestamps), and callbacks that schedule more
// toggles and more callbacks when they fire. The rng is consumed in
// firing order, so two kernels stay in step exactly when they fire
// callbacks in the same order.
func play(k kernel, rng *rand.Rand, inputs []int, trace *[]step) {
	cbs := 0
	var spawn func(depth int)
	spawn = func(depth int) {
		id := cbs
		cbs++
		k.after(float64(rng.Intn(8))*0.05, func() {
			*trace = append(*trace, step{time: k.now(), cb: id})
			for i := rng.Intn(4); i > 0; i-- {
				k.scheduleNet(inputs[rng.Intn(len(inputs))], rng.Intn(2) == 0, float64(rng.Intn(5))*0.05)
			}
			if depth < 6 {
				for i := rng.Intn(3); i > 0; i-- {
					spawn(depth + 1)
				}
			}
		})
	}
	for i := 0; i < 40; i++ {
		k.scheduleNet(inputs[rng.Intn(len(inputs))], rng.Intn(2) == 0, float64(rng.Intn(10))*0.05)
	}
	for i := 0; i < 5; i++ {
		spawn(0)
	}
}

// TestKernelMatchesReference drives random ScheduleNet, After and
// inertial-cancel sequences through the Simulator and through the
// container/heap reference, and requires the same applied changes and
// callback firings in the same order at the same times.
func TestKernelMatchesReference(t *testing.T) {
	cancels := 0
	for seed := int64(1); seed <= 30; seed++ {
		s, inputs := randomCircuit(rand.New(rand.NewSource(seed)), 6, 40)
		if err := s.Init(); err != nil {
			t.Fatal(err)
		}
		ref := newRefKernel(s)
		var got, want []step
		for net := range s.names {
			s.WatchNet(net, func(s *Simulator, net int, val bool) {
				got = append(got, step{time: s.Time, net: net, val: val, cb: -1})
			})
			ref.watchers[net] = append(ref.watchers[net], func(net int, val bool) {
				want = append(want, step{time: ref.time, net: net, val: val, cb: -1})
			})
		}
		play(simKernel{s}, rand.New(rand.NewSource(seed)), inputs, &got)
		play(ref, rand.New(rand.NewSource(seed)), inputs, &want)
		errGot, errWant := s.Run(1e6, 1e6), ref.run(1e6, 1e6)
		if (errGot == nil) != (errWant == nil) {
			t.Fatalf("seed %d: Run error %v, reference %v", seed, errGot, errWant)
		}
		if s.Time != ref.time || s.Events != ref.events {
			t.Fatalf("seed %d: time %v events %d, reference %v %d", seed, s.Time, s.Events, ref.time, ref.events)
		}
		if len(got) != len(want) {
			t.Fatalf("seed %d: %d steps, reference %d", seed, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("seed %d step %d: %+v, reference %+v", seed, i, got[i], want[i])
			}
		}
		if len(got) < 50 {
			t.Fatalf("seed %d: only %d steps; the scenario is too quiet to compare", seed, len(got))
		}
		cancels += ref.cancels
	}
	if cancels == 0 {
		t.Fatal("no inertial cancellation in any scenario")
	}
	t.Logf("%d inertial cancellations", cancels)
}
