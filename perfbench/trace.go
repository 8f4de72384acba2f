package main

import (
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"
)

// Spans are recorded from the benchmark's own code around its calls
// into each layer's public functions. They stay in memory and are
// written out, as Chrome trace-event JSON, when the run ends.

// span is one timed call. Self time is its duration minus the time of
// its direct children, which never overlap: the traced run executes
// one call at a time.
type span struct {
	name       string
	start, end time.Duration // since the tracer's epoch
	parent     int           // -1 for an op's root span
	op         int
	children   time.Duration
	carved     time.Duration // children placed by carve
}

func (s *span) self() time.Duration {
	if d := s.end - s.start - s.children; d > 0 {
		return d
	}
	return 0
}

// tracer records spans. The traced run is sequential, but the flow may
// call back into a decorator (the controller-cache timer) from its own
// goroutines, so recording is guarded by a mutex.
type tracer struct {
	mu    sync.Mutex
	epoch time.Time
	spans []span
	stack []int
	op    int
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

func (t *tracer) now() time.Duration { return time.Since(t.epoch) }

func (t *tracer) top() int {
	if len(t.stack) == 0 {
		return -1
	}
	return t.stack[len(t.stack)-1]
}

// begin opens a span as a child of the innermost open span.
func (t *tracer) begin(name string) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans)
	t.spans = append(t.spans, span{name: name, start: t.now(), parent: t.top(), op: t.op})
	t.stack = append(t.stack, id)
	return id
}

// end closes the innermost open span, which must be id.
func (t *tracer) end(id int) {
	t.mu.Lock()
	defer t.mu.Unlock()
	s := &t.spans[id]
	s.end = t.now()
	t.stack = t.stack[:len(t.stack)-1]
	if s.parent >= 0 {
		t.spans[s.parent].children += s.end - s.start
	}
}

// do runs f inside a span.
func (t *tracer) do(name string, f func() error) error {
	id := t.begin(name)
	err := f()
	t.end(id)
	return err
}

// add records a finished span observed elsewhere (a job's server-side
// stamps, a decorator call) as a child of the innermost open span.
func (t *tracer) add(name string, start, end time.Time) {
	t.mu.Lock()
	defer t.mu.Unlock()
	s := span{name: name, start: start.Sub(t.epoch), end: end.Sub(t.epoch), parent: t.top(), op: t.op}
	t.spans = append(t.spans, s)
	if s.parent >= 0 {
		t.spans[s.parent].children += s.end - s.start
	}
}

// carve records a child of the innermost open span known only by its
// duration (a stage timer the flow keeps itself). Carved children are
// laid out one after another from the parent's start.
func (t *tracer) carve(name string, d time.Duration) {
	t.mu.Lock()
	defer t.mu.Unlock()
	pi := t.top()
	parent := &t.spans[pi]
	start := parent.start + parent.carved
	parent.carved += d
	parent.children += d
	t.spans = append(t.spans, span{name: name, start: start, end: start + d, parent: pi, op: t.op})
}

// setOp tags the spans recorded from now on with op id i.
func (t *tracer) setOp(i int) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.op = i
}

// selfByName sums self time per span name over every recorded span.
func (t *tracer) selfByName() map[string]time.Duration {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := map[string]time.Duration{}
	for i := range t.spans {
		out[t.spans[i].name] += t.spans[i].self()
	}
	return out
}

// covered returns, per op, the root span's duration minus its own self
// time: the part of the op some layer span accounts for.
func (t *tracer) covered() map[int]time.Duration {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := map[int]time.Duration{}
	for i := range t.spans {
		if s := &t.spans[i]; s.parent < 0 {
			out[s.op] += s.end - s.start - s.self()
		}
	}
	return out
}

// traceEvent is one Chrome trace-event "complete" event.
type traceEvent struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`
	Dur  float64        `json:"dur"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Args map[string]any `json:"args"`
}

// write saves every span as Chrome trace-event JSON.
func (t *tracer) write(path string) error {
	t.mu.Lock()
	evs := make([]traceEvent, 0, len(t.spans))
	for i, s := range t.spans {
		evs = append(evs, traceEvent{
			Name: s.name, Ph: "X", Pid: 1, Tid: 1,
			Ts:   float64(s.start) / float64(time.Microsecond),
			Dur:  float64(s.end-s.start) / float64(time.Microsecond),
			Args: map[string]any{"op": s.op, "id": i, "parent": s.parent, "self_us": float64(s.self()) / float64(time.Microsecond)},
		})
	}
	t.mu.Unlock()
	sort.SliceStable(evs, func(i, j int) bool { return evs[i].Ts < evs[j].Ts })
	b, err := json.Marshal(map[string]any{"traceEvents": evs})
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
