// Package dpath provides behavioral datapath handshake components for
// the event simulator: variables (latch banks), transferrers, function
// units, constants, data-dependent selectors and memories, plus
// environment-side helpers for testbenches.
//
// In the paper's flow the datapath is synthesized by the unmodified
// Balsa back-end and is identical in the optimized and unoptimized
// circuits; only the control differs. Modelling the datapath
// behaviorally — with a consistent area/delay cost model applied to
// both arms — therefore preserves exactly what Table 3 measures: the
// relative effect of the control optimization.
//
// Channels: a sync channel is a request/acknowledge wire pair
// (<name>_r, <name>_a). A data channel adds an abstract value bus
// (carried as a Go value, not as wires). Pull channels are served by
// the component owning the data (acknowledge carries the value); push
// channels are driven by the producer (request carries the value).
package dpath

import (
	"fmt"

	"balsabm/internal/sim"
)

// Cost model, calibrated to the 0.35µm-class cell library.
const (
	LatchAreaPerBit = 64.0 // µm² (one LATCH cell per bit)
	FuncAreaPerBit  = 90.0 // µm² per bit of a typical ALU function
	WireArea        = 12.0 // µm² per channel for completion/steering
	LatchDelay      = 0.18 // ns
	SelectDelay     = 0.25 // ns
	// CompletionPerBit models the width-dependent part of a register
	// access (dual-rail/bundled completion detection and data wiring):
	// Balsa's datapath is delay-insensitive, so acknowledge generation
	// scales with the word width.
	CompletionPerBit = 0.012 // ns per bit
	// AckDelay is the controller-facing acknowledge latency of a
	// datapath component (completion detection plus wiring). It also
	// guarantees generalized fundamental mode: the environment never
	// responds faster than a clustered controller settles.
	AckDelay = 0.45 // ns
)

// FuncDelay returns the evaluation delay of a width-bit function unit
// (ripple-style scaling).
func FuncDelay(width int) float64 { return 0.3 + 0.04*float64(width) }

// Bus is the abstract value carried by a data channel.
type Bus struct{ Val uint64 }

// Builder wires behavioral components into a simulator and accumulates
// their datapath area.
type Builder struct {
	S        *sim.Simulator
	Area     float64
	bus      map[string]*Bus
	memories []*Memory
}

// NewBuilder creates a datapath builder over the simulator.
func NewBuilder(s *sim.Simulator) *Builder {
	return &Builder{S: s, bus: map[string]*Bus{}}
}

// Bus returns (creating on demand) the value cell of a data channel.
func (b *Builder) Bus(name string) *Bus {
	if v, ok := b.bus[name]; ok {
		return v
	}
	v := &Bus{}
	b.bus[name] = v
	return v
}

// channel is a handshake channel's request and acknowledge nets,
// resolved once at build time: component callbacks schedule by net id
// and never rebuild or look up a name while the simulation runs.
type channel struct{ r, a int }

// channel interns the <name>_r/<name>_a net pair of a channel.
func (b *Builder) channel(name string) channel {
	return channel{r: b.S.Net(name + "_r"), a: b.S.Net(name + "_a")}
}

// channels resolves a list of channels.
func (b *Builder) channels(names []string) []channel {
	out := make([]channel, len(names))
	for i, name := range names {
		out[i] = b.channel(name)
	}
	return out
}

// onRise registers fn for rising edges of a net.
func (b *Builder) onRise(net int, fn func(s *sim.Simulator)) {
	b.S.WatchNet(net, func(s *sim.Simulator, _ int, val bool) {
		if val {
			fn(s)
		}
	})
}

// onFall registers fn for falling edges of a net.
func (b *Builder) onFall(net int, fn func(s *sim.Simulator)) {
	b.S.WatchNet(net, func(s *sim.Simulator, _ int, val bool) {
		if !val {
			fn(s)
		}
	})
}

// serve acknowledges every request edge on c with the same polarity
// after delay; rise runs first on each rising edge.
func (b *Builder) serve(c channel, delay float64, rise func()) {
	b.onRise(c.r, func(s *sim.Simulator) {
		if rise != nil {
			rise()
		}
		s.ScheduleNet(c.a, true, delay)
	})
	b.onFall(c.r, func(s *sim.Simulator) {
		s.ScheduleNet(c.a, false, delay)
	})
}

// Variable is a width-bit latch bank with one write (push-passive)
// channel and any number of read (pull-passive) channels.
func (b *Builder) Variable(name string, width int, write string, reads ...string) *Bus {
	stored := &Bus{}
	b.Area += float64(width)*LatchAreaPerBit + WireArea*float64(1+len(reads))
	access := LatchDelay + CompletionPerBit*float64(width)
	if write != "" {
		wb := b.Bus(write)
		b.serve(b.channel(write), access, func() { stored.Val = wb.Val })
	}
	for _, r := range reads {
		rb := b.Bus(r)
		b.serve(b.channel(r), access, func() { rb.Val = stored.Val })
	}
	return stored
}

// Fetch is the transferrer "dst <- src": a sync activation pulls src
// and pushes the value into dst.
func (b *Builder) Fetch(act, src, dst string) {
	b.Area += 2 * WireArea
	sb, db := b.Bus(src), b.Bus(dst)
	ac, sc, dc := b.channel(act), b.channel(src), b.channel(dst)
	busy := false // guards against cross-talk if a channel is shared
	b.onRise(ac.r, func(s *sim.Simulator) {
		busy = true
		s.ScheduleNet(sc.r, true, 0.15)
	})
	b.onRise(sc.a, func(s *sim.Simulator) {
		if !busy {
			return
		}
		db.Val = sb.Val
		s.ScheduleNet(sc.r, false, 0.15)
	})
	b.onFall(sc.a, func(s *sim.Simulator) {
		if !busy {
			return
		}
		s.ScheduleNet(dc.r, true, 0.15)
	})
	b.onRise(dc.a, func(s *sim.Simulator) {
		if !busy {
			return
		}
		s.ScheduleNet(dc.r, false, 0.15)
	})
	b.onFall(dc.a, func(s *sim.Simulator) {
		if !busy {
			return
		}
		busy = false
		s.ScheduleNet(ac.a, true, AckDelay)
	})
	b.onFall(ac.r, func(s *sim.Simulator) {
		s.ScheduleNet(ac.a, false, AckDelay)
	})
}

// Func is a pull-served function unit: when out is pulled, it pulls all
// inputs concurrently, computes f, and acknowledges out with the value.
// f must not retain its argument: the slice is reused across calls.
func (b *Builder) Func(out string, width int, f func(ins []uint64) uint64, ins ...string) {
	b.Area += float64(width)*FuncAreaPerBit + WireArea*float64(len(ins))
	ob := b.Bus(out)
	oc := b.channel(out)
	inBus := make([]*Bus, len(ins))
	for i, in := range ins {
		inBus[i] = b.Bus(in)
	}
	inCh := b.channels(ins)
	vals := make([]uint64, len(ins))
	pending := 0
	b.onRise(oc.r, func(s *sim.Simulator) {
		if len(inCh) == 0 {
			ob.Val = f(nil)
			s.ScheduleNet(oc.a, true, FuncDelay(width))
			return
		}
		pending = len(inCh)
		for _, c := range inCh {
			s.ScheduleNet(c.r, true, 0.15)
		}
	})
	for _, c := range inCh {
		b.onRise(c.a, func(s *sim.Simulator) {
			pending--
			if pending == 0 {
				for i, ib := range inBus {
					vals[i] = ib.Val
				}
				ob.Val = f(vals)
				s.ScheduleNet(oc.a, true, FuncDelay(width))
			}
		})
	}
	// Return to zero: when the puller drops the request, release the
	// inputs and the acknowledge.
	falling := 0
	b.onFall(oc.r, func(s *sim.Simulator) {
		if len(inCh) == 0 {
			s.ScheduleNet(oc.a, false, 0.15)
			return
		}
		falling = len(inCh)
		for _, c := range inCh {
			s.ScheduleNet(c.r, false, 0.15)
		}
	})
	for _, c := range inCh {
		b.onFall(c.a, func(s *sim.Simulator) {
			falling--
			if falling == 0 {
				s.ScheduleNet(oc.a, false, 0.15)
			}
		})
	}
}

// Const serves a pull channel with a constant value.
func (b *Builder) Const(out string, val uint64) {
	b.Area += WireArea
	ob := b.Bus(out)
	b.serve(b.channel(out), 0.15, func() { ob.Val = val })
}

// CaseSel is the data-dependent dispatcher: a sync activation pulls the
// selector channel and then performs a full handshake on outs[sel]
// before completing. Out-of-range selectors complete without
// activating anything (Balsa's "else continue").
func (b *Builder) CaseSel(act, sel string, outs ...string) {
	b.Area += WireArea * float64(2+len(outs))
	sb := b.Bus(sel)
	ac, sc := b.channel(act), b.channel(sel)
	outCh := b.channels(outs)
	current := -1
	b.onRise(ac.r, func(s *sim.Simulator) {
		s.ScheduleNet(sc.r, true, 0.15)
	})
	b.onRise(sc.a, func(s *sim.Simulator) {
		idx := int(sb.Val)
		s.ScheduleNet(sc.r, false, 0.15)
		if idx < 0 || idx >= len(outCh) {
			current = -1
			s.ScheduleNet(ac.a, true, SelectDelay)
			return
		}
		current = idx
		s.ScheduleNet(outCh[idx].r, true, SelectDelay)
	})
	for i, oc := range outCh {
		b.onRise(oc.a, func(s *sim.Simulator) {
			if current == i {
				s.ScheduleNet(oc.r, false, 0.15)
			}
		})
		b.onFall(oc.a, func(s *sim.Simulator) {
			if current == i {
				current = -1
				s.ScheduleNet(ac.a, true, AckDelay)
			}
		})
	}
	b.onFall(ac.r, func(s *sim.Simulator) {
		s.ScheduleNet(ac.a, false, AckDelay)
	})
}

// Memory is a behavioral word memory.
type Memory struct {
	Words []uint64
	b     *Builder
}

// Memory creates a size-word memory of the given width.
func (b *Builder) Memory(size, width int) *Memory {
	b.Area += float64(size*width) * 20 // compact RAM bits vs. latches
	m := &Memory{Words: make([]uint64, size), b: b}
	b.memories = append(b.memories, m)
	return m
}

// LastMemory returns the most recently created memory (nil if none) —
// benchmarks use it to load programs and inspect results.
func (b *Builder) LastMemory() *Memory {
	if len(b.memories) == 0 {
		return nil
	}
	return b.memories[len(b.memories)-1]
}

// ReadPort serves pulls on out with the word addressed by pulling addr.
func (m *Memory) ReadPort(out, addr string, width int) {
	b := m.b
	ob, abus := b.Bus(out), b.Bus(addr)
	oc, adc := b.channel(out), b.channel(addr)
	b.onRise(oc.r, func(s *sim.Simulator) {
		s.ScheduleNet(adc.r, true, 0.15)
	})
	b.onRise(adc.a, func(s *sim.Simulator) {
		idx := int(abus.Val) % len(m.Words)
		ob.Val = m.Words[idx]
		s.ScheduleNet(adc.r, false, 0.15)
		s.ScheduleNet(oc.a, true, FuncDelay(width))
	})
	b.onFall(oc.r, func(s *sim.Simulator) {
		s.ScheduleNet(oc.a, false, 0.15)
	})
}

// WritePort performs, per sync activation, a pull of addr and data and
// writes the word.
func (m *Memory) WritePort(act, addr, data string, width int) {
	b := m.b
	abus, dbus := b.Bus(addr), b.Bus(data)
	ac, adc, dc := b.channel(act), b.channel(addr), b.channel(data)
	got := 0
	b.onRise(ac.r, func(s *sim.Simulator) {
		got = 0
		s.ScheduleNet(adc.r, true, 0.15)
		s.ScheduleNet(dc.r, true, 0.15)
	})
	done := func(s *sim.Simulator) {
		got++
		if got == 2 {
			idx := int(abus.Val) % len(m.Words)
			m.Words[idx] = dbus.Val
			s.ScheduleNet(adc.r, false, 0.15)
			s.ScheduleNet(dc.r, false, 0.15)
			s.ScheduleNet(ac.a, true, FuncDelay(width))
		}
	}
	b.onRise(adc.a, done)
	b.onRise(dc.a, done)
	b.onFall(ac.r, func(s *sim.Simulator) {
		s.ScheduleNet(ac.a, false, AckDelay)
	})
}

// EnvServeSync auto-acknowledges sync requests with the given delay
// (an always-ready environment on a leaf channel).
func (b *Builder) EnvServeSync(ch string, delay float64) {
	if delay < AckDelay {
		delay = AckDelay
	}
	b.serve(b.channel(ch), delay, nil)
}

// EnvServePull serves pull requests on ch with values produced by f.
func (b *Builder) EnvServePull(ch string, delay float64, f func() uint64) {
	cb := b.Bus(ch)
	b.serve(b.channel(ch), delay, func() { cb.Val = f() })
}

// EnvConsumePush consumes push handshakes on ch, reporting each value.
func (b *Builder) EnvConsumePush(ch string, delay float64, f func(val uint64)) {
	cb := b.Bus(ch)
	b.serve(b.channel(ch), delay, func() { f(cb.Val) })
}

// SyncActivation performs one four-phase activation of ch, calling done
// when it completes.
func (b *Builder) SyncActivation(ch string, delay float64, done func(s *sim.Simulator)) {
	c := b.channel(ch)
	b.S.ScheduleNet(c.r, true, delay)
	fired := false
	b.onRise(c.a, func(s *sim.Simulator) {
		s.ScheduleNet(c.r, false, delay)
	})
	b.onFall(c.a, func(s *sim.Simulator) {
		if !fired {
			fired = true
			done(s)
		}
	})
}

// Activator repeatedly activates a sync channel, counting completions.
type Activator struct {
	Ch        string
	Delay     float64
	Completed int
	Limit     int
	OnDone    func(s *sim.Simulator)
	b         *Builder
	c         channel
}

// NewActivator builds a repeated activator for a passive sync channel.
func (b *Builder) NewActivator(ch string, delay float64, limit int, onDone func(s *sim.Simulator)) *Activator {
	a := &Activator{Ch: ch, Delay: delay, Limit: limit, OnDone: onDone, b: b, c: b.channel(ch)}
	b.onRise(a.c.a, func(s *sim.Simulator) {
		s.ScheduleNet(a.c.r, false, delay)
	})
	b.onFall(a.c.a, func(s *sim.Simulator) {
		a.Completed++
		if a.Completed >= a.Limit {
			if a.OnDone != nil {
				a.OnDone(s)
			}
			return
		}
		s.ScheduleNet(a.c.r, true, delay)
	})
	return a
}

// Start issues the first activation.
func (a *Activator) Start() {
	a.b.S.ScheduleNet(a.c.r, true, a.Delay)
}

// Describe returns a short diagnostic for error messages.
func (a *Activator) Describe() string {
	return fmt.Sprintf("activator(%s): %d/%d", a.Ch, a.Completed, a.Limit)
}
