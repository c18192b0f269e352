// Package sim provides the deterministic event-driven simulation kernel
// shared by every component of the simulator: a monotonic cycle clock, a
// monomorphic 4-ary min-heap event queue with stable FIFO tie-breaking,
// and a seeded pseudo-random number generator suitable for reproducible
// workloads.
//
// The master clock unit is one CPU cycle at 3.2 GHz. All DRAM timing
// parameters are converted into CPU cycles at construction time so the
// whole simulation advances on a single clock domain.
//
// The event queue is allocation-free in steady state: events are stored
// by value in the heap slice (no container/heap interface{} boxing), and
// every event is a (handler, arg) pair, so call sites dispatch on a
// preallocated handler object instead of a fresh closure per event.
package sim

import "fmt"

// Cycle is a point in simulated time, measured in CPU cycles.
type Cycle int64

// CPUFreqGHz is the simulated core frequency (Table 1 of the paper).
const CPUFreqGHz = 3.2

// CyclesPerNS converts a duration in nanoseconds to CPU cycles, rounding
// up so that timing constraints are never optimistically shortened.
func CyclesPerNS(ns float64) Cycle {
	c := Cycle(ns * CPUFreqGHz)
	if float64(c) < ns*CPUFreqGHz {
		c++
	}
	return c
}

// EventHandler receives scheduled events: entities preallocate one
// handler per event kind and pass per-event context through arg.
// Storing a pointer (or nil) in arg does not allocate.
type EventHandler interface {
	OnEvent(arg any)
}

// PhasedHandler receives events scheduled through SchedulePhasedAt. The
// phase value the event was scheduled with is passed back so the handler
// can recognize events that belong to a superseded scheduling epoch
// (e.g. a controller tick armed by a session that has since parked).
type PhasedHandler interface {
	EventHandler
	OnPhasedEvent(arg any, phase uint64)
}

// event is a scheduled callback, stored by value in the heap.
type event struct {
	when  Cycle
	seq   uint64 // FIFO tie-break for events at the same cycle
	phase uint64 // 0 = normal; nonzero = late phase, ordered after all normal events
	h     EventHandler
	arg   any
}

// before reports heap ordering: time first, then phase (normal events
// precede all phased events at the same cycle, and phased events run in
// ascending phase order), then insertion order.
func (e *event) before(o *event) bool {
	if e.when != o.when {
		return e.when < o.when
	}
	if e.phase != o.phase {
		return e.phase < o.phase
	}
	return e.seq < o.seq
}

// Engine is the event-driven simulation kernel. The zero value is ready
// to use. Engine is not safe for concurrent use: the whole simulator is
// single-threaded by design so that runs are bit-for-bit reproducible.
type Engine struct {
	now        Cycle
	seq        uint64
	pq         []event // 4-ary min-heap ordered by (when, phase, seq)
	fired      uint64
	lastPhase  uint64
	dispatches int // >0 while inside an event handler

	// Timing wheel fronting the heap for near-future events (wheel.go).
	wslots [wheelSpan]wheelSlot
	wocc   [wheelSpan / 64]uint64
	wbase  Cycle     // wheel window start; all wheel events in [wbase, wbase+wheelSpan)
	wcount int       // events currently in the wheel
	wminIx int       // cached bucket of the wheel minimum; -1 = rescan needed
	wfree  [][]event // retained bucket arrays, shared across slots (zero steady-state alloc)
}

// Now reports the current simulated time.
func (e *Engine) Now() Cycle { return e.now }

// EventsFired reports how many events have executed, for tests and stats.
func (e *Engine) EventsFired() uint64 { return e.fired }

// heapArity is the fan-out of the event heap. A 4-ary heap halves the
// tree depth of a binary heap and keeps sibling comparisons within one
// or two cache lines, which measurably helps the push/pop-dominated
// simulation loop.
const heapArity = 4

// heapPush inserts ev into a (when, phase, seq)-ordered 4-ary heap,
// sifting up.
func heapPush(pq *[]event, ev event) {
	q := append(*pq, ev)
	i := len(q) - 1
	for i > 0 {
		parent := (i - 1) / heapArity
		if !q[i].before(&q[parent]) {
			break
		}
		q[i], q[parent] = q[parent], q[i]
		i = parent
	}
	*pq = q
}

// heapSiftDown restores the heap property below index i.
func heapSiftDown(q []event, i int) {
	n := len(q)
	for {
		first := heapArity*i + 1
		if first >= n {
			break
		}
		min := first
		last := first + heapArity
		if last > n {
			last = n
		}
		for c := first + 1; c < last; c++ {
			if q[c].before(&q[min]) {
				min = c
			}
		}
		if !q[min].before(&q[i]) {
			break
		}
		q[i], q[min] = q[min], q[i]
		i = min
	}
}

// heapPop removes and returns the minimum event. The queue must be
// non-empty.
func heapPop(pq *[]event) event {
	q := *pq
	top := q[0]
	n := len(q) - 1
	q[0] = q[n]
	q[n] = event{} // drop handler/arg references for the GC
	q = q[:n]
	heapSiftDown(q, 0)
	*pq = q
	return top
}

// ScheduleEvent runs h.OnEvent(arg) after delay cycles. A delay of zero
// runs it during the current cycle, after all previously scheduled work
// for this cycle. It performs no allocation: the event is stored by
// value and arg carries pointer-shaped context directly.
func (e *Engine) ScheduleEvent(delay Cycle, h EventHandler, arg any) {
	if delay < 0 {
		panic("sim: negative event delay")
	}
	e.ScheduleEventAt(e.now+delay, h, arg)
}

// ScheduleEventAt runs h.OnEvent(arg) at absolute cycle when.
// Scheduling into the past panics: that is always a model bug.
func (e *Engine) ScheduleEventAt(when Cycle, h EventHandler, arg any) {
	if when < e.now {
		panic("sim: event scheduled in the past")
	}
	e.seq++
	e.qPush(event{when: when, seq: e.seq, h: h, arg: arg})
}

// NewPhase allocates a fresh nonzero phase value, strictly greater than
// every phase allocated before it. Phases order SchedulePhasedAt events
// that land on the same cycle: an entity that acquires its phase when it
// starts a scheduling session keeps its same-cycle ordering against
// other sessions stable no matter when the individual events were
// pushed — the property per-cycle self-rescheduling used to provide
// implicitly through (when, seq) FIFO order.
func (e *Engine) NewPhase() uint64 {
	e.lastPhase++
	return e.lastPhase
}

// SchedulePhasedAt schedules h.OnPhasedEvent(arg, phase) at absolute
// cycle when. Phased events run after every normal event of that cycle,
// ordered among themselves by phase (then push order). phase must come
// from NewPhase (nonzero); when must not precede Now.
func (e *Engine) SchedulePhasedAt(when Cycle, phase uint64, h PhasedHandler, arg any) {
	if when < e.now {
		panic("sim: event scheduled in the past")
	}
	if phase == 0 {
		panic("sim: phased event needs a nonzero phase (use NewPhase)")
	}
	e.seq++
	e.qPush(event{when: when, seq: e.seq, phase: phase, h: h, arg: arg})
}

// InDispatch reports whether the caller is executing inside an event
// handler (as opposed to code interleaved between RunUntil calls, such
// as the cycle-stepped CPU cores). Entities whose same-cycle visibility
// rules differ between the two contexts — a request enqueued from an
// event is visible to a scheduling pass later in the same cycle, one
// enqueued from core-step context only from the next cycle on — branch
// on this instead of threading context flags through every caller.
func (e *Engine) InDispatch() bool { return e.dispatches > 0 }

// PeekNext returns the time of the next event; ok is false if none
// remain.
func (e *Engine) PeekNext() (when Cycle, ok bool) {
	if top := e.qPeek(); top != nil {
		return top.when, true
	}
	return 0, false
}

// sameCycleEventLimit is the no-progress watchdog threshold: this many
// events executing without simulated time advancing means a handler is
// rescheduling itself at zero delay forever. A real cycle never comes
// close (the busiest cycles run a few events per controller), so the
// limit only trips on genuine livelock — turning a silent hang into a
// diagnosable panic the run harness can recover into an error.
const sameCycleEventLimit = 1 << 20

// RunUntil executes events in order until the queue is empty or the next
// event lies strictly beyond end. The clock finishes at min(end, last
// event time ≥ now). It returns the number of events executed.
func (e *Engine) RunUntil(end Cycle) uint64 {
	var n uint64
	var burst int
	for {
		top := e.qPeek()
		if top == nil || top.when > end {
			break
		}
		ev := e.qPop()
		if ev.when > e.now {
			e.now = ev.when
			burst = 0
		}
		e.dispatch(&ev)
		n++
		e.fired++
		if burst++; burst > sameCycleEventLimit {
			panic(fmt.Sprintf(
				"sim: watchdog: %d events executed at cycle %d without time advancing (queue=%d) — a handler is rescheduling itself at zero delay",
				burst, e.now, e.wcount+len(e.pq)))
		}
	}
	if e.now < end {
		e.now = end
	}
	return n
}

// dispatch invokes one popped event's handler with the in-dispatch flag
// held, routing phased events to their extended interface.
func (e *Engine) dispatch(ev *event) {
	e.dispatches++
	if ev.phase != 0 {
		ev.h.(PhasedHandler).OnPhasedEvent(ev.arg, ev.phase)
	} else {
		ev.h.OnEvent(ev.arg)
	}
	e.dispatches--
}
