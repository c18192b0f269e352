// Package sim provides the deterministic event-driven simulation kernel
// shared by every component of the simulator: a monotonic cycle clock, a
// monomorphic 4-ary min-heap event queue with stable FIFO tie-breaking,
// re-armable timer slots for recurring callbacks, and a seeded
// pseudo-random number generator suitable for reproducible workloads.
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

import (
	"fmt"
	"slices"
)

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

// event is a scheduled callback, stored by value in the heap.
type event struct {
	when Cycle
	seq  uint64 // FIFO tie-break for events at the same cycle
	h    EventHandler
	arg  any
}

// before reports heap ordering: time first, then insertion order.
func (e *event) before(o *event) bool {
	if e.when != o.when {
		return e.when < o.when
	}
	return e.seq < o.seq
}

// Engine is the event-driven simulation kernel. The zero value is ready
// to use. Engine is not safe for concurrent use: the whole simulator is
// single-threaded by design so that runs are bit-for-bit reproducible.
type Engine struct {
	now        Cycle
	seq        uint64
	pq         []event // 4-ary min-heap ordered by (when, seq)
	fired      uint64
	lastPhase  uint64
	dispatches int // >0 while inside an event handler

	// Timer slots (see NewTimer), padded with never-armed slots to a
	// power of two, under a tournament tree: tree[k] holds the earliest
	// slot below node k, tree[n+i] is leaf i, and tree[1] is the root.
	timers  []timer
	tree    []int32
	firing  int32 // slot in dispatch, plus one; 0 when none
	rearmed bool  // the firing slot was armed or stopped in dispatch
}

// timer is one re-armable timer slot.
type timer struct {
	when  Cycle // unarmed when timerOff
	phase uint64
	h     EventHandler
}

// timerOff is the time of an unarmed timer slot, past any end RunUntil
// can reach.
const timerOff = Cycle(1<<63 - 1)

// Now reports the current simulated time.
func (e *Engine) Now() Cycle { return e.now }

// EventsFired reports how many events have executed, timer dispatches
// included, for tests and stats.
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
// runs it during the current cycle, after every event already scheduled
// for this cycle and before its timers. It performs no allocation: the
// event is stored by value and arg carries pointer-shaped context
// directly.
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
	heapPush(&e.pq, event{when: when, seq: e.seq, h: h, arg: arg})
}

// NewPhase allocates a fresh nonzero phase value, strictly greater than
// every phase allocated before it. Phases order timers that land on the
// same cycle: an entity that acquires its phase when it starts a
// scheduling session keeps its same-cycle ordering against other
// sessions stable no matter when its timer was armed.
func (e *Engine) NewPhase() uint64 {
	e.lastPhase++
	return e.lastPhase
}

// Timer names a timer slot registered with NewTimer.
type Timer int32

// NewTimer registers a re-armable timer slot that runs h.OnEvent(nil)
// at the cycle it is armed for. A slot holds at most one arming: arming
// it again moves it, so a superseded arming never runs. A slot is
// unarmed until ArmTimer and again once it has run, unless its handler
// re-armed it. Timers run after every heap event of their cycle, heap
// events scheduled from a timer's handler included, and among
// themselves in ascending phase, then registration order.
func (e *Engine) NewTimer(h EventHandler) Timer {
	id := slices.IndexFunc(e.timers, func(t timer) bool { return t.h == nil })
	if id < 0 {
		// Full: double the slots and rebuild the tree over them.
		id = len(e.timers)
		m := max(1, 2*id)
		for len(e.timers) < m {
			e.timers = append(e.timers, timer{when: timerOff})
		}
		e.tree = make([]int32, 2*m)
		for i := range m {
			e.tree[m+i] = int32(i)
		}
		for k := m - 1; k >= 1; k-- {
			e.tree[k] = e.earlier(e.tree[2*k], e.tree[2*k+1])
		}
	}
	e.timers[id].h = h
	return Timer(id)
}

// ArmTimer arms t for cycle when, in phase (see NewPhase), replacing its
// arming if it has one. Arming in the past panics.
func (e *Engine) ArmTimer(t Timer, when Cycle, phase uint64) {
	if when < e.now {
		panic("sim: timer armed in the past")
	}
	e.timers[t].when, e.timers[t].phase = when, phase
	e.timerMoved(t)
}

// StopTimer unarms t.
func (e *Engine) StopTimer(t Timer) {
	e.timers[t].when = timerOff
	e.timerMoved(t)
}

// TimerAt reports the cycle t is armed for; ok is false if it is
// unarmed. Inside its own handler a timer reads as armed for Now until
// the handler re-arms or stops it.
func (e *Engine) TimerAt(t Timer) (when Cycle, ok bool) {
	when = e.timers[t].when
	return when, when != timerOff
}

// timerMoved restores the tree above slot t after its key changed. A
// slot in dispatch defers that to the end of its dispatch, so a timer
// its own handler re-arms costs one tree update.
func (e *Engine) timerMoved(t Timer) {
	if int32(t)+1 == e.firing {
		e.rearmed = true
		return
	}
	e.fixTimer(int32(t))
}

// fixTimer replays the tournament on the path from slot i to the root.
func (e *Engine) fixTimer(i int32) {
	for k := (len(e.timers) + int(i)) / 2; k >= 1; k /= 2 {
		e.tree[k] = e.earlier(e.tree[2*k], e.tree[2*k+1])
	}
}

// earlier returns whichever of slots a and b runs first: by time, then
// phase, then slot.
func (e *Engine) earlier(a, b int32) int32 {
	ta, tb := &e.timers[a], &e.timers[b]
	if tb.when < ta.when || tb.when == ta.when &&
		(tb.phase < ta.phase || tb.phase == ta.phase && b < a) {
		return b
	}
	return a
}

// nextTimer returns the slot that runs next and its time (timerOff when
// no timer is armed).
func (e *Engine) nextTimer() (int32, Cycle) {
	if len(e.tree) == 0 {
		return 0, timerOff
	}
	i := e.tree[1]
	return i, e.timers[i].when
}

// InDispatch reports whether the caller is executing inside an event
// handler (as opposed to code interleaved between RunUntil calls, such
// as the cycle-stepped CPU cores). Entities whose same-cycle visibility
// rules differ between the two contexts — a request enqueued from an
// event is visible to a scheduling pass later in the same cycle, one
// enqueued from core-step context only from the next cycle on — branch
// on this instead of threading context flags through every caller.
func (e *Engine) InDispatch() bool { return e.dispatches > 0 }

// PeekNext returns the time of the next event or armed timer; ok is
// false if none remain.
func (e *Engine) PeekNext() (when Cycle, ok bool) {
	_, when = e.nextTimer()
	if len(e.pq) > 0 && e.pq[0].when < when {
		when = e.pq[0].when
	}
	return when, when != timerOff
}

// sameCycleEventLimit is the no-progress watchdog threshold: this many
// events (timer dispatches included) executing without simulated time
// advancing means a handler is rescheduling itself at zero delay
// forever. A real cycle never comes close (the busiest cycles run a few
// events per controller), so the limit only trips on genuine livelock —
// turning a silent hang into a diagnosable panic the run harness can
// recover into an error.
const sameCycleEventLimit = 1 << 20

// RunUntil executes events and timers in order until none is due at or
// before end. At a cycle, every heap event runs before any timer. The
// clock finishes at min(end, last event time ≥ now). It returns the
// number of events executed.
func (e *Engine) RunUntil(end Cycle) uint64 {
	var n uint64
	var burst int
	for {
		ti, tw := e.nextTimer()
		var when Cycle
		if len(e.pq) > 0 && e.pq[0].when <= tw {
			if when = e.pq[0].when; when > end {
				break
			}
			ev := heapPop(&e.pq)
			e.advance(when, &burst)
			e.dispatches++
			ev.h.OnEvent(ev.arg)
			e.dispatches--
		} else {
			if tw > end || tw == timerOff {
				break
			}
			e.advance(tw, &burst)
			e.fireTimer(ti)
		}
		n++
		e.fired++
		if burst++; burst > sameCycleEventLimit {
			panic(fmt.Sprintf(
				"sim: watchdog: %d events executed at cycle %d without time advancing (queue=%d) — a handler is rescheduling itself at zero delay",
				burst, e.now, len(e.pq)))
		}
	}
	if e.now < end {
		e.now = end
	}
	return n
}

// advance moves the clock to when, restarting the same-cycle count if
// time moved.
func (e *Engine) advance(when Cycle, burst *int) {
	if when > e.now {
		e.now = when
		*burst = 0
	}
}

// fireTimer runs slot i's handler with the in-dispatch flag held. The
// slot stays in the tree under its current time while the handler runs;
// afterwards it takes the handler's re-arming, or is unarmed, in one
// tree update.
func (e *Engine) fireTimer(i int32) {
	e.firing, e.rearmed = i+1, false
	e.dispatches++
	e.timers[i].h.OnEvent(nil)
	e.dispatches--
	e.firing = 0
	if !e.rearmed {
		e.timers[i].when = timerOff
	}
	e.fixTimer(i)
}
