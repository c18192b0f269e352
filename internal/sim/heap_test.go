package sim

import (
	"math/rand"
	"sort"
	"strconv"
	"testing"
	"testing/quick"
)

// refModel is a trivially correct model of the engine's queue: heap
// events in a slice kept sorted by (when, seq), and timer slots in a
// plain slice scanned for the earliest (when, phase, slot). It shares no
// ordering code with the engine. At one cycle a heap event goes before
// any timer.
type refModel struct {
	events []refEvent
	timers []refTimer
}

type refEvent struct {
	when Cycle
	seq  uint64
}

type refTimer struct {
	when  Cycle
	phase uint64
	armed bool
}

func (m *refModel) push(ev refEvent) {
	i := sort.Search(len(m.events), func(i int) bool {
		o := m.events[i]
		return ev.when < o.when || (ev.when == o.when && ev.seq < o.seq)
	})
	m.events = append(m.events, refEvent{})
	copy(m.events[i+1:], m.events[i:])
	m.events[i] = ev
}

// next returns the label and time of what runs next; timer is the
// slot, or -1 for the first heap event.
func (m *refModel) next() (label string, when Cycle, timer int, ok bool) {
	timer = -1
	for i, tm := range m.timers {
		if !tm.armed {
			continue
		}
		if timer < 0 || tm.when < m.timers[timer].when ||
			(tm.when == m.timers[timer].when && tm.phase < m.timers[timer].phase) {
			timer = i
		}
	}
	if len(m.events) > 0 && (timer < 0 || m.events[0].when <= m.timers[timer].when) {
		return "e" + strconv.FormatUint(m.events[0].seq, 10), m.events[0].when, -1, true
	}
	if timer < 0 {
		return "", 0, -1, false
	}
	return "t" + strconv.Itoa(timer), m.timers[timer].when, timer, true
}

// seqHandler reports the model sequence number each heap event carries.
type seqHandler struct{ fire func(label string) }

func (h seqHandler) OnEvent(arg any) { h.fire("e" + strconv.FormatUint(arg.(uint64), 10)) }

// TestHeapMatchesReferenceModel drives random interleavings of heap
// events and timer arms, re-arms and stops through the engine and a
// sorted-slice model in lockstep: every dispatch must be the one the
// model runs next, under the full order (heap events by (when, seq),
// then timers by (when, phase, slot)). The same random actions also run
// inside dispatch, so heap events pushed from a timer for its own
// cycle, timers re-armed from their own handler and slots registered
// mid-dispatch are all covered. A small time range makes same-cycle ties
// common, and occasional far-future events sit deep in the heap while
// the near ones churn above them.
func TestHeapMatchesReferenceModel(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 200; trial++ {
		var e Engine
		var m refModel
		var seq uint64
		var ids []Timer
		var fire func(label string)
		h := seqHandler{func(label string) { fire(label) }}
		register := func() {
			i := len(ids)
			ids = append(ids, e.NewTimer(call(func() { fire("t" + strconv.Itoa(i)) })))
			m.timers = append(m.timers, refTimer{})
		}
		act := func() {
			now := e.Now()
			switch r := rng.Intn(8); {
			case r < 4:
				seq++
				when := now + Cycle(rng.Intn(4))
				if rng.Intn(16) == 0 {
					when += 1<<20 + Cycle(rng.Intn(1<<20))
				}
				e.ScheduleEventAt(when, h, seq)
				m.push(refEvent{when, seq})
			case r < 6:
				i := rng.Intn(len(ids))
				when, phase := now+Cycle(rng.Intn(4)), uint64(rng.Intn(3))
				e.ArmTimer(ids[i], when, phase)
				m.timers[i] = refTimer{when, phase, true}
			case r < 7:
				i := rng.Intn(len(ids))
				e.StopTimer(ids[i])
				m.timers[i].armed = false
			default:
				if len(ids) < 9 {
					register()
				}
			}
		}
		fire = func(label string) {
			want, when, timer, ok := m.next()
			if !ok || label != want || when != e.Now() {
				t.Fatalf("trial %d: dispatched %s at %d, model runs %s at %d (ok=%v)",
					trial, label, e.Now(), want, when, ok)
			}
			if timer >= 0 {
				m.timers[timer].armed = false
			} else {
				m.events = m.events[1:]
			}
			if rng.Intn(2) == 0 {
				act()
			}
		}
		for range 1 + rng.Intn(4) {
			register()
		}
		run := func() {
			_, when, _, _ := m.next()
			if got, ok := e.PeekNext(); !ok || got != when {
				t.Fatalf("trial %d: PeekNext = %d, %v; model %d", trial, got, ok, when)
			}
			e.RunUntil(when)
			if _, w, _, ok := m.next(); ok && w <= e.Now() {
				t.Fatalf("trial %d: RunUntil(%d) left work due at %d", trial, when, w)
			}
		}
		for step := 0; step < 400; step++ {
			if _, _, _, ok := m.next(); !ok || rng.Intn(3) != 0 {
				act()
			} else {
				run()
			}
			for i, tm := range m.timers {
				if when, ok := e.TimerAt(ids[i]); ok != tm.armed || (ok && when != tm.when) {
					t.Fatalf("trial %d: TimerAt(%d) = %d, %v; model %+v", trial, i, when, ok, tm)
				}
			}
		}
		for {
			if _, _, _, ok := m.next(); !ok {
				break
			}
			run()
		}
		if _, ok := e.PeekNext(); ok || len(e.pq) != 0 {
			t.Fatalf("trial %d: engine kept work past the model", trial)
		}
	}
}

// TestHeapFIFOTieBreakProperty checks via quick that events scheduled for
// the same cycle always fire in scheduling order.
func TestHeapFIFOTieBreakProperty(t *testing.T) {
	f := func(whens []uint8) bool {
		if len(whens) > 512 {
			whens = whens[:512]
		}
		var e Engine
		type fired struct {
			when Cycle
			id   int
		}
		var got []fired
		for id, w := range whens {
			id, w := id, w
			e.ScheduleEvent(Cycle(w), call(func() { got = append(got, fired{Cycle(w), id}) }), nil)
		}
		e.RunUntil(1 << 20)
		if len(got) != len(whens) {
			return false
		}
		// Non-decreasing time; within one time, ascending id.
		for i := 1; i < len(got); i++ {
			if got[i].when < got[i-1].when {
				return false
			}
			if got[i].when == got[i-1].when && got[i].id < got[i-1].id {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// handlerRecorder tests the (handler, arg) scheduling form.
type handlerRecorder struct {
	fired []any
}

func (h *handlerRecorder) OnEvent(arg any) { h.fired = append(h.fired, arg) }

func TestScheduleEventDispatch(t *testing.T) {
	var e Engine
	h := &handlerRecorder{}
	x, y := new(int), new(int)
	e.ScheduleEvent(10, h, x)
	e.ScheduleEvent(5, h, y)
	e.ScheduleEvent(10, h, nil) // FIFO after x at cycle 10
	e.RunUntil(100)
	if len(h.fired) != 3 || h.fired[0] != y || h.fired[1] != x || h.fired[2] != nil {
		t.Fatalf("handler dispatch order/args wrong: %v", h.fired)
	}
}

func TestScheduleEventPastPanics(t *testing.T) {
	var e Engine
	e.ScheduleEvent(10, &handlerRecorder{}, nil)
	e.RunUntil(10)
	defer func() {
		if recover() == nil {
			t.Fatal("ScheduleEventAt in the past did not panic")
		}
	}()
	e.ScheduleEventAt(5, &handlerRecorder{}, nil)
}

func TestScheduleEventNegativeDelayPanics(t *testing.T) {
	var e Engine
	defer func() {
		if recover() == nil {
			t.Fatal("negative handler delay did not panic")
		}
	}()
	e.ScheduleEvent(-1, &handlerRecorder{}, nil)
}

// TestScheduleEventZeroAlloc pins the zero-allocation contract of the
// handler scheduling form at steady state (heap storage amortized away by
// pre-growing).
func TestScheduleEventZeroAlloc(t *testing.T) {
	var e Engine
	h := &nopHandler{}
	// Pre-grow the heap so append growth does not count.
	for i := 0; i < 1024; i++ {
		e.ScheduleEvent(1, h, nil)
	}
	e.RunUntil(1)
	avg := testing.AllocsPerRun(100, func() {
		for i := 0; i < 64; i++ {
			e.ScheduleEvent(1, h, nil)
		}
		e.RunUntil(e.Now() + 1)
	})
	if avg != 0 {
		t.Fatalf("ScheduleEvent+RunUntil allocated %.1f times per cycle, want 0", avg)
	}
}

type nopHandler struct{ n int }

func (h *nopHandler) OnEvent(any) { h.n++ }
