package sim

import (
	"math/rand"
	"sort"
	"strconv"
	"testing"
	"testing/quick"
)

// refModel is a trivially correct priority queue: a slice kept sorted by
// the (when, phase, seq) key, compared field by field here rather than
// through event.before so the model does not share the heap's ordering
// code. The heap must pop exactly this order.
type refModel struct {
	events []event
}

func refLess(a, b *event) bool {
	ka := [3]uint64{uint64(a.when), a.phase, a.seq}
	kb := [3]uint64{uint64(b.when), b.phase, b.seq}
	for i := range ka {
		if ka[i] != kb[i] {
			return ka[i] < kb[i]
		}
	}
	return false
}

func (m *refModel) push(ev event) {
	i := sort.Search(len(m.events), func(i int) bool { return refLess(&ev, &m.events[i]) })
	m.events = append(m.events, event{})
	copy(m.events[i+1:], m.events[i:])
	m.events[i] = ev
}

func (m *refModel) pop() event {
	ev := m.events[0]
	m.events = m.events[1:]
	return ev
}

// TestHeapMatchesReferenceModel drives random schedule/fire interleavings
// through the engine's heap and a sorted-slice model and requires
// identical pop order under the full (when, phase, seq) key: random
// phases in 0–2 mix normal and phased events on one cycle, a small time
// range makes same-cycle ties common, and occasional far-future events
// sit deep in the heap while the near ones churn above them.
func TestHeapMatchesReferenceModel(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 200; trial++ {
		var e Engine
		var m refModel
		var seq uint64
		check := func(at string) {
			t.Helper()
			got, want := heapPop(&e.pq), m.pop()
			if got.when != want.when || got.phase != want.phase || got.seq != want.seq {
				t.Fatalf("trial %d %s: pop = (%d,%d,%d), model = (%d,%d,%d)", trial, at,
					got.when, got.phase, got.seq, want.when, want.phase, want.seq)
			}
		}
		for step := 0; step < 400; step++ {
			if len(e.pq) == 0 || rng.Intn(3) != 0 {
				seq++
				when := Cycle(rng.Intn(16))
				if rng.Intn(16) == 0 {
					when += 1<<20 + Cycle(rng.Intn(1<<20))
				}
				ev := event{when: when, phase: uint64(rng.Intn(3)), seq: seq}
				heapPush(&e.pq, ev)
				m.push(ev)
			} else {
				check("step " + strconv.Itoa(step))
			}
		}
		for len(m.events) > 0 {
			check("drain")
		}
		if len(e.pq) != 0 {
			t.Fatalf("trial %d: heap kept %d events past the model", trial, len(e.pq))
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
