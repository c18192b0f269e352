package sim

import (
	"strings"
	"testing"
)

// zeroDelayLoop is a handler that reschedules itself at zero delay —
// the classic livelock that freezes simulated time while the host
// spins forever.
type zeroDelayLoop struct{ e *Engine }

func (h *zeroDelayLoop) OnEvent(arg any) { h.e.ScheduleEvent(0, h, nil) }

// TestWatchdogCatchesFrozenTime: the engine must panic (diagnosably)
// instead of spinning when a handler livelocks at one cycle.
func TestWatchdogCatchesFrozenTime(t *testing.T) {
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("engine spun out of a zero-delay loop without panicking")
		}
		msg, ok := r.(string)
		if !ok || !strings.Contains(msg, "sim: watchdog") {
			t.Fatalf("panic = %v, want a sim: watchdog report", r)
		}
		if !strings.Contains(msg, "cycle") {
			t.Fatalf("watchdog report names no cycle: %q", msg)
		}
	}()
	e := &Engine{}
	h := &zeroDelayLoop{e}
	e.ScheduleEvent(1, h, nil)
	e.RunUntil(100)
}

// TestWatchdogAllowsDenseSameCycleBursts: a large but finite same-cycle
// burst (well under the limit) must run to completion — the watchdog
// only fires on genuine livelock.
func TestWatchdogAllowsDenseSameCycleBursts(t *testing.T) {
	e := &Engine{}
	h := &nopHandler{}
	for i := 0; i < 10_000; i++ {
		e.ScheduleEvent(5, h, nil)
	}
	e.RunUntil(10)
	if h.n != 10_000 {
		t.Fatalf("ran %d of 10000 same-cycle events", h.n)
	}
}
