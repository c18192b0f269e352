package sim

import (
	"sort"
	"strconv"
	"testing"
	"testing/quick"
)

func TestCyclesPerNS(t *testing.T) {
	cases := []struct {
		ns   float64
		want Cycle
	}{
		{0, 0},
		{1, 4},     // 3.2 rounds up to 4
		{10, 32},   // exact
		{12, 39},   // 38.4 rounds up
		{50, 160},  // tRC of DDR3
		{60, 192},  // tRC of LPDDR2
		{13.5, 44}, // 43.2 rounds up
	}
	for _, c := range cases {
		if got := CyclesPerNS(c.ns); got != c.want {
			t.Errorf("CyclesPerNS(%v) = %d, want %d", c.ns, got, c.want)
		}
	}
}

// call adapts a closure to EventHandler so tests can schedule inline
// bodies.
type call func()

func (f call) OnEvent(any) { f() }

func TestEngineOrdering(t *testing.T) {
	var e Engine
	var got []int
	e.ScheduleEvent(10, call(func() { got = append(got, 2) }), nil)
	e.ScheduleEvent(5, call(func() { got = append(got, 1) }), nil)
	e.ScheduleEvent(10, call(func() { got = append(got, 3) }), nil) // FIFO at same cycle
	e.ScheduleEvent(20, call(func() { got = append(got, 4) }), nil)
	e.RunUntil(100)
	want := []int{1, 2, 3, 4}
	if len(got) != len(want) {
		t.Fatalf("fired %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("fired %v, want %v", got, want)
		}
	}
	if e.Now() != 100 {
		t.Errorf("Now() = %d, want 100", e.Now())
	}
}

func TestEngineRunUntilBoundary(t *testing.T) {
	var e Engine
	fired := 0
	e.ScheduleEvent(10, call(func() { fired++ }), nil)
	e.ScheduleEvent(11, call(func() { fired++ }), nil)
	e.RunUntil(10)
	if fired != 1 {
		t.Fatalf("fired = %d, want 1 (event at end boundary inclusive)", fired)
	}
	if e.Now() != 10 {
		t.Fatalf("Now() = %d, want 10", e.Now())
	}
	e.RunUntil(11)
	if fired != 2 {
		t.Fatalf("fired = %d, want 2", fired)
	}
}

func TestEngineNestedScheduling(t *testing.T) {
	var e Engine
	var order []Cycle
	e.ScheduleEvent(5, call(func() {
		order = append(order, e.Now())
		e.ScheduleEvent(5, call(func() { order = append(order, e.Now()) }), nil)
		e.ScheduleEvent(0, call(func() { order = append(order, e.Now()) }), nil)
	}), nil)
	e.RunUntil(50)
	if len(order) != 3 || order[0] != 5 || order[1] != 5 || order[2] != 10 {
		t.Fatalf("order = %v, want [5 5 10]", order)
	}
}

func TestEnginePastPanics(t *testing.T) {
	var e Engine
	e.ScheduleEvent(10, &nopHandler{}, nil)
	e.RunUntil(10)
	defer func() {
		if recover() == nil {
			t.Fatal("scheduling in the past did not panic")
		}
	}()
	e.ScheduleEventAt(5, &nopHandler{}, nil)
}

func TestEnginePeekNext(t *testing.T) {
	var e Engine
	if _, ok := e.PeekNext(); ok {
		t.Fatal("PeekNext ok on empty engine")
	}
	e.ScheduleEvent(42, &nopHandler{}, nil)
	when, ok := e.PeekNext()
	if !ok || when != 42 {
		t.Fatalf("PeekNext = %d,%v want 42,true", when, ok)
	}
}

// Property: events always fire in non-decreasing time order regardless of
// insertion order.
func TestEngineOrderProperty(t *testing.T) {
	f := func(delays []uint16) bool {
		if len(delays) > 256 {
			delays = delays[:256]
		}
		var e Engine
		var fired []Cycle
		for _, d := range delays {
			e.ScheduleEvent(Cycle(d), call(func() { fired = append(fired, e.Now()) }), nil)
		}
		e.RunUntil(1 << 20)
		if len(fired) != len(delays) {
			return false
		}
		return sort.SliceIsSorted(fired, func(i, j int) bool { return fired[i] < fired[j] })
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestRNGDeterminism(t *testing.T) {
	a, b := NewRNG(7), NewRNG(7)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("same seed produced different streams")
		}
	}
	c := NewRNG(8)
	same := true
	for i := 0; i < 10; i++ {
		if NewRNG(7).Uint64() == c.Uint64() && i > 0 {
			continue
		}
		same = false
	}
	if same {
		t.Fatal("different seeds produced identical streams")
	}
}

func TestRNGFloat64Range(t *testing.T) {
	r := NewRNG(3)
	for i := 0; i < 10000; i++ {
		v := r.Float64()
		if v < 0 || v >= 1 {
			t.Fatalf("Float64 out of range: %v", v)
		}
	}
}

func TestRNGPickDistribution(t *testing.T) {
	r := NewRNG(11)
	weights := []float64{0.7, 0.1, 0.1, 0.1}
	counts := make([]int, 4)
	const n = 100000
	for i := 0; i < n; i++ {
		counts[r.Pick(weights)]++
	}
	frac0 := float64(counts[0]) / n
	if frac0 < 0.68 || frac0 > 0.72 {
		t.Errorf("Pick weight 0.7 produced frequency %v", frac0)
	}
}

func TestRNGPickDegenerate(t *testing.T) {
	r := NewRNG(1)
	if got := r.Pick([]float64{0, 0, 0}); got != 0 {
		t.Errorf("Pick on zero weights = %d, want 0", got)
	}
	if got := r.Pick([]float64{1}); got != 0 {
		t.Errorf("Pick on single weight = %d, want 0", got)
	}
}

func TestRNGZipfSkew(t *testing.T) {
	r := NewRNG(5)
	const n = 1000
	counts := make([]int, n)
	for i := 0; i < 200000; i++ {
		counts[r.Zipf(n, 2.0)]++
	}
	// The first decile must dominate under heavy skew.
	first := 0
	for i := 0; i < n/10; i++ {
		first += counts[i]
	}
	if float64(first)/200000 < 0.4 {
		t.Errorf("Zipf skew too weak: first decile holds %d/200000", first)
	}
	// Uniform case: first decile near 10%.
	counts = make([]int, n)
	for i := 0; i < 200000; i++ {
		counts[r.Zipf(n, 0)]++
	}
	first = 0
	for i := 0; i < n/10; i++ {
		first += counts[i]
	}
	if f := float64(first) / 200000; f < 0.08 || f > 0.12 {
		t.Errorf("Zipf(s=0) first decile = %v, want ~0.10", f)
	}
}

func TestRNGGeometricMean(t *testing.T) {
	r := NewRNG(9)
	const n = 200000
	sum, g := 0, NewGeo(10)
	for i := 0; i < n; i++ {
		sum += r.Geometric(g)
	}
	mean := float64(sum) / n
	if mean < 9 || mean > 11 {
		t.Errorf("Geometric(10) sample mean = %v", mean)
	}
	if r.Geometric(NewGeo(0)) != 0 || r.Geometric(NewGeo(-1)) != 0 {
		t.Error("Geometric of non-positive mean must be 0")
	}
}

func TestRNGBool(t *testing.T) {
	r := NewRNG(13)
	hits := 0
	for i := 0; i < 100000; i++ {
		if r.Bool(0.25) {
			hits++
		}
	}
	if f := float64(hits) / 100000; f < 0.23 || f > 0.27 {
		t.Errorf("Bool(0.25) frequency = %v", f)
	}
}

func TestEventsFiredCounter(t *testing.T) {
	var e Engine
	h := &nopHandler{}
	for i := 0; i < 5; i++ {
		e.ScheduleEvent(Cycle(i), h, nil)
	}
	e.RunUntil(10)
	if e.EventsFired() != 5 {
		t.Fatalf("EventsFired = %d", e.EventsFired())
	}
}

func TestNegativeDelayPanics(t *testing.T) {
	var e Engine
	defer func() {
		if recover() == nil {
			t.Fatal("negative delay did not panic")
		}
	}()
	e.ScheduleEvent(-1, &nopHandler{}, nil)
}

// logTimer registers a timer whose handler appends label to log and
// then runs then (if set).
func logTimer(e *Engine, log *[]string, label string, then func()) Timer {
	return e.NewTimer(call(func() {
		*log = append(*log, label)
		if then != nil {
			then()
		}
	}))
}

func wantLog(t *testing.T, got []string, want ...string) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("fired %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("fired %v, want %v", got, want)
		}
	}
}

// TestTimersRunAfterHeapEvents: at one cycle every heap event runs
// before any timer, a heap event a timer schedules for its own cycle
// included, and timers run in ascending phase whatever their arming
// order.
func TestTimersRunAfterHeapEvents(t *testing.T) {
	var eng Engine
	var log []string
	pa, pb := eng.NewPhase(), eng.NewPhase()
	if pa == 0 || pb <= pa {
		t.Fatalf("NewPhase not increasing: %d, %d", pa, pb)
	}
	tb := logTimer(&eng, &log, "timerB", nil)
	ta := logTimer(&eng, &log, "timerA", func() {
		eng.ScheduleEvent(0, call(func() { log = append(log, "from-timerA") }), nil)
	})
	// Armed in an order adversarial to the firing order: the later
	// phase first, the heap events last.
	eng.ArmTimer(tb, 10, pb)
	eng.ArmTimer(ta, 10, pa)
	eng.ScheduleEvent(10, call(func() { log = append(log, "normal1") }), nil)
	eng.ScheduleEvent(10, call(func() {
		log = append(log, "normal2")
		eng.ScheduleEvent(0, call(func() { log = append(log, "normal3") }), nil)
	}), nil)
	eng.ScheduleEvent(11, call(func() { log = append(log, "next-cycle") }), nil)
	eng.RunUntil(20)
	wantLog(t, log, "normal1", "normal2", "normal3", "timerA", "from-timerA", "timerB", "next-cycle")
	if eng.EventsFired() != 7 {
		t.Fatalf("EventsFired = %d, want 7 (timer dispatches count)", eng.EventsFired())
	}
}

// TestTimerPhaseDominatesArmingOrder: a session that armed its timer
// long ago and one that armed it just now still fire in phase order.
func TestTimerPhaseDominatesArmingOrder(t *testing.T) {
	var eng Engine
	var log []string
	p1, p2 := eng.NewPhase(), eng.NewPhase()
	early := logTimer(&eng, &log, "early-session", nil)
	late := logTimer(&eng, &log, "late-session", nil)
	eng.ArmTimer(late, 100, p2)
	eng.ScheduleEvent(50, call(func() { eng.ArmTimer(early, 100, p1) }), nil)
	eng.RunUntil(200)
	wantLog(t, log, "early-session", "late-session")
}

// TestTimerRearm: re-arming moves a timer earlier or later, a stopped
// timer never runs, a superseded arming never runs, and a timer is
// unarmed once it has run unless its handler re-armed it.
func TestTimerRearm(t *testing.T) {
	var eng Engine
	var log []string
	at := func(label string) string { return label + "@" + strconv.Itoa(int(eng.Now())) }
	var self Timer
	n := 0
	self = eng.NewTimer(call(func() {
		log = append(log, at("self"))
		if n++; n < 3 {
			eng.ArmTimer(self, eng.Now()+5, 0)
		}
	}))
	moved := eng.NewTimer(call(func() { log = append(log, at("moved")) }))
	stopped := eng.NewTimer(call(func() { log = append(log, at("stopped")) }))
	if _, ok := eng.TimerAt(moved); ok {
		t.Fatal("a new timer reads as armed")
	}
	eng.ArmTimer(self, 10, 0)
	eng.ArmTimer(moved, 40, 0)
	eng.ArmTimer(moved, 12, 0) // earlier
	eng.ArmTimer(moved, 30, 0) // later
	eng.ArmTimer(stopped, 20, 0)
	eng.StopTimer(stopped)
	if when, ok := eng.TimerAt(moved); !ok || when != 30 {
		t.Fatalf("TimerAt(moved) = %d, %v; want 30, true", when, ok)
	}
	if next, ok := eng.PeekNext(); !ok || next != 10 {
		t.Fatalf("PeekNext = %d, %v; want 10, true", next, ok)
	}
	eng.RunUntil(100)
	wantLog(t, log, "self@10", "self@15", "self@20", "moved@30")
	for _, tm := range []Timer{self, moved, stopped} {
		if _, ok := eng.TimerAt(tm); ok {
			t.Fatalf("timer %d still armed after running", tm)
		}
	}
	if _, ok := eng.PeekNext(); ok {
		t.Fatal("PeekNext reports work with every timer unarmed")
	}
	if eng.EventsFired() != 4 {
		t.Fatalf("EventsFired = %d, want 4", eng.EventsFired())
	}
}

// TestTimerArmPastPanics: arming a timer before Now is a model bug.
func TestTimerArmPastPanics(t *testing.T) {
	var eng Engine
	tm := eng.NewTimer(&nopHandler{})
	eng.RunUntil(10)
	defer func() {
		if recover() == nil {
			t.Fatal("ArmTimer in the past did not panic")
		}
	}()
	eng.ArmTimer(tm, 5, 0)
}

func TestInDispatch(t *testing.T) {
	var eng Engine
	if eng.InDispatch() {
		t.Fatal("InDispatch true outside dispatch")
	}
	saw := false
	eng.ScheduleEvent(1, call(func() {
		saw = eng.InDispatch()
	}), nil)
	eng.RunUntil(5)
	if !saw {
		t.Fatal("InDispatch false inside a handler")
	}
	if eng.InDispatch() {
		t.Fatal("InDispatch stuck true after dispatch")
	}
}
