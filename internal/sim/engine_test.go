package sim

import (
	"sort"
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
	sum := 0
	for i := 0; i < n; i++ {
		sum += r.Geometric(10)
	}
	mean := float64(sum) / n
	if mean < 9 || mean > 11 {
		t.Errorf("Geometric(10) sample mean = %v", mean)
	}
	if r.Geometric(0) != 0 || r.Geometric(-1) != 0 {
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

// phasedRecorder implements PhasedHandler, appending labels to a log.
type phasedRecorder struct {
	log   *[]string
	label string
}

func (p phasedRecorder) OnEvent(arg any) {}

func (p phasedRecorder) OnPhasedEvent(arg any, phase uint64) {
	*p.log = append(*p.log, p.label)
}

func TestPhasedEventsRunAfterNormal(t *testing.T) {
	var eng Engine
	var log []string
	pa, pb := eng.NewPhase(), eng.NewPhase()
	if pa == 0 || pb <= pa {
		t.Fatalf("NewPhase not increasing: %d, %d", pa, pb)
	}
	// Schedule in an order adversarial to the desired firing order:
	// higher phase first, then lower, then normal events last.
	eng.SchedulePhasedAt(10, pb, phasedRecorder{&log, "phaseB"}, nil)
	eng.SchedulePhasedAt(10, pa, phasedRecorder{&log, "phaseA2"}, nil)
	eng.SchedulePhasedAt(10, pa, phasedRecorder{&log, "phaseA1"}, nil)
	eng.ScheduleEvent(10, call(func() { log = append(log, "normal1") }), nil)
	eng.ScheduleEvent(10, call(func() {
		log = append(log, "normal2")
		// A normal event scheduled from inside dispatch at the same
		// cycle still precedes every phased event.
		eng.ScheduleEvent(0, call(func() { log = append(log, "normal3") }), nil)
	}), nil)
	// A later cycle's normal event must not interleave.
	eng.ScheduleEvent(11, call(func() { log = append(log, "next-cycle") }), nil)
	eng.RunUntil(20)
	want := []string{"normal1", "normal2", "normal3", "phaseA2", "phaseA1", "phaseB", "next-cycle"}
	if len(log) != len(want) {
		t.Fatalf("fired %v, want %v", log, want)
	}
	for i := range want {
		if log[i] != want[i] {
			t.Fatalf("fired %v, want %v", log, want)
		}
	}
}

func TestPhasedOrderAcrossPushOrder(t *testing.T) {
	// Phase order must dominate push order at a shared cycle: a session
	// that armed its tick long ago and one that armed it just now still
	// fire in phase order.
	var eng Engine
	var log []string
	p1, p2 := eng.NewPhase(), eng.NewPhase()
	eng.SchedulePhasedAt(100, p2, phasedRecorder{&log, "late-session"}, nil)
	eng.ScheduleEvent(50, call(func() {
		eng.SchedulePhasedAt(100, p1, phasedRecorder{&log, "early-session"}, nil)
	}), nil)
	eng.RunUntil(200)
	if len(log) != 2 || log[0] != "early-session" || log[1] != "late-session" {
		t.Fatalf("fired %v, want early-session before late-session", log)
	}
}

func TestSchedulePhasedPanics(t *testing.T) {
	var eng Engine
	mustPanic := func(name string, f func()) {
		defer func() {
			if recover() == nil {
				t.Errorf("%s did not panic", name)
			}
		}()
		f()
	}
	mustPanic("zero phase", func() {
		eng.SchedulePhasedAt(5, 0, phasedRecorder{}, nil)
	})
	eng.RunUntil(10)
	mustPanic("past cycle", func() {
		eng.SchedulePhasedAt(5, eng.NewPhase(), phasedRecorder{}, nil)
	})
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
