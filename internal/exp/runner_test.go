package exp

import (
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"hetsim/internal/core"
	"hetsim/internal/grid"
	"hetsim/internal/sim"
	"hetsim/internal/store"
)

// fakeCell is a cell keyed by n. Its benchmark is unknown, so it holds
// no prewarm checkpoints; the steps below never simulate it.
func fakeCell(n int) grid.Cell { return grid.Cell{Bench: fmt.Sprint("fake-", n)} }

// stepOf adapts fn to a Step that ignores the key and checkpoints.
func stepOf(fn func(c grid.Cell) (core.Results, error)) Step {
	return func(_ store.RunKey, c grid.Cell, _ *core.Checkpoints) (core.Results, error) { return fn(c) }
}

// cycles is a step that answers every cell with n cycles, counting its
// calls in calls.
func cycles(n sim.Cycle, calls *atomic.Int32) Step {
	return stepOf(func(grid.Cell) (core.Results, error) {
		calls.Add(1)
		return core.Results{Cycles: n}, nil
	})
}

func TestRunnerDedupsSameKey(t *testing.T) {
	r := NewRunner(Options{Workers: 4})
	var calls atomic.Int32
	step := cycles(42, &calls)
	var wg sync.WaitGroup
	for i := 0; i < 32; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			res, err := r.Start(step, fakeCell(0))[0].Wait()
			if err != nil || res.Cycles != 42 {
				t.Errorf("Wait = %v, %v", res.Cycles, err)
			}
		}()
	}
	wg.Wait()
	if got := calls.Load(); got != 1 {
		t.Fatalf("step ran %d times, want 1", got)
	}
	if st := r.Stats(); st != (Stats{Submitted: 1, Deduped: 31, Executed: 1, Held: 1}) {
		t.Fatalf("stats = %+v", st)
	}
}

// TestRunnerMemoizesUntilRelease pins the memo's lifetime: a finished
// run answers every later Start of its key until Release forgets it,
// after which the key runs again. Release leaves a run in flight
// alone, and a Task taken before Release still answers Wait.
func TestRunnerMemoizesUntilRelease(t *testing.T) {
	r := NewRunner(Options{Workers: 2})
	var calls atomic.Int32
	c := fakeCell(1)
	first := r.Start(cycles(1, &calls), c)[0]
	if res, _ := first.Wait(); res.Cycles != 1 {
		t.Fatalf("cycles = %d", res.Cycles)
	}
	// A later Start of the key returns the memoized result and never
	// runs its (different) step.
	if res, _ := r.Start(cycles(2, &calls), c)[0].Wait(); res.Cycles != 1 {
		t.Fatalf("restart returned %d cycles, want memoized 1", res.Cycles)
	}
	if calls.Load() != 1 {
		t.Fatalf("calls = %d", calls.Load())
	}

	r.Release(c)
	if st := r.Stats(); st != (Stats{Submitted: 1, Deduped: 1, Executed: 1}) {
		t.Fatalf("stats after Release = %+v", st)
	}
	if res, err := first.Wait(); res.Cycles != 1 || err != nil {
		t.Fatalf("released task Wait = %d, %v", res.Cycles, err)
	}
	if res, _ := r.Start(cycles(3, &calls), c)[0].Wait(); res.Cycles != 3 {
		t.Fatalf("released key returned %d cycles, want a fresh run's 3", res.Cycles)
	}
	if st := r.Stats(); st.Submitted != 2 || calls.Load() != 2 {
		t.Fatalf("released key did not run again: stats %+v, calls %d", st, calls.Load())
	}

	// A run in flight survives Release: a later Start still joins it.
	gate := make(chan struct{})
	busy := fakeCell(2)
	inFlight := r.Start(stepOf(func(grid.Cell) (core.Results, error) {
		<-gate
		return core.Results{Cycles: 4}, nil
	}), busy)[0]
	r.Release(busy)
	if r.Start(cycles(5, &calls), busy)[0] != inFlight {
		t.Fatal("Release dropped a run in flight")
	}
	close(gate)
	if res, _ := inFlight.Wait(); res.Cycles != 4 {
		t.Fatalf("in-flight run = %d cycles", res.Cycles)
	}
	if st := r.Stats(); st != (Stats{Submitted: 3, Deduped: 2, Executed: 3, Held: 2}) {
		t.Fatalf("stats = %+v", st)
	}
}

func TestRunnerDistinctKeysAllRun(t *testing.T) {
	r := NewRunner(Options{Workers: 3})
	cells := make([]grid.Cell, 20)
	for i := range cells {
		cells[i] = fakeCell(i)
	}
	tasks := r.Start(stepOf(func(c grid.Cell) (core.Results, error) {
		return core.Results{Benchmark: c.Bench}, nil
	}), cells...)
	for i, tk := range tasks {
		if res, err := tk.Wait(); err != nil || res.Benchmark != cells[i].Bench {
			t.Fatalf("cell %d = %q, %v", i, res.Benchmark, err)
		}
	}
	if st := r.Stats(); st.Submitted != 20 || st.Executed != 20 || st.Held != 20 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestRunnerBoundedConcurrency(t *testing.T) {
	const workers = 3
	r := NewRunner(Options{Workers: workers})
	var inFlight, peak atomic.Int32
	gate := make(chan struct{})
	cells := make([]grid.Cell, 16)
	for i := range cells {
		cells[i] = fakeCell(i)
	}
	r.Start(stepOf(func(grid.Cell) (core.Results, error) {
		n := inFlight.Add(1)
		for {
			old := peak.Load()
			if n <= old || peak.CompareAndSwap(old, n) {
				break
			}
		}
		<-gate
		inFlight.Add(-1)
		return core.Results{}, nil
	}), cells...)
	close(gate)
	// Every cell joins its existing run, so the nil step never runs.
	for _, tk := range r.Start(nil, cells...) {
		tk.Wait()
	}
	if st := r.Stats(); st.Submitted != len(cells) || st.Deduped != len(cells) {
		t.Fatalf("stats = %+v", st)
	}
	if got := peak.Load(); got > workers {
		t.Fatalf("peak concurrency %d exceeds bound %d", got, workers)
	}
}

func TestRunnerErrorPropagates(t *testing.T) {
	r := NewRunner(Options{Workers: 1})
	boom := errors.New("boom")
	c := fakeCell(0)
	fail := stepOf(func(grid.Cell) (core.Results, error) { return core.Results{}, boom })
	if _, err := r.Start(fail, c)[0].Wait(); !errors.Is(err, boom) {
		t.Fatalf("err = %v", err)
	}
	// The error is memoized like any result.
	var calls atomic.Int32
	if _, err := r.Start(cycles(7, &calls), c)[0].Wait(); !errors.Is(err, boom) {
		t.Fatalf("restart err = %v, want memoized boom", err)
	}
}

func TestRunnerPanicFailsOnlyItsOwnCell(t *testing.T) {
	r := NewRunner(Options{Workers: 2})
	const n = 8
	const bad = 3
	cells := make([]grid.Cell, n)
	for i := range cells {
		cells[i] = fakeCell(i)
	}
	tasks := r.Start(stepOf(func(c grid.Cell) (core.Results, error) {
		if c.Bench == cells[bad].Bench {
			panic("injected crash")
		}
		return core.Results{Benchmark: c.Bench}, nil
	}), cells...)
	for i, tk := range tasks {
		res, err := tk.Wait()
		if i == bad {
			if err == nil {
				t.Fatal("panicking cell reported no error")
			}
			if !strings.Contains(err.Error(), "injected crash") {
				t.Fatalf("panic value missing from error: %v", err)
			}
			if !strings.Contains(err.Error(), "runner_test.go") {
				t.Fatalf("stack text missing from error: %v", err)
			}
			continue
		}
		if err != nil || res.Benchmark != cells[i].Bench {
			t.Fatalf("sibling cell %d = (%q, %v)", i, res.Benchmark, err)
		}
	}
	if st := r.Stats(); st.Executed != n {
		t.Fatalf("stats = %+v, want Executed=%d", st, n)
	}
	// The panic error is memoized like any other error.
	var calls atomic.Int32
	if _, err := r.Start(cycles(1, &calls), cells[bad])[0].Wait(); err == nil {
		t.Fatal("restarted cell lost its memoized panic error")
	}
}

func TestRunnerDefaultWorkers(t *testing.T) {
	r := NewRunner(Options{})
	if got, want := r.Workers(), runtime.GOMAXPROCS(0); got != want {
		t.Fatalf("workers = %d, want GOMAXPROCS %d", got, want)
	}
	var calls atomic.Int32
	if res, err := r.Start(cycles(5, &calls), fakeCell(0))[0].Wait(); res.Cycles != 5 || err != nil {
		t.Fatalf("Wait = %d, %v", res.Cycles, err)
	}
}
