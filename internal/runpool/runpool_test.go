package runpool

import (
	"errors"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
)

func TestDedupSameKey(t *testing.T) {
	p := New[string, int](4)
	var calls atomic.Int32
	fn := func() (int, error) {
		calls.Add(1)
		return 42, nil
	}
	var wg sync.WaitGroup
	for i := 0; i < 32; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			v, err := p.Do("k", fn)
			if err != nil || v != 42 {
				t.Errorf("Do = %v, %v", v, err)
			}
		}()
	}
	wg.Wait()
	if got := calls.Load(); got != 1 {
		t.Fatalf("fn ran %d times, want 1", got)
	}
	st := p.Stats()
	if st.Submitted != 1 || st.Deduped != 31 || st.Executed != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestMemoizesCompletedRuns(t *testing.T) {
	p := New[int, string](2)
	var calls atomic.Int32
	mk := func(s string) func() (string, error) {
		return func() (string, error) {
			calls.Add(1)
			return s, nil
		}
	}
	if v, _ := p.Do(1, mk("first")); v != "first" {
		t.Fatalf("v = %q", v)
	}
	// A later submit of the same key must return the memoized result,
	// never run the (different) function.
	if v, _ := p.Do(1, mk("second")); v != "first" {
		t.Fatalf("resubmit returned %q, want memoized \"first\"", v)
	}
	if calls.Load() != 1 {
		t.Fatalf("calls = %d", calls.Load())
	}
}

func TestDistinctKeysAllRun(t *testing.T) {
	p := New[int, int](3)
	tasks := make([]*Task[int], 20)
	for i := range tasks {
		i := i
		tasks[i], _ = p.Submit(i, func() (int, error) { return i * i, nil })
	}
	for i, tk := range tasks {
		v, err := tk.Wait()
		if err != nil || v != i*i {
			t.Fatalf("task %d = %v, %v", i, v, err)
		}
	}
	if st := p.Stats(); st.Submitted != 20 || st.Executed != 20 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestBoundedConcurrency(t *testing.T) {
	const workers = 3
	p := New[int, int](workers)
	var inFlight, peak atomic.Int32
	gate := make(chan struct{})
	for i := 0; i < 16; i++ {
		p.Submit(i, func() (int, error) {
			n := inFlight.Add(1)
			for {
				old := peak.Load()
				if n <= old || peak.CompareAndSwap(old, n) {
					break
				}
			}
			<-gate
			inFlight.Add(-1)
			return 0, nil
		})
	}
	close(gate)
	for i := 0; i < 16; i++ {
		tk, created := p.Submit(i, nil) // joins the existing task; nil fn never runs
		if created {
			t.Fatalf("Submit of key %d created a second task", i)
		}
		tk.Wait()
	}
	if got := peak.Load(); got > workers {
		t.Fatalf("peak concurrency %d exceeds bound %d", got, workers)
	}
}

func TestErrorPropagates(t *testing.T) {
	p := New[string, int](1)
	boom := errors.New("boom")
	if _, err := p.Do("e", func() (int, error) { return 0, boom }); !errors.Is(err, boom) {
		t.Fatalf("err = %v", err)
	}
	// The error is memoized like any result.
	if _, err := p.Do("e", func() (int, error) { return 7, nil }); !errors.Is(err, boom) {
		t.Fatalf("resubmit err = %v, want memoized boom", err)
	}
}

func TestPanicFailsOnlyItsOwnTask(t *testing.T) {
	p := New[int, int](2)
	const n = 8
	const bad = 3
	tasks := make([]*Task[int], n)
	for i := 0; i < n; i++ {
		i := i
		tasks[i], _ = p.Submit(i, func() (int, error) {
			if i == bad {
				panic("injected crash")
			}
			return i * 10, nil
		})
	}
	for i, task := range tasks {
		v, err := task.Wait()
		if i == bad {
			if err == nil {
				t.Fatal("panicking task reported no error")
			}
			if !strings.Contains(err.Error(), "injected crash") {
				t.Fatalf("panic value missing from error: %v", err)
			}
			if !strings.Contains(err.Error(), "runpool_test.go") {
				t.Fatalf("stack text missing from error: %v", err)
			}
			continue
		}
		if err != nil || v != i*10 {
			t.Fatalf("sibling task %d = (%d, %v), want (%d, nil)", i, v, err, i*10)
		}
	}
	st := p.Stats()
	if st.Panicked != 1 || st.Executed != n {
		t.Fatalf("stats = %+v, want Panicked=1 Executed=%d", st, n)
	}
	// The panic error is memoized like any other error.
	if _, err := p.Do(bad, func() (int, error) { return 1, nil }); err == nil {
		t.Fatal("resubmitted key lost its memoized panic error")
	}
}

func TestDefaultWorkers(t *testing.T) {
	p := New[int, int](0)
	if p.Workers() <= 0 {
		t.Fatalf("workers = %d", p.Workers())
	}
	if v, err := p.Do(1, func() (int, error) { return 5, nil }); v != 5 || err != nil {
		t.Fatalf("Do = %v, %v", v, err)
	}
}

func TestDoneNonBlocking(t *testing.T) {
	p := New[int, int](1)
	gate := make(chan struct{})
	tk, created := p.Submit(1, func() (int, error) { <-gate; return 1, nil })
	if !created {
		t.Fatal("first Submit of a key did not create its task")
	}
	if tk.Done() {
		t.Fatal("task reported done before running")
	}
	close(gate)
	tk.Wait()
	if !tk.Done() {
		t.Fatal("task not done after Wait")
	}
}
