package exp

import (
	"bytes"
	"fmt"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"

	"hetsim/internal/chaos"
	"hetsim/internal/core"
	"hetsim/internal/store"
)

// TestChaoticStoreDegradesToMemoryOnly runs a sweep over a store whose
// every write fails: the sweep must complete with correct results
// (memory-only memoization), not error out.
func TestChaoticStoreDegradesToMemoryOnly(t *testing.T) {
	inner, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	cs := chaos.Wrap(inner, 42)
	cs.SetPlan(chaos.OpPut, chaos.Plan{ErrRate: 1.0})
	cs.SetPlan(chaos.OpGet, chaos.Plan{ErrRate: 1.0})

	clean := NewRunner(Options{Scale: core.TestScale(), Workers: 1})
	want, err := clean.Run(core.RL(2), "libquantum")
	if err != nil {
		t.Fatal(err)
	}

	chaotic := NewRunner(Options{Scale: core.TestScale(), Workers: 1, Store: cs})
	got, err := chaotic.Run(core.RL(2), "libquantum")
	if err != nil {
		t.Fatalf("sweep failed under store chaos: %v", err)
	}
	if !reflect.DeepEqual(want, got) {
		t.Fatal("store chaos changed simulation results")
	}
	// And the memo tier still dedups: a second Run is free (no way to
	// observe "free" directly here, but it must at least be identical).
	again, err := chaotic.Run(core.RL(2), "libquantum")
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(want, again) {
		t.Fatal("memoized result diverged under store chaos")
	}
}

// degradingStore is a store that never hits and whose Puts fail the
// way a store.Store latching degraded does: the first with
// ErrDegraded wrapping a cause, every later one with bare ErrDegraded.
type degradingStore struct{ puts atomic.Int64 }

func (*degradingStore) Get(store.RunKey) (core.Results, bool) { return core.Results{}, false }

func (d *degradingStore) Put(store.RunKey, core.Results) error {
	if d.puts.Add(1) == 1 {
		return fmt.Errorf("%w: disk full", store.ErrDegraded)
	}
	return store.ErrDegraded
}

// TestDegradedStoreWarnsOnce: a Runner over a store that degrades on
// its first write logs exactly one cache-write-failed line however
// many cells follow, and its results match a store-free run.
func TestDegradedStoreWarnsOnce(t *testing.T) {
	var log bytes.Buffer
	ds := &degradingStore{}
	opts := storeOpts(2, nil)
	opts.Store, opts.Log = ds, &log
	got, _ := runStoreSweepOpts(t, opts)
	want, _ := runStoreSweep(t, 2, nil)
	if !reflect.DeepEqual(got, want) {
		t.Fatal("a degraded store changed simulation results")
	}
	if n := ds.puts.Load(); n != int64(len(want)) {
		t.Fatalf("%d Puts for %d cells", n, len(want))
	}
	if n := strings.Count(log.String(), "cache write failed"); n != 1 {
		t.Fatalf("%d cache-write-failed lines, want 1:\n%s", n, log.String())
	}
}
