package exp

import (
	"reflect"
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
