package hetsim_test

import (
	"runtime"
	"sync"
	"testing"

	"hetsim"
)

// allocBudget is the allocation ceiling for the reference 5,000-read
// libquantum run, set at ~2x the measured post-optimization baseline
// (~3.0k objects, dominated by one-time system construction: cache
// arrays, channel state, worker structures). The pre-optimization
// kernel allocated ~452k objects on the same run; a regression that
// reintroduces per-event or per-request allocation blows through this
// ceiling immediately.
const allocBudget = 6000

// TestAllocationBudget pins the simulator's total allocation count for
// a fixed run. It guards the zero-allocation event kernel: monomorphic
// heap, pooled requests/MSHR entries, and preallocated handlers. The
// run samples telemetry epochs every 10k cycles, so the budget also
// covers the registry snapshot path and the recorded epoch series —
// metric registration happens at construction and sampling appends
// into amortized storage, so an active sampler must fit the same
// ceiling.
func TestAllocationBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("full-system run; skipped in -short mode")
	}
	avg := testing.AllocsPerRun(1, func() {
		sys, err := hetsim.NewSystem(hetsim.RL(8), "libquantum")
		if err != nil {
			t.Fatal(err)
		}
		res := sys.Run(hetsim.Scale{WarmupReads: 500, MeasureReads: 5000,
			MaxCycles: 50_000_000, EpochInterval: 10_000})
		if res.DemandReads < 5000 {
			t.Fatalf("run too short: %d reads", res.DemandReads)
		}
		if res.Epochs == nil || res.Epochs.NumRows() == 0 {
			t.Fatal("epoch sampler produced no rows")
		}
	})
	if avg > allocBudget {
		t.Fatalf("run allocated %.0f objects, budget %d (~2x baseline); "+
			"the event kernel has regressed", avg, allocBudget)
	}
}

// systemBytesBudget is the byte ceiling for building one RL(8) mcf
// system, 1.25x the measured 2.68 MB. Most of it is the LLC's flat tag
// arrays and the eight generators' 32-bit reuse-history rings; the
// record-per-line LLC and 64-bit rings they replaced took 4.39 MB.
const systemBytesBudget = 3_345_000

// TestSystemBytesBudget pins the bytes NewSystem allocates, so the
// per-cell construction footprint cannot creep back. It takes the
// least of three builds, each after a collection, so a stray
// allocation elsewhere in the process does not count.
func TestSystemBytesBudget(t *testing.T) {
	least := ^uint64(0)
	for i := 0; i < 3; i++ {
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		sys, err := hetsim.NewSystem(hetsim.RL(8), "mcf")
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatal(err)
		}
		runtime.KeepAlive(sys)
		least = min(least, after.TotalAlloc-before.TotalAlloc)
	}
	t.Logf("NewSystem(RL(8), mcf) allocated %d bytes", least)
	if least > systemBytesBudget {
		t.Fatalf("NewSystem(RL(8), mcf) allocated %d bytes, budget %d (1.25x baseline); "+
			"system state has grown", least, systemBytesBudget)
	}
}

// TestParallelZeroAlloc pins two systems running side by side on
// separate goroutines — how -j and sweepd workers use more than one
// core — under twice the single-run budget. Each system owns its
// engine, pools and handlers, so running a second one concurrently
// must add exactly one more system's one-time construction cost and
// nothing per event.
func TestParallelZeroAlloc(t *testing.T) {
	if testing.Short() {
		t.Skip("full-system run; skipped in -short mode")
	}
	const copies = 2
	avg := testing.AllocsPerRun(1, func() {
		var wg sync.WaitGroup
		reads := make([]uint64, copies)
		errs := make([]error, copies)
		for i := range reads {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				sys, err := hetsim.NewSystem(hetsim.RL(8), "libquantum")
				if err != nil {
					errs[i] = err
					return
				}
				res := sys.Run(hetsim.Scale{WarmupReads: 500, MeasureReads: 5000,
					MaxCycles: 50_000_000, EpochInterval: 10_000})
				reads[i] = res.DemandReads
			}(i)
		}
		wg.Wait()
		for i := range reads {
			if errs[i] != nil {
				t.Fatal(errs[i])
			}
			if reads[i] < 5000 {
				t.Fatalf("copy %d: run too short: %d reads", i, reads[i])
			}
		}
	})
	if avg > copies*allocBudget {
		t.Fatalf("%d concurrent runs allocated %.0f objects, budget %d (%dx one run); "+
			"concurrent systems have picked up shared or per-event allocation",
			copies, avg, copies*allocBudget, copies)
	}
}

// TestFaultLayerZeroAlloc pins the armed-but-idle fault layer under the
// same budget: an injector with all rates zero and a never-due schedule
// entry must add no steady-state allocation to the read path (its only
// cost is the one-time Injector construction).
func TestFaultLayerZeroAlloc(t *testing.T) {
	if testing.Short() {
		t.Skip("full-system run; skipped in -short mode")
	}
	cfg := hetsim.RL(8)
	cfg.Faults.Schedule = []hetsim.FaultEvent{{At: 1 << 40, Channel: -1, Chip: -1}}
	avg := testing.AllocsPerRun(1, func() {
		sys, err := hetsim.NewSystem(cfg, "libquantum")
		if err != nil {
			t.Fatal(err)
		}
		res := sys.Run(hetsim.Scale{WarmupReads: 500, MeasureReads: 5000, MaxCycles: 50_000_000})
		if res.DemandReads < 5000 {
			t.Fatalf("run too short: %d reads", res.DemandReads)
		}
	})
	if avg > allocBudget {
		t.Fatalf("armed fault layer allocated %.0f objects, budget %d; "+
			"the injection path has picked up per-read allocation", avg, allocBudget)
	}
}
