package core

import (
	"reflect"
	"sync"
	"testing"
)

// TestSharedCheckpointDifferential restores one prewarm checkpoint into
// systems of different configs running side by side: the DDR3
// baseline, RL, RL with adaptive placement (which applies the
// checkpoint's layout map) and the DRAM cache. Each run must equal its
// config's run from a private checkpoint: results, fill trace and epoch
// stream. Afterwards the shared checkpoint must still equal a fresh
// build, so no run wrote through to its LLC lines, its generators'
// reuse-history rings or its layout map. ep's ring is 8,192 slots per
// core at 8 cores, so the prewarm fills it and the timed runs overwrite
// slots the checkpoint holds: a restore or build that shared the ring
// instead of copying it fails here. Under -race the concurrent restores
// also flag any write to the shared state.
func TestSharedCheckpointDifferential(t *testing.T) {
	scale := RunScale{PrewarmOps: 20_000, WarmupReads: 150, MeasureReads: 900,
		MaxCycles: 20_000_000, EpochInterval: 20_000}
	adaptive := RL(8)
	adaptive.Placement = PlaceAdaptive
	adaptive.Name = "RL-AD"
	cfgs := []SystemConfig{Baseline(8), RL(8), adaptive, DRAMCached(8)}
	spec := mustSpec(t, "ep")

	refs := make([]parRun, len(cfgs))
	for i, cfg := range cfgs {
		if refs[i] = runObservedWith(cfg, spec, scale, nil); refs[i].err != nil {
			t.Fatal(refs[i].err)
		}
	}

	// The first run builds the checkpoint; every concurrent one below
	// restores it.
	key := CheckpointKey{spec, 8, cfgs[0].Seed, scale.PrewarmOps}
	cps := NewCheckpoints()
	cps.Acquire(key)
	defer cps.Release(key)
	compareRuns(t, refs[0], runObservedWith(cfgs[0], spec, scale, cps))
	got := make([]parRun, len(cfgs))
	var wg sync.WaitGroup
	for i, cfg := range cfgs {
		if cfg.Seed != key.Seed {
			t.Fatalf("%s: seed %d, want one checkpoint key for every config", cfg.Name, cfg.Seed)
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[i] = runObservedWith(cfg, spec, scale, cps)
		}()
	}
	wg.Wait()
	for i, cfg := range cfgs {
		t.Run(cfg.Name, func(t *testing.T) {
			if got[i].err != nil {
				t.Fatal(got[i].err)
			}
			compareRuns(t, refs[i], got[i])
		})
	}
	if st := cps.Stats(); st != (CheckpointStats{Built: 1, Reused: len(cfgs), Held: 1}) {
		t.Errorf("stats = %+v, want one build restored into the %d concurrent systems", st, len(cfgs))
	}

	shared := cps.held[key].ck
	if len(shared.placed) == 0 {
		t.Fatal("the prewarm left no layout, so the adaptive restore went unchecked")
	}
	fresh := replay(key, newLLC(), Generators(spec, key.Cores, key.Seed))
	if !reflect.DeepEqual(shared, fresh) {
		t.Error("the shared checkpoint changed under the systems that restored it")
	}
}
