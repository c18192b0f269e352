package exp

import (
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"testing"

	"hetsim/internal/core"
	"hetsim/internal/store"
)

// storeOpts is a small sweep with epoch sampling on, so cached entries
// carry time-series as well as summaries.
func storeOpts(workers int, st *store.Store) Options {
	return Options{
		Scale: core.RunScale{WarmupReads: 200, MeasureReads: 1200,
			MaxCycles: 30_000_000, EpochInterval: 50_000},
		Benchmarks: []string{"libquantum", "mcf"},
		NCores:     4,
		Seed:       7,
		Workers:    workers,
		Store:      st,
	}
}

// TestMemoReturnsDeepCopy is the regression for cache poisoning: a
// caller mutating a returned Results (slices and epoch series
// included) must not change what a later Run of the same pair sees.
func TestMemoReturnsDeepCopy(t *testing.T) {
	r := NewRunner(storeOpts(1, nil))
	first, err := r.Run(core.RL(0), "mcf")
	if err != nil {
		t.Fatal(err)
	}
	want := first.Clone()

	// Vandalize every shared-storage field of the returned copy.
	first.SumIPC = -1
	for i := range first.IPCs {
		first.IPCs[i] = -999
	}
	if first.Epochs == nil || first.Epochs.NumRows() == 0 {
		t.Fatal("expected epoch series on the run")
	}
	for i := range first.Epochs.Data {
		first.Epochs.Data[i] = -999
	}
	first.Epochs.Cols[0] = "vandalized"

	second, err := r.Run(core.RL(0), "mcf")
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(second, want) {
		t.Fatal("mutating a returned result poisoned the memo")
	}
	if st := r.Stats(); st.Executed != 1 {
		t.Fatalf("executed %d runs, want the single memoized one", st.Executed)
	}
}

// runStoreSweep executes the storeOpts sweep on a fresh Runner backed
// by st and returns results keyed by config/bench.
func runStoreSweep(t *testing.T, workers int, st *store.Store) (map[string]core.Results, *Runner) {
	t.Helper()
	return runStoreSweepOpts(t, storeOpts(workers, st))
}

// runStoreSweepOpts is runStoreSweep over arbitrary options.
func runStoreSweepOpts(t *testing.T, opts Options) (map[string]core.Results, *Runner) {
	t.Helper()
	r := NewRunner(opts)
	cfgs := []core.SystemConfig{core.Baseline(0), core.RL(0)}
	r.Submit(cfgs...)
	out := map[string]core.Results{}
	for _, cfg := range cfgs {
		for _, b := range r.Opts.Benchmarks {
			res, err := r.Run(cfg, b)
			if err != nil {
				t.Fatalf("%s/%s: %v", cfg.Name, b, err)
			}
			out[cfg.Name+"/"+b] = res
		}
	}
	return out, r
}

// TestStoreColdWarmEquivalence runs a sweep cold (filling the store),
// then warm on a fresh Runner over the same directory: the warm pass
// must execute zero simulations and reproduce every Results struct —
// epoch series included — exactly.
func TestStoreColdWarmEquivalence(t *testing.T) {
	dir := t.TempDir()
	st1, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	cold, r1 := runStoreSweep(t, 2, st1)
	if hits := st1.Stats().Hits; hits != 0 {
		t.Fatalf("cold pass hit the store %d times", hits)
	}
	distinct := r1.Stats().Executed

	st2, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	warm, r2 := runStoreSweep(t, 2, st2)
	if !reflect.DeepEqual(warm, cold) {
		t.Fatal("warm (all-hits) sweep diverged from the cold run")
	}
	s2 := st2.Stats()
	if int(s2.Hits) != distinct || s2.Misses != 0 || s2.Writes != 0 {
		t.Fatalf("warm pass stats = %+v, want %d pure hits", s2, distinct)
	}

	// Epoch riders must be identical too: the warm runner records the
	// stored series under each hit.
	_, j1 := writeEpochFiles(t, r1)
	_, j2 := writeEpochFiles(t, r2)
	if j1 == "" {
		t.Fatal("no epoch output recorded")
	}
	if j1 != j2 {
		t.Fatal("warm epoch JSONL diverged from cold")
	}
}

// TestStoreCorruptEntryReruns corrupts one cached entry and asserts
// the next sweep silently re-runs that cell — and only that cell —
// reproducing the original results.
func TestStoreCorruptEntryReruns(t *testing.T) {
	dir := t.TempDir()
	st1, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	cold, r1 := runStoreSweep(t, 1, st1)
	distinct := r1.Stats().Executed

	// Truncate one object file in place.
	var victim string
	err = filepath.WalkDir(filepath.Join(dir, "objects"), func(path string, d os.DirEntry, err error) error {
		if err == nil && !d.IsDir() && victim == "" {
			victim = path
		}
		return err
	})
	if err != nil || victim == "" {
		t.Fatalf("no object files found: %v", err)
	}
	b, err := os.ReadFile(victim)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(victim, b[:len(b)/3], 0o644); err != nil {
		t.Fatal(err)
	}

	st2, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	warm, r2 := runStoreSweep(t, 1, st2)
	if !reflect.DeepEqual(warm, cold) {
		t.Fatal("recovery run diverged from the original")
	}
	if got := r2.Stats().Executed; got != distinct {
		t.Fatalf("runner executed %d tasks, want %d", got, distinct)
	}
	s2 := st2.Stats()
	if s2.Corrupt != 1 || s2.Writes != 1 || int(s2.Hits) != distinct-1 {
		t.Fatalf("recovery stats = %+v, want 1 corrupt miss healed among %d cells", s2, distinct)
	}
}

// TestStoreConcurrentRunners drives two parallel runners over one
// cache directory at once — the shape of two -j8 sweep processes
// sharing -cache-dir. Run under -race by `make race`.
func TestStoreConcurrentRunners(t *testing.T) {
	dir := t.TempDir()
	results := make([]map[string]core.Results, 2)
	var wg sync.WaitGroup
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			st, err := store.Open(dir)
			if err != nil {
				t.Error(err)
				return
			}
			results[i], _ = runStoreSweep(t, 4, st)
		}(i)
	}
	wg.Wait()
	if t.Failed() {
		return
	}
	if !reflect.DeepEqual(results[0], results[1]) {
		t.Fatal("concurrent runners over one cache dir diverged")
	}
}
