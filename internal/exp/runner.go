// Package exp regenerates every table and figure of the paper's
// evaluation (§3, §6, §7): each Fig/experiment function sweeps the
// right system configurations over the benchmark suite and formats the
// same rows/series the paper reports. Most are a Study: one row per
// benchmark, each column a value read from one config's run against a
// reference run (by default its throughput against the DDR3
// baseline's), then a geomean or mean row. Tables whose rows are not
// benchmarks keep result types of their own. A Runner executes (config,
// benchmark) pairs on a bounded worker pool with singleflight
// deduplication, so figures that share runs (6/7/8, 9, 10/11) pay for
// them once — and results are bit-identical to serial execution at any
// worker count, because every simulated System is self-contained and
// seeded.
package exp

import (
	"fmt"
	"io"
	"reflect"
	"sync"
	"time"

	"hetsim/internal/core"
	"hetsim/internal/faults"
	"hetsim/internal/grid"
	"hetsim/internal/runpool"
	"hetsim/internal/store"
	"hetsim/internal/telemetry"
	"hetsim/internal/workload"
)

// Options scope an experiment sweep.
type Options struct {
	Scale      core.RunScale
	Benchmarks []string // nil = the full 26-benchmark suite
	NCores     int      // 0 = the paper's 8
	Seed       uint64
	Log        io.Writer // nil = quiet
	// Workers bounds parallel simulation runs: 0 = GOMAXPROCS,
	// 1 = serial. Results are identical at any setting.
	Workers int
	// Faults is a fault environment applied to every run whose config
	// does not carry its own (the -faults flag). The zero value injects
	// nothing.
	Faults faults.Config
	// Store, when non-nil, adds a durable tier under the in-memory
	// memo (the -cache-dir flag): every run reads through it (see
	// ReadThrough). Determinism makes hits exact stand-ins for re-runs,
	// so output is byte-identical either way. The interface seam lets
	// the chaos harness inject disk faults underneath whole sweeps.
	Store store.Interface
}

// withDefaults normalizes options.
func (o Options) withDefaults() Options {
	if o.Benchmarks == nil {
		o.Benchmarks = workload.Names()
	}
	if o.NCores == 0 {
		o.NCores = 8
	}
	if o.Scale == (core.RunScale{}) {
		o.Scale = core.BenchScale()
	}
	// A nil *store.Store boxed into the interface field would pass the
	// != nil checks on the run path and panic inside the store; treat a
	// typed nil the same as no store at all.
	if v := reflect.ValueOf(o.Store); v.Kind() == reflect.Pointer && v.IsNil() {
		o.Store = nil
	}
	return o
}

// Runner executes and memoizes grid cells. It is safe for concurrent
// use: callers submit whole sweeps up front and collect results in
// deterministic order.
type Runner struct {
	Opts Options
	// pool is keyed by each cell's store key, a comparable struct (see
	// core.ConfigKey), so configs differing in any behaviour-relevant
	// field can never alias one memo entry.
	pool *runpool.Pool[store.RunKey, core.Results]
	// prewarms holds the prewarm checkpoints of the cells queued or
	// running on pool, each built once and dropped with its last cell.
	prewarms *core.Checkpoints

	logMu sync.Mutex
	done  int

	epochMu sync.Mutex
	epochs  []telemetry.Run
}

// NewRunner builds a runner.
func NewRunner(opts Options) *Runner {
	opts = opts.withDefaults()
	return &Runner{Opts: opts, pool: runpool.New[store.RunKey, core.Results](opts.Workers),
		prewarms: core.NewCheckpoints()}
}

// Stats reports pool activity: distinct runs submitted/executed and
// how many submissions were deduplicated onto in-flight or memoized
// runs.
func (r *Runner) Stats() runpool.Stats { return r.pool.Stats() }

// Prewarms reports the runner's prewarm checkpoint counts: replays
// built, restores that reused one, and checkpoints held now.
func (r *Runner) Prewarms() core.CheckpointStats { return r.prewarms.Stats() }

// Workers reports the effective parallel run bound.
func (r *Runner) Workers() int { return r.pool.Workers() }

// Start schedules one cell on the pool and returns its future without
// waiting. Submitting an already scheduled (or finished) cell joins the
// existing run, so a grid listing the same cell twice simulates it once.
// A new cell holds its prewarm checkpoints until it finishes.
func (r *Runner) Start(c grid.Cell) *runpool.Task[core.Results] {
	prewarms := c.Prewarms()
	r.prewarms.Acquire(prewarms...)
	return r.start(c, prewarms)
}

// start is Start for a caller that has acquired prewarms, the keys c
// holds if it is new; a cell that exists already releases them at once.
func (r *Runner) start(c grid.Cell, prewarms []core.CheckpointKey) *runpool.Task[core.Results] {
	key := c.Key()
	t, created := r.pool.Submit(key, func() (core.Results, error) {
		defer r.prewarms.Release(prewarms...)
		start := time.Now()
		res, _, err := ReadThrough(r.Opts.Store, key, c, r.prewarms, r.logf)
		if err == nil {
			// Epoch series ride inside stored Results, so warm sweeps
			// emit the same epoch CSV/JSONL as cold ones.
			r.recordEpochs(c.Cfg.Name, c.Bench, res.Epochs)
			r.progress(c.Cfg.Name, c.Bench, time.Since(start))
		}
		return res, err
	})
	if !created {
		r.prewarms.Release(prewarms...)
	}
	return t
}

// ReadThrough is the one cache-through step every front end runs a
// cell through: a verified entry for key in st replaces the run, and a
// miss runs the cell and writes its result back; hit reports a store
// hit. st may be nil (no durable tier). A run restores its prewarm
// checkpoints from cps (see grid.Cell.Run). A failed write is a warning
// through logf, never an error, so a flaky or full disk degrades to
// memory-only memoization. The bare store.ErrDegraded a degraded store
// fails fast with is not logged: the store hands the cause to exactly
// one Put, so each degradation warns once.
func ReadThrough(st store.Interface, key store.RunKey, c grid.Cell, cps *core.Checkpoints, logf func(format string, args ...any)) (res core.Results, hit bool, err error) {
	if st != nil {
		if res, ok := st.Get(key); ok {
			return res, true, nil
		}
	}
	if res, err = c.Run(cps); err != nil || st == nil {
		return res, false, err
	}
	if err := st.Put(key, res); err != nil && err != store.ErrDegraded {
		logf("cache write failed for %s/%s: %v", c.Cfg.Name, c.Bench, err)
	}
	return res, false, nil
}

// cell is a figure's (config, benchmark) pair as a paired run under
// the sweep-wide cores, seed and fault environment.
func (r *Runner) cell(cfg core.SystemConfig, bench string) grid.Cell {
	cfg.NCores = r.Opts.NCores
	cfg.Seed = r.Opts.Seed
	if !cfg.Faults.Active() && r.Opts.Faults.Active() {
		cfg.Faults = r.Opts.Faults
	}
	return grid.Cell{Cfg: cfg, Bench: bench, Scale: r.Opts.Scale, Pair: true}
}

// logf writes one indented line to Opts.Log (nil = quiet).
func (r *Runner) logf(format string, args ...any) {
	if r.Opts.Log == nil {
		return
	}
	r.logMu.Lock()
	defer r.logMu.Unlock()
	fmt.Fprintf(r.Opts.Log, "  "+format+"\n", args...)
}

// progress emits one per-run completion line (mutex-guarded; run
// completion order is nondeterministic under parallelism, results are
// not).
func (r *Runner) progress(cfgName, bench string, d time.Duration) {
	if r.Opts.Log == nil {
		return
	}
	r.logMu.Lock()
	defer r.logMu.Unlock()
	r.done++
	fmt.Fprintf(r.Opts.Log, "  [%3d/%3d] %-12s on %-18s %7.2fs\n",
		r.done, r.pool.Stats().Submitted, bench, cfgName, d.Seconds())
}

// Submit enqueues every (config, benchmark) pair of the sweep without
// waiting: figure functions call it up front so the pool can saturate
// its workers while the collection loop blocks on results in
// deterministic order. Errors surface when the pair is collected.
//
// Pairs go a group of Workers benchmarks at a time, config by config
// within the group. So each worker tends to a benchmark of its own:
// about one benchmark per worker holds prewarm checkpoints at a time,
// and a worker rarely waits on a checkpoint another is still building.
func (r *Runner) Submit(cfgs ...core.SystemConfig) {
	benches := r.Opts.Benchmarks
	for lo := 0; lo < len(benches); lo += r.Workers() {
		group := benches[lo:min(lo+r.Workers(), len(benches))]
		// Every cell of the group holds its checkpoints before any
		// starts, so one that finishes first cannot drop a checkpoint a
		// later one restores.
		var cells []grid.Cell
		var prewarms [][]core.CheckpointKey
		for _, cfg := range cfgs {
			for _, b := range group {
				c := r.cell(cfg, b)
				keys := c.Prewarms()
				r.prewarms.Acquire(keys...)
				cells = append(cells, c)
				prewarms = append(prewarms, keys)
			}
		}
		for i, c := range cells {
			r.start(c, prewarms[i])
		}
	}
}

// Run executes (or recalls) one benchmark under one configuration,
// returning Results with the weighted-speedup Throughput filled in.
// The returned Results are a deep copy of the memoized entry: callers
// may mutate them (slices and epoch series included) without poisoning
// what later Runs of the same pair observe.
func (r *Runner) Run(cfg core.SystemConfig, bench string) (core.Results, error) {
	// A cell Submit has not queued runs without shared checkpoints;
	// for one it has, this skips computing and holding its keys.
	res, err := r.start(r.cell(cfg, bench), nil).Wait()
	if err != nil {
		return res, err
	}
	return res.Clone(), nil
}

// Baseline returns the baseline result for a benchmark (memoized).
func (r *Runner) Baseline(bench string) (core.Results, error) {
	return r.Run(core.Baseline(r.Opts.NCores), bench)
}

// normalize computes cfg throughput relative to baseline for one
// benchmark.
func (r *Runner) normalize(cfg core.SystemConfig, bench string) (float64, core.Results, error) {
	base, err := r.Baseline(bench)
	if err != nil {
		return 0, core.Results{}, err
	}
	res, err := r.Run(cfg, bench)
	if err != nil {
		return 0, core.Results{}, err
	}
	if base.Throughput <= 0 {
		return 0, res, fmt.Errorf("exp: zero baseline throughput for %s", bench)
	}
	return res.Throughput / base.Throughput, res, nil
}
