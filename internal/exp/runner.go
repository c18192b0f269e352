// Package exp regenerates every table and figure of the paper's
// evaluation (§3, §6, §7): each Fig/experiment function sweeps the
// right system configurations over the benchmark suite and formats the
// same rows/series the paper reports. A Runner executes (config,
// benchmark) pairs on a bounded worker pool with singleflight
// deduplication, so figures that share runs (6/7/8, 9, 10/11) pay for
// them once — and results are bit-identical to serial execution at any
// worker count, because every simulated System is self-contained and
// seeded.
package exp

import (
	"context"
	"errors"
	"fmt"
	"io"
	"reflect"
	"sync"
	"sync/atomic"
	"time"

	"hetsim/internal/core"
	"hetsim/internal/faults"
	"hetsim/internal/runpool"
	"hetsim/internal/store"
	"hetsim/internal/workload"
)

// ErrRunCanceled marks a run truncated by Options.Context or a
// per-cell deadline (Options.CellTimeout). The partial Results are
// discarded — a canceled run is an error, never a shorter answer.
var ErrRunCanceled = errors.New("exp: run canceled")

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
	// memo: every run is looked up on disk before executing and written
	// back after (the -cache-dir flag). Determinism makes hits exact
	// stand-ins for re-runs, so output is byte-identical either way.
	// The interface seam (rather than the concrete *store.Store) is
	// what lets the chaos harness inject disk faults underneath whole
	// experiment sweeps; store write failures are logged warnings, so a
	// flaky or full disk degrades runs to memory-only memoization
	// instead of failing them.
	Store store.Interface
	// Context, when non-nil, cancels in-flight and future runs when it
	// is done: the simulator polls it on the drive loop's stop grid and
	// the truncated run surfaces ErrRunCanceled.
	Context context.Context
	// CellTimeout bounds each (config, benchmark) run (the full
	// RunPair, stand-alone references included). A run that exceeds it
	// is truncated and fails with ErrRunCanceled; 0 = no deadline.
	CellTimeout time.Duration
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

// runKey identifies one (config, benchmark) execution. It is a proper
// comparable struct — see core.ConfigKey — so configs differing in any
// behaviour-relevant field can never alias one memo entry.
type runKey struct {
	cfg   core.ConfigKey
	bench string
}

// Runner executes and memoizes paired (shared+alone) runs. It is safe
// for concurrent use: figure functions submit whole sweeps up front
// and collect results in deterministic order.
type Runner struct {
	Opts Options
	pool *runpool.Pool[runKey, core.Results]

	logMu sync.Mutex
	done  int

	epochMu sync.Mutex
	epochs  []epochRecord
}

// NewRunner builds a runner.
func NewRunner(opts Options) *Runner {
	opts = opts.withDefaults()
	return &Runner{Opts: opts, pool: runpool.New[runKey, core.Results](opts.Workers)}
}

// Stats reports pool activity: distinct runs submitted/executed and
// how many submissions were deduplicated onto in-flight or memoized
// runs.
func (r *Runner) Stats() runpool.Stats { return r.pool.Stats() }

// Workers reports the effective parallel run bound.
func (r *Runner) Workers() int { return r.pool.Workers() }

// Start schedules one benchmark under one configuration on the pool
// and returns its future without waiting. Submitting an already
// scheduled (or finished) pair joins the existing run.
func (r *Runner) Start(cfg core.SystemConfig, bench string) *runpool.Task[core.Results] {
	cfg.NCores = r.Opts.NCores
	cfg.Seed = r.Opts.Seed
	if !cfg.Faults.Active() && r.Opts.Faults.Active() {
		cfg.Faults = r.Opts.Faults
	}
	key := runKey{cfg.Key(), bench}
	return r.pool.Submit(key, func() (core.Results, error) {
		spec, err := workload.Get(bench)
		if err != nil {
			return core.Results{}, err
		}
		// Disk tier: a verified entry replaces the run outright. Epoch
		// series ride inside the stored Results, so warm sweeps emit
		// the same epoch CSV/JSONL as cold ones.
		sk := store.RunKey{Cfg: key.cfg, Bench: bench, Scale: r.Opts.Scale, Pair: true}
		if st := r.Opts.Store; st != nil {
			if res, ok := st.Get(sk); ok {
				r.recordEpochs(cfg.Name, bench, res.Epochs)
				r.progress(cfg.Name, bench, 0)
				return res, nil
			}
		}
		// Deadline / cancellation: the hook is latched, so only a run
		// the simulator actually truncated reports cancellation — a run
		// that finished just before its deadline passed is a result,
		// not an error. The latch also starts the clock here, when the
		// run starts, not when it was submitted to the pool.
		cancel, tripped := r.cancelHook()
		if cancel != nil {
			if cancel() {
				return core.Results{}, fmt.Errorf("%w before start: %s/%s", ErrRunCanceled, cfg.Name, bench)
			}
			tripped.Store(false) // the pre-start probe may have latched
			cfg.Cancel = cancel
		}
		start := time.Now()
		res, err := core.RunPair(cfg, spec, r.Opts.Scale)
		if err != nil {
			return core.Results{}, err
		}
		if tripped != nil && tripped.Load() {
			return core.Results{}, fmt.Errorf("%w after %v: %s/%s",
				ErrRunCanceled, time.Since(start).Round(time.Millisecond), cfg.Name, bench)
		}
		r.recordEpochs(cfg.Name, bench, res.Epochs)
		r.progress(cfg.Name, bench, time.Since(start))
		if st := r.Opts.Store; st != nil {
			if err := st.Put(sk, res); err != nil && r.Opts.Log != nil {
				r.logMu.Lock()
				fmt.Fprintf(r.Opts.Log, "  cache write failed for %s/%s: %v\n", cfg.Name, bench, err)
				r.logMu.Unlock()
			}
		}
		return res, nil
	})
}

// cancelHook builds the polled cancellation closure for one run from
// Options.Context and Options.CellTimeout, plus the latch recording
// whether it ever fired. Returns (nil, nil) when neither is set, so
// the common path stays allocation- and check-free.
func (r *Runner) cancelHook() (func() bool, *atomic.Bool) {
	ctx, timeout := r.Opts.Context, r.Opts.CellTimeout
	if ctx == nil && timeout <= 0 {
		return nil, nil
	}
	var deadline time.Time
	if timeout > 0 {
		deadline = time.Now().Add(timeout)
	}
	tripped := new(atomic.Bool)
	return func() bool {
		if ctx != nil && ctx.Err() != nil {
			tripped.Store(true)
			return true
		}
		if !deadline.IsZero() && time.Now().After(deadline) {
			tripped.Store(true)
			return true
		}
		return false
	}, tripped
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
func (r *Runner) Submit(cfgs ...core.SystemConfig) {
	for _, cfg := range cfgs {
		for _, b := range r.Opts.Benchmarks {
			r.Start(cfg, b)
		}
	}
}

// Run executes (or recalls) one benchmark under one configuration,
// returning Results with the weighted-speedup Throughput filled in.
// The returned Results are a deep copy of the memoized entry: callers
// may mutate them (slices and epoch series included) without poisoning
// what later Runs of the same pair observe.
func (r *Runner) Run(cfg core.SystemConfig, bench string) (core.Results, error) {
	res, err := r.Start(cfg, bench).Wait()
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
