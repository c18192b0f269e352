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
	"runtime"
	"runtime/debug"
	"sync"
	"time"

	"hetsim/internal/core"
	"hetsim/internal/faults"
	"hetsim/internal/grid"
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
	if o.Workers <= 0 {
		o.Workers = runtime.GOMAXPROCS(0)
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

// Runner executes and memoizes grid cells on at most Opts.Workers
// goroutines, starting them in the order they were submitted. It is
// safe for concurrent use: callers submit whole sweeps up front and
// collect results in deterministic order.
type Runner struct {
	Opts Options
	// prewarms holds the prewarm checkpoints of the cells queued or
	// running, each built once and dropped with its last cell.
	prewarms *core.Checkpoints

	mu sync.Mutex
	// memo is keyed by each cell's store key, a comparable struct (see
	// core.ConfigKey), so configs differing in any behaviour-relevant
	// field can never alias one entry. It holds a run from its first
	// Start until Release.
	memo    map[store.RunKey]*Task
	queue   []*Task // runs not yet started, oldest first
	running int     // worker goroutines alive
	stats   Stats
	epochs  []telemetry.Run

	logMu sync.Mutex
	done  int
}

// Task is the future of one run. The first Start of a key makes it,
// and later Starts of the key join it until the key is released.
type Task struct {
	done chan struct{}
	run  func() (core.Results, error) // nil once started
	res  core.Results
	err  error
}

// Wait blocks until the run has finished and returns its result. Wait
// may be called any number of times from any goroutine.
func (t *Task) Wait() (core.Results, error) {
	<-t.done
	return t.res, t.err
}

// Stats counts runner activity.
type Stats struct {
	Submitted int // distinct runs accepted
	Deduped   int // submissions that joined a memoized run
	Executed  int // runs finished, a panicking one included
	Held      int // runs memoized now, in flight or finished
}

// NewRunner builds a runner.
func NewRunner(opts Options) *Runner {
	return &Runner{Opts: opts.withDefaults(), prewarms: core.NewCheckpoints(),
		memo: make(map[store.RunKey]*Task)}
}

// Stats reports distinct runs submitted and executed, how many
// submissions joined a memoized run, and how many runs it holds now.
func (r *Runner) Stats() Stats {
	r.mu.Lock()
	defer r.mu.Unlock()
	s := r.stats
	s.Held = len(r.memo)
	return s
}

// Prewarms reports the runner's prewarm checkpoint counts: replays
// built, restores that reused one, and checkpoints held now.
func (r *Runner) Prewarms() core.CheckpointStats { return r.prewarms.Stats() }

// Workers reports the effective parallel run bound.
func (r *Runner) Workers() int { return r.Opts.Workers }

// Step computes the Results of cell c, whose store key is key,
// restoring its prewarm checkpoints from cps.
type Step func(key store.RunKey, c grid.Cell, cps *core.Checkpoints) (core.Results, error)

// Start schedules cells in order and returns their futures without
// waiting; step runs each new cell (nil: ReadThrough on Opts.Store). A
// cell already scheduled or memoized joins that run. Every cell holds
// its prewarm checkpoints before any starts, so one that finishes
// first cannot drop a checkpoint a later one restores.
func (r *Runner) Start(step Step, cells ...grid.Cell) []*Task {
	prewarms := make([][]core.CheckpointKey, len(cells))
	for i, c := range cells {
		prewarms[i] = c.Prewarms()
		r.prewarms.Acquire(prewarms[i]...)
	}
	tasks := make([]*Task, len(cells))
	for i, c := range cells {
		key := c.Key()
		var created bool
		tasks[i], created = r.submit(key, r.task(step, key, c, prewarms[i]))
		if !created {
			r.prewarms.Release(prewarms[i]...)
		}
	}
	return tasks
}

// Release forgets the finished runs of cells, so a later Start of one
// runs it again (reading through the store, if any). Runs still in
// flight stay memoized, and a Task already handed out still answers
// Wait.
func (r *Runner) Release(cells ...grid.Cell) {
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, c := range cells {
		key := c.Key()
		if t := r.memo[key]; t != nil {
			select {
			case <-t.done:
				delete(r.memo, key)
			default: // in flight: a later Start may still join it
			}
		}
	}
}

// submit returns key's memoized Task, or memoizes and queues a new one
// that runs fn; created reports the latter.
func (r *Runner) submit(key store.RunKey, fn func() (core.Results, error)) (t *Task, created bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if t := r.memo[key]; t != nil {
		r.stats.Deduped++
		return t, false
	}
	t = &Task{done: make(chan struct{}), run: fn}
	r.memo[key] = t
	r.queue = append(r.queue, t)
	r.stats.Submitted++
	if r.running < r.Opts.Workers {
		r.running++
		go r.work()
	}
	return t, true
}

// work runs queued Tasks, oldest first, until the queue is empty.
func (r *Runner) work() {
	r.mu.Lock()
	defer r.mu.Unlock()
	for len(r.queue) > 0 {
		t := r.queue[0]
		r.queue[0] = nil
		r.queue = r.queue[1:]
		run := t.run
		t.run = nil // the memo keeps the result, not the cell and step
		r.mu.Unlock()
		t.res, t.err = guard(run)
		r.mu.Lock()
		r.stats.Executed++
		close(t.done)
	}
	r.running--
}

// guard runs fn, recovering a panic into its error. One crashing
// (config, benchmark) pair must fail its own entry, not take down the
// process and every sibling run with it; the stack text is kept so the
// crash stays diagnosable.
func guard(fn func() (core.Results, error)) (res core.Results, err error) {
	defer func() {
		if p := recover(); p != nil {
			err = fmt.Errorf("exp: run panicked: %v\n%s", p, debug.Stack())
		}
	}()
	return fn()
}

// task is the job that runs c through step, then releases prewarms.
func (r *Runner) task(step Step, key store.RunKey, c grid.Cell, prewarms []core.CheckpointKey) func() (core.Results, error) {
	return func() (core.Results, error) {
		defer r.prewarms.Release(prewarms...)
		if step != nil {
			return step(key, c, r.prewarms)
		}
		start := time.Now()
		res, _, err := ReadThrough(r.Opts.Store, key, c, r.prewarms, r.logf)
		if err == nil {
			// Epoch series ride inside stored Results, so warm sweeps
			// emit the same epoch CSV/JSONL as cold ones.
			r.recordEpochs(c.Cfg.Name, c.Bench, res.Epochs)
			r.progress(c.Cfg.Name, c.Bench, time.Since(start))
		}
		return res, err
	}
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
		r.done, r.Stats().Submitted, bench, cfgName, d.Seconds())
}

// Submit enqueues every (config, benchmark) pair of the sweep without
// waiting: figure functions call it up front so the runner can saturate
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
		var cells []grid.Cell
		for _, cfg := range cfgs {
			for _, b := range group {
				cells = append(cells, r.cell(cfg, b))
			}
		}
		r.Start(nil, cells...)
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
	c := r.cell(cfg, bench)
	key := c.Key()
	t, _ := r.submit(key, r.task(nil, key, c, nil))
	res, err := t.Wait()
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
