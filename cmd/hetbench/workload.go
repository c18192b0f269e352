package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"os"
	"runtime"
	"runtime/debug"
	"strings"
	"sync"
	"time"

	"hetsim/internal/core"
	"hetsim/internal/exp"
	"hetsim/internal/grid"
	"hetsim/internal/store"
	"hetsim/internal/workload"
)

// cell is one (memory config, benchmark) simulation.
type cell struct {
	config string // a grid configuration name, e.g. "rl"
	bench  string
}

// workloadDef is a fixed list of cells the benchmark repeats in rounds.
// A round is identical on every commit, so a faster commit simply fits
// more rounds into the measured seconds.
type workloadDef struct {
	name  string
	cells []cell
	scale core.RunScale
	// study runs the cells as exp.Fig6 passes through the runner pool and
	// a durable store instead of as direct System runs.
	study bool
}

func cross(configs []string, benches ...string) []cell {
	var cells []cell
	for _, c := range configs {
		for _, b := range benches {
			cells = append(cells, cell{c, b})
		}
	}
	return cells
}

// directScale is the window of the three direct workloads. There is no
// prewarm, so their caches start empty.
var directScale = core.RunScale{WarmupReads: 500, MeasureReads: 5000, MaxCycles: 50_000_000}

// The workloads; BENCHMARK.json and README.md say why each was chosen.
var workloads = []workloadDef{
	{
		// The paper's flagship split: each miss is two DRAM requests, so
		// the kernel, controller and DRAM layers dominate.
		name:  "cwf-stream",
		cells: cross([]string{"rl"}, "libquantum", "leslie3d", "lbm", "stream"),
		scale: directScale,
	},
	{
		// Dependent loads, MSHR merges and adaptive placement's reuse
		// tracking: the core model and caches, not the controller.
		name:  "chase-adaptive",
		cells: cross([]string{"rl-ad"}, "mcf", "omnetpp", "xalancbmk"),
		scale: directScale,
	},
	{
		// Compute-bound on DDR3 with the controllers parked: the
		// workload a memory-side change should leave unchanged.
		name:  "compute-ddr3",
		cells: cross([]string{"baseline"}, "sjeng", "gobmk"),
		scale: directScale,
	},
	{
		// What cmd/experiments -cache-dir runs: prewarm, the runner pool
		// and the durable store, cold and warm.
		name:  "study-fig6",
		cells: cross([]string{"baseline", "rd", "rl", "dl"}, "libquantum", "mcf", "lbm", "omnetpp"),
		scale: core.TestScale(),
		study: true,
	},
}

func workloadByName(name string) (workloadDef, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workloadDef{}, false
}

func workloadNames() []string {
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	return names
}

// benches lists the workload's distinct benchmarks in cell order.
func (w workloadDef) benches() []string {
	var out []string
	seen := map[string]bool{}
	for _, c := range w.cells {
		if !seen[c.bench] {
			seen[c.bench] = true
			out = append(out, c.bench)
		}
	}
	return out
}

const (
	nCores = 8
	// studyWorkers is the pool size of study-fig6; GOMAXPROCS still
	// bounds the threads that run simulation code.
	studyWorkers = 2
	// warmPasses is the number of warm passes after each round's cold
	// cells.
	warmPasses = 10
)

// invocation is one run of one workload: its inputs, the outputs it has
// checked, and its failures.
type invocation struct {
	w     workloadDef
	seed  uint64
	scale core.RunScale
	dir   string // scratch space for the stores

	digests   map[string]string       // cell key → digest of its first repetition
	results   map[string]core.Results // first repetition of each cell
	attempted int
	failures  []string

	dedupFrac, storeHitFrac float64
	spans                   *spanLog  // nil unless traced
	ref                     []float64 // drift sentinel pieces, one per round
}

func newInvocation(w workloadDef, seed uint64, dir string) *invocation {
	return &invocation{w: w, seed: seed, scale: w.scale, dir: dir,
		digests: map[string]string{}, results: map[string]core.Results{}}
}

func (inv *invocation) config(c cell) core.SystemConfig {
	cfg, err := grid.Config(c.config, nCores)
	if err != nil {
		panic(err) // the workload table names only known configs
	}
	cfg.Seed = inv.seed
	return cfg
}

func (inv *invocation) key(c cell) string { return inv.config(c).Name + "/" + c.bench }

func (inv *invocation) runKey(c cell) store.RunKey {
	return store.RunKey{Cfg: inv.config(c).Key(), Bench: c.bench, Scale: inv.scale}
}

func build(cfg core.SystemConfig, bench string) (*core.System, error) {
	spec, err := workload.Get(bench)
	if err != nil {
		return nil, err
	}
	return core.NewSystem(cfg, spec)
}

// runSafe runs the system, turning a simulator panic into the cell's
// error.
func runSafe(sys *core.System, scale core.RunScale) (res core.Results, err error) {
	defer func() {
		if p := recover(); p != nil {
			err = fmt.Errorf("panic: %v", p)
		}
	}()
	return sys.Run(scale), nil
}

// digest is the SHA-256 of the cell's summary CSV row: equal digests
// mean identical simulated results.
func digest(res core.Results) string {
	sum := sha256.Sum256([]byte(strings.Join(res.CSVRow(), ",")))
	return hex.EncodeToString(sum[:])
}

// validate rejects a cell that stopped at the cycle cap or produced a
// non-positive or NaN IPC or critical-word latency.
func validate(res core.Results, scale core.RunScale) error {
	if res.DemandReads < scale.MeasureReads {
		return fmt.Errorf("stopped after %d of %d measured reads", res.DemandReads, scale.MeasureReads)
	}
	for i, ipc := range res.IPCs {
		if !(ipc > 0) {
			return fmt.Errorf("core %d IPC %v", i, ipc)
		}
	}
	if !(res.SumIPC > 0) || !(res.CritLatency > 0) {
		return fmt.Errorf("IPC %v, crit latency %v", res.SumIPC, res.CritLatency)
	}
	return nil
}

func (inv *invocation) fail(what string, err error) {
	inv.failures = append(inv.failures, fmt.Sprintf("%s: %v", what, err))
}

// check counts one attempted cell and records its failure, if any. The
// first good repetition of a cell fixes its digest; every later one must
// match it.
func (inv *invocation) check(key string, res core.Results, err error) {
	inv.attempted++
	if err == nil {
		err = validate(res, inv.scale)
	}
	if err == nil {
		d := digest(res)
		if first, ok := inv.digests[key]; !ok {
			inv.digests[key] = d
			inv.results[key] = res
		} else if d != first {
			err = fmt.Errorf("results differ from the first repetition")
		}
	}
	if err != nil {
		inv.fail(key, err)
	}
}

// checkHit counts one attempted store lookup: it must hit and return
// exactly the results the cell produced when it ran.
func (inv *invocation) checkHit(key string, res core.Results, ok bool) {
	inv.attempted++
	switch {
	case !ok:
		inv.fail(key, fmt.Errorf("warm lookup missed the store"))
	case digest(res) != inv.digests[key]:
		inv.fail(key, fmt.Errorf("warm lookup returned different results"))
	}
}

// liveHeap builds each cell's System once, outside any timed region,
// and returns the heap each one retains, from the heap in use after a
// collection before and after the build.
func (inv *invocation) liveHeap() (heapMB []float64) {
	for _, c := range inv.w.cells {
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		sys, err := build(inv.config(c), c.bench)
		if err != nil {
			inv.fail(inv.key(c), err)
			continue
		}
		runtime.GC()
		runtime.ReadMemStats(&after)
		heapMB = append(heapMB, float64(int64(after.HeapAlloc)-int64(before.HeapAlloc))/(1<<20))
		runtime.KeepAlive(sys)
	}
	return heapMB
}

// built is one cell's System and when its set-up ran.
type built struct {
	sys        *core.System // nil when the build failed
	start, end time.Time
}

// buildAll is a round's set-up: it builds every cell's System and
// returns the systems and the host time the builds took. It collects
// garbage first and pauses the collector while it builds, so every
// round's set-up starts from the same heap and is not charged with a
// part of a collection cycle whose start point varies. The systems stay
// live, so the pause defers no collection of set-up's own work.
func (inv *invocation) buildAll() ([]built, time.Duration) {
	runtime.GC()
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	out := make([]built, len(inv.w.cells))
	var total time.Duration
	for i, c := range inv.w.cells {
		start := time.Now()
		sys, err := build(inv.config(c), c.bench)
		end := time.Now()
		total += end.Sub(start)
		if err != nil {
			inv.check(inv.key(c), core.Results{}, err)
			continue
		}
		out[i] = built{sys, start, end}
	}
	return out, total
}

// phase is what one timed loop measured.
type phase struct {
	rounds int
	setup  []float64 // host seconds to build every cell, one per round
	run    []float64 // host seconds per cell simulation
	units  []unit    // the repeated pieces of a round
	warm   []float64 // host seconds per warm pass
	reads  float64   // measured-window demand reads simulated
	cells  int       // cell simulations
	alloc  allocCount
}

// unit is one repeated piece of a round whose work is identical every
// time: a direct workload's cell, or the study's cold pass.
type unit struct {
	reads, instr float64 // measured-window demand reads and instructions
	cells        int
	run          []float64 // host seconds simulating, per repetition
	wall         []float64 // run plus the cells' set-up, per repetition
}

func (ph *phase) record(i int, reads, instr float64, cells int, run, wall time.Duration) {
	for len(ph.units) <= i {
		ph.units = append(ph.units, unit{})
	}
	u := &ph.units[i]
	u.reads, u.instr, u.cells = reads, instr, cells
	u.run = append(u.run, run.Seconds())
	u.wall = append(u.wall, wall.Seconds())
}

// fastest is the quickest of a unit's repetitions. The work repeats
// exactly, and other tenants of a shared host only ever add time to a
// repetition, so the quickest is the best estimate of what the code
// itself costs. Across runs it repeats where the median, and even the
// fastest tenth, drift with the host's load.
func fastest(xs []float64) float64 { return quantile(xs, 0) }

// rates are a round's work over the sum of each unit's fastest time:
// measured-window reads and millions of instructions per host second
// simulating, and cells per host second including their set-up.
func (ph *phase) rates() (readsPerS, minstPerS, cellsPerS float64) {
	var reads, instr, cells, run, wall float64
	for _, u := range ph.units {
		reads += u.reads
		instr += u.instr
		cells += float64(u.cells)
		run += fastest(u.run)
		wall += fastest(u.wall)
	}
	return ratio(reads, run), ratio(instr/1e6, run), ratio(cells, wall)
}

type allocCount struct{ bytes, objs, gcs uint64 }

func (a *allocCount) add(before, after *runtime.MemStats) {
	a.bytes += after.TotalAlloc - before.TotalAlloc
	a.objs += after.Mallocs - before.Mallocs
	a.gcs += uint64(after.NumGC - before.NumGC)
}

// loop adds rounds of the workload to ph until budget has elapsed,
// always completing at least one round.
func (inv *invocation) loop(ph *phase, budget time.Duration, st *store.Store) {
	start := time.Now()
	for first := true; first || time.Since(start) < budget; first = false {
		if inv.w.study {
			inv.studyRound(ph)
		} else {
			inv.directRound(ph, st)
		}
		ph.rounds++
		inv.ref = append(inv.ref, refPiece())
	}
}

// warmup runs one untimed round. It fixes each cell's reference digest,
// fills the direct workloads' store, and adds the direct cells' exact
// work counts to cnt.
func (inv *invocation) warmup(st *store.Store, cnt *counts) {
	if inv.w.study {
		var discard phase
		inv.studyRound(&discard)
		return
	}
	for _, c := range inv.w.cells {
		key := inv.key(c)
		sys, err := build(inv.config(c), c.bench)
		var res core.Results
		if err == nil {
			res, err = runSafe(sys, inv.scale)
		}
		inv.check(key, res, err)
		if err != nil {
			continue
		}
		cnt.add(sys, res)
		if err := st.Put(inv.runKey(c), res); err != nil {
			inv.fail(key, err)
		}
	}
}

// directRound builds a fresh System for every cell, runs each once, then
// serves all of them warmPasses times from the store.
func (inv *invocation) directRound(ph *phase, st *store.Store) {
	systems, setup := inv.buildAll()
	ph.setup = append(ph.setup, setup.Seconds())
	for i, c := range inv.w.cells {
		b := systems[i]
		if b.sys == nil {
			continue
		}
		systems[i].sys = nil // the collector may take it once it has run
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		start := time.Now()
		res, err := runSafe(b.sys, inv.scale)
		end := time.Now()
		runtime.ReadMemStats(&after)
		// One span row per cell: the builds of a round precede its runs.
		id := inv.spans.newID()
		inv.spans.add("setup", id, 1+i, b.start, b.end)
		inv.spans.add("run", id, 1+i, start, end)
		inv.spans.add("cell", id, 1+i, b.start, end)
		inv.check(inv.key(c), res, err)
		if err != nil {
			continue
		}
		ph.alloc.add(&before, &after)
		ph.run = append(ph.run, end.Sub(start).Seconds())
		ph.cells++
		ph.reads += float64(res.DemandReads)
		ph.record(i, float64(res.DemandReads), retired(res), 1, end.Sub(start), b.end.Sub(b.start)+end.Sub(start))
	}

	hits := make([]core.Results, len(inv.w.cells))
	found := make([]bool, len(inv.w.cells))
	for pass := 0; pass < warmPasses; pass++ {
		t := time.Now()
		for i, c := range inv.w.cells {
			hits[i], found[i] = st.Get(inv.runKey(c))
		}
		d := time.Since(t)
		inv.spans.add("pass.warm", inv.spans.newID(), 0, t, t.Add(d))
		ph.warm = append(ph.warm, d.Seconds())
		for i, c := range inv.w.cells {
			inv.checkHit(inv.key(c), hits[i], found[i])
		}
	}
	s := st.Stats()
	inv.storeHitFrac = ratio(float64(s.Hits), float64(s.Hits+s.Misses))
}

// retired is the measured window's instruction count, Σ IPC·cycles.
func retired(res core.Results) float64 {
	var n float64
	for _, ipc := range res.IPCs {
		n += math.Round(ipc * float64(res.Cycles))
	}
	return n
}

// studyRound is one cold exp.Fig6 pass into a fresh store, then
// warmPasses warm passes through fresh runners over the same store.
func (inv *invocation) studyRound(ph *phase) {
	dir, err := os.MkdirTemp(inv.dir, "study-")
	if err != nil {
		inv.fail("study store", err)
		return
	}
	defer os.RemoveAll(dir)
	inner, err := store.Open(dir)
	if err != nil {
		inv.fail("study store", err)
		return
	}
	ts := &timedStore{inner: inner, spans: inv.spans, missed: map[string]span{}}
	opts := exp.Options{Scale: inv.scale, Benchmarks: inv.w.benches(), NCores: nCores,
		Seed: inv.seed, Workers: studyWorkers, Store: ts}
	// The runner builds its own systems inside the pass, so the round's
	// set-up is timed on systems that are then dropped.
	_, setup := inv.buildAll()
	ph.setup = append(ph.setup, setup.Seconds())

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	t0 := time.Now()
	runner := exp.NewRunner(opts)
	cold, err := exp.Fig6(runner)
	t1 := time.Now()
	runtime.ReadMemStats(&after)
	ph.alloc.add(&before, &after)
	inv.spans.add("pass.cold", inv.spans.newID(), 0, t0, t1)
	if err != nil {
		inv.attempted += len(inv.w.cells)
		inv.fail("cold pass", err)
		return
	}

	var reads, instr float64
	for _, sc := range ts.take() {
		inv.check(sc.key, sc.res, nil)
		ph.run = append(ph.run, sc.dur.Seconds())
		ph.cells++
		reads += float64(sc.res.DemandReads)
		instr += retired(sc.res)
	}
	if n := runner.Stats().Submitted; n != len(inv.w.cells) {
		inv.fail("cold pass", fmt.Errorf("simulated %d cells, want %d", n, len(inv.w.cells)))
	}
	// The pass builds its own systems, so its wall time is both the
	// simulating time and the time with set-up.
	ph.reads += reads
	ph.record(0, reads, instr, len(inv.w.cells), t1.Sub(t0), t1.Sub(t0))
	ps := runner.Stats()
	inv.dedupFrac = ratio(float64(ps.Deduped), float64(ps.Submitted+ps.Deduped))

	for pass := 0; pass < warmPasses; pass++ {
		t := time.Now()
		warm, err := exp.Fig6(exp.NewRunner(opts))
		d := time.Since(t)
		inv.spans.add("pass.warm", inv.spans.newID(), 0, t, t.Add(d))
		ph.warm = append(ph.warm, d.Seconds())
		if err == nil && warm.Table != cold.Table {
			err = fmt.Errorf("warm table differs from the cold one")
		}
		if err != nil {
			inv.fail("warm pass", err)
		}
		if again := ts.take(); len(again) != 0 {
			inv.fail("warm pass", fmt.Errorf("%d cells simulated again", len(again)))
		}
		for _, h := range ts.takeHits() {
			inv.checkHit(h.key, h.res, true)
		}
	}
	s := inner.Stats()
	inv.storeHitFrac = ratio(float64(s.Hits), float64(s.Hits+s.Misses))
}

// storedCell is a cell that passed through the study's store.
type storedCell struct {
	key string
	dur time.Duration
	res core.Results
}

// timedStore wraps the study's store. A cold cell's time runs from its
// store miss to its Put, which brackets the cell's RunPair; the Results
// passing through are kept for checking.
type timedStore struct {
	inner *store.Store
	spans *spanLog

	mu     sync.Mutex
	missed map[string]span
	slots  []bool // span lanes in use, so concurrent cells do not overlap
	puts   []storedCell
	hits   []storedCell
}

func studyKey(k store.RunKey) string { return k.Cfg.Name + "/" + k.Bench }

func (t *timedStore) Get(k store.RunKey) (core.Results, bool) {
	res, ok := t.inner.Get(k)
	t.mu.Lock()
	defer t.mu.Unlock()
	if ok {
		t.hits = append(t.hits, storedCell{key: studyKey(k), res: res})
		return res, true
	}
	slot := 0
	for slot < len(t.slots) && t.slots[slot] {
		slot++
	}
	if slot == len(t.slots) {
		t.slots = append(t.slots, false)
	}
	t.slots[slot] = true
	t.missed[studyKey(k)] = span{id: t.spans.newID(), tid: 1 + slot, start: time.Now()}
	return res, false
}

func (t *timedStore) Put(k store.RunKey, res core.Results) error {
	end := time.Now()
	key := studyKey(k)
	t.mu.Lock()
	s := t.missed[key]
	delete(t.missed, key)
	t.slots[s.tid-1] = false
	t.puts = append(t.puts, storedCell{key: key, dur: end.Sub(s.start), res: res})
	t.mu.Unlock()
	t.spans.add("cell", s.id, s.tid, s.start, end)
	return t.inner.Put(k, res)
}

// take returns and clears the cells simulated since the last call.
func (t *timedStore) take() []storedCell {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := t.puts
	t.puts = nil
	return out
}

// takeHits returns and clears the store hits since the last call.
func (t *timedStore) takeHits() []storedCell {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := t.hits
	t.hits = nil
	return out
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}
