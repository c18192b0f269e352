package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"runtime/pprof"
	"sort"
	"time"

	"hetsim/internal/core"
	"hetsim/internal/store"
	"hetsim/internal/workload"
)

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// settings are one invocation's inputs.
type settings struct {
	w       workloadDef
	seed    uint64
	seconds float64
	traced  bool
	dir     string // scratch directory; the caller removes it
	spans   string // file the traced run writes its spans to; "" = none
}

// outcome is what one invocation measured and checked.
type outcome struct {
	host       hostInfo
	attempted  int
	failures   []string
	metrics    map[string]metric
	digests    map[string]string
	rounds     int
	runSamples int
	warmPasses int
}

// measure runs one workload. The untraced run reports the end-to-end
// metrics; the traced run alternates untraced and profiled blocks and
// reports the per-layer metrics.
func measure(s settings) (outcome, error) {
	host := newHostInfo()
	inv := newInvocation(s.w, s.seed, s.dir)
	for i := 0; i < 4; i++ {
		inv.ref = append(inv.ref, refPiece())
	}
	st, err := store.Open(filepath.Join(s.dir, "direct"))
	if err != nil {
		return outcome{}, err
	}
	var heapMB []float64
	if !s.traced {
		heapMB = inv.liveHeap()
	}
	var cnt counts
	inv.warmup(st, &cnt)

	budget := time.Duration(s.seconds * float64(time.Second))
	var ph phase
	var metrics map[string]metric
	if s.traced {
		ph, metrics, err = inv.traced(budget, st, &cnt, s.spans)
		if err != nil {
			return outcome{}, err
		}
	} else {
		inv.loop(&ph, budget, st)
		reads, minst, cells := ph.rates()
		metrics = map[string]metric{
			"setup_s":          {median(ph.setup), "s"},
			"reads_per_s":      {reads, "1/s"},
			"minst_per_s":      {minst, "Minst/s"},
			"cells_per_s":      {cells, "1/s"},
			"warm_cells_per_s": {ratio(float64(len(s.w.cells)), fastest(ph.warm)), "1/s"},
			"live_heap_mb":     {median(heapMB), "MB"},
		}
	}
	host.setSentinel(inv.ref)
	if s.traced {
		metrics["host.ref_s"] = metric{64 * fastest(inv.ref), "s"}
		metrics["host.ref_drift_frac"] = metric{host.drift(), "frac"}
	}
	return outcome{host: host, attempted: inv.attempted, failures: inv.failures, metrics: metrics,
		digests: inv.digests, rounds: ph.rounds, runSamples: len(ph.run), warmPasses: len(ph.warm)}, nil
}

// traceBlock is how long the traced run stays in one mode before it
// switches between untraced and profiled rounds. Alternating keeps a
// drift in host speed from reading as tracing overhead.
const traceBlock = 500 * time.Millisecond

// traced alternates untraced blocks with blocks that have the CPU
// profiler and spans on, and derives the per-layer metrics.
func (inv *invocation) traced(budget time.Duration, st *store.Store, cnt *counts, spansPath string) (phase, map[string]metric, error) {
	var plain, prof phase
	var samples []stackSample
	spans := newSpanLog()
	start := time.Now()
	for first := true; first || time.Since(start) < budget; first = false {
		inv.loop(&plain, traceBlock, st)
		var buf bytes.Buffer
		if err := pprof.StartCPUProfile(&buf); err != nil {
			return phase{}, nil, err
		}
		inv.spans = spans
		inv.loop(&prof, traceBlock, st)
		inv.spans = nil
		pprof.StopCPUProfile()
		s, err := readProfile(buf.Bytes())
		if err != nil {
			return phase{}, nil, fmt.Errorf("reading the CPU profile: %w", err)
		}
		samples = append(samples, s...)
	}
	host := summarize(samples)

	if inv.w.study {
		// The study's cells run inside the runner; count their work with
		// direct runs of the same shared systems.
		inv.countPass(cnt)
	}
	m := cnt.metrics()
	// Host-time distributions and peak memory move with the host's other
	// tenants as much as with the code, so they are reported here, ungated.
	m["run_s.p50"] = metric{quantile(plain.run, 0.50), "s"}
	m["run_s.p95"] = metric{quantile(plain.run, 0.95), "s"}
	m["run_s.samples"] = metric{float64(len(plain.run)), "count"}
	m["host.peak_rss_mb"] = metric{peakRSSMB(), "MB"}
	cells := float64(plain.cells)
	m["runpool.dedup_frac"] = metric{inv.dedupFrac, "frac"}
	m["store.hit_frac"] = metric{inv.storeHitFrac, "frac"}
	m["alloc.bytes_per_run"] = metric{ratio(float64(plain.alloc.bytes), cells), "B/run"}
	m["alloc.objs_per_run"] = metric{ratio(float64(plain.alloc.objs), cells), "objs/run"}
	m["gc.cycles_per_run"] = metric{ratio(float64(plain.alloc.gcs), cells), "gcs/run"}
	total := float64(host.total)
	for _, l := range layers {
		self := float64(host.self[l])
		m["host.self_frac."+l] = metric{ratio(self, total), "frac"}
		m["host.self_us_per_read."+l] = metric{ratio(self/1e3, prof.reads), "us/read"}
	}
	m["host.prewarm_frac"] = metric{ratio(float64(host.prewarm), total), "frac"}
	m["host.setup_frac"] = metric{ratio(float64(host.setup), total), "frac"}
	plainReads, _, _ := plain.rates()
	profReads, _, _ := prof.rates()
	m["trace.overhead_frac"] = metric{1 - ratio(profReads, plainReads), "frac"}
	m["workload.ns_per_op"] = metric{generatorNsPerOp(inv.w, inv.seed), "ns/op"}
	put, get := inv.storeRoundTrip()
	m["store.put_us"] = metric{put, "us"}
	m["store.get_us"] = metric{get, "us"}

	if spansPath != "" {
		if err := spans.writeChrome(spansPath); err != nil {
			return phase{}, nil, fmt.Errorf("writing spans: %w", err)
		}
	}
	return plain, m, nil
}

// countPass runs each cell once as a direct System run, for its exact
// work counts.
func (inv *invocation) countPass(cnt *counts) {
	for _, c := range inv.w.cells {
		sys, err := build(inv.config(c), c.bench)
		var res core.Results
		if err == nil {
			res, err = runSafe(sys, inv.scale)
		}
		inv.attempted++
		if err == nil {
			err = validate(res, inv.scale)
		}
		if err != nil {
			inv.fail(inv.key(c)+" count pass", err)
			continue
		}
		cnt.add(sys, res)
	}
}

// generatorOps is the study's prewarm op count, the number of
// operations the generator probe asks of each generator.
var generatorOps = core.TestScale().PrewarmOps

// genSink keeps the generator probe's results observable.
var genSink uint64

// generatorNsPerOp drives the workload generators directly: one per core
// for each of the workload's benchmarks, seeded as core.NewSystem seeds
// them. It reports the median over three repetitions of nanoseconds per
// generated operation.
func generatorNsPerOp(w workloadDef, seed uint64) float64 {
	var reps []float64
	for rep := 0; rep < 3; rep++ {
		var elapsed time.Duration
		var ops uint64
		for _, b := range w.benches() {
			spec, err := workload.Get(b)
			if err != nil {
				panic(err) // the workload table names only known benchmarks
			}
			for c := 0; c < nCores; c++ {
				base := uint64(0)
				if !spec.Multithreaded {
					base = uint64(c) << 30
				}
				g := workload.NewGenerator(spec, c, nCores, base, seed+1)
				t := time.Now()
				for i := uint64(0); i < generatorOps; i++ {
					genSink ^= g.Next().Addr
				}
				elapsed += time.Since(t)
				ops += generatorOps
			}
		}
		reps = append(reps, float64(elapsed.Nanoseconds())/float64(ops))
	}
	return median(reps)
}

// storeRoundTrip times Put and Get of the cells' own Results in a fresh
// store, three times over, and reports the median microseconds of each.
// A Get that does not return what was Put is a failure.
func (inv *invocation) storeRoundTrip() (putUS, getUS float64) {
	dir, err := os.MkdirTemp(inv.dir, "roundtrip-")
	if err != nil {
		inv.fail("store round trip", err)
		return 0, 0
	}
	defer os.RemoveAll(dir)
	st, err := store.Open(dir)
	if err != nil {
		inv.fail("store round trip", err)
		return 0, 0
	}
	var puts, gets []float64
	for rep := 0; rep < 3; rep++ {
		for _, c := range inv.w.cells {
			key := inv.key(c)
			res, ok := inv.results[key]
			if !ok {
				continue // the cell failed; that is already reported
			}
			k := inv.runKey(c)
			t := time.Now()
			err := st.Put(k, res)
			puts = append(puts, float64(time.Since(t).Nanoseconds())/1e3)
			t = time.Now()
			got, hit := st.Get(k)
			gets = append(gets, float64(time.Since(t).Nanoseconds())/1e3)
			inv.attempted++
			if err == nil && (!hit || digest(got) != inv.digests[key]) {
				err = fmt.Errorf("Get did not return what was Put")
			}
			if err != nil {
				inv.fail(key+" store round trip", err)
			}
		}
	}
	return median(puts), median(gets)
}

// median is quantile(xs, 0.5).
func median(xs []float64) float64 { return quantile(xs, 0.5) }

// quantile interpolates linearly between the closest ranks; it is 0 for
// no samples.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	i := int(pos)
	if i+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[i] + (pos-float64(i))*(s[i+1]-s[i])
}
