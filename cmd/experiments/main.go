// Command experiments regenerates the paper's tables and figures and
// prints a paper-vs-measured summary. The experiments, their order and
// the paper's values come from exp.Experiments.
//
// Usage:
//
//	experiments                      # everything, bench scale, full suite
//	experiments -only fig6,fig10     # a subset of experiments
//	experiments -scale paper         # §5-sized runs (2M reads; slow)
//	experiments -benchmarks mcf,lbm  # a subset of workloads
//	experiments -j 8                 # run up to 8 simulations in parallel
//	experiments -only faults         # fault-sensitivity table (opt-in)
//	experiments -faults "crit.bit=1e-4; line.bit=1e-4" -fault-seed 7
//
// Flags are checked before anything prints: an unknown -only name, scale
// or benchmark, or a bad core count, exits 2 with no output.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	"hetsim/internal/core"
	"hetsim/internal/exp"
	"hetsim/internal/faults"
	"hetsim/internal/grid"
	"hetsim/internal/profiling"
	"hetsim/internal/sim"
	"hetsim/internal/store"
	"hetsim/internal/telemetry"
	"hetsim/internal/workload"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run is the whole command over explicit streams, so tests can execute
// complete invocations in-process. It returns the exit status: 2 for a
// bad flag, 1 for a failed experiment.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("experiments", flag.ContinueOnError)
	fs.SetOutput(stderr)
	scaleName := fs.String("scale", "bench", "run scale: quick|test|bench|paper")
	benches := fs.String("benchmarks", "", "comma-separated benchmark subset (default: all)")
	only := fs.String("only", "", "comma-separated experiment subset (default: every experiment that is not opt-in)")
	cores := fs.Int("cores", 8, "core count")
	seed := fs.Uint64("seed", 1, "workload seed")
	measure := fs.Uint64("measure", 0, "override measured DRAM reads per run (0 = scale default)")
	workers := fs.Int("j", 0, "parallel simulation runs (0 = GOMAXPROCS, 1 = serial; results are identical)")
	cacheDir := fs.String("cache-dir", "", "durable run cache directory: hit entries replace simulations, output stays byte-identical")
	cacheMax := fs.Int64("cache-max-bytes", 0, "evict least-recently-used cache entries past this total size (0 = unlimited; needs -cache-dir)")
	faultSpec := fs.String("faults", "", `fault environment applied to every run, e.g. "crit.bit=1e-4; line.bit=1e-4; @1000 chipkill line 0 3"`)
	faultSeed := fs.Uint64("fault-seed", 0, "override the fault-injection RNG seed (with -faults)")
	verbose := fs.Bool("v", false, "log each run")
	topoFlag := fs.String("topology", "", "comma-separated topology names or specs to study against the baseline (e.g. \"dram-cache,crit:rldram3x4+line:lpddr2x4\"); implies -only topologies")
	epochInterval := fs.Int64("epoch-interval", 0, "sample telemetry every N cycles of each measured window (0 = off)")
	epochCSV := fs.String("epoch-csv", "", "write the per-epoch time-series as CSV to this file (needs -epoch-interval)")
	epochJSONL := fs.String("epoch-jsonl", "", "write the per-epoch time-series as JSON lines to this file (needs -epoch-interval)")
	cpuprofile := fs.String("cpuprofile", "", "write a CPU profile to this file")
	memprofile := fs.String("memprofile", "", "write an allocation profile to this file on exit")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	start := time.Now()
	usage := func(err error) int {
		fmt.Fprintln(stderr, "experiments:", err)
		return 2
	}

	scale, err := grid.Scale(*scaleName)
	if err != nil {
		return usage(err)
	}
	var topoCfgs []core.SystemConfig
	for _, item := range strings.Split(*topoFlag, ",") {
		item = strings.TrimSpace(item)
		if item == "" {
			continue
		}
		cfg, err := topoConfig(item)
		if err != nil {
			return usage(err)
		}
		topoCfgs = append(topoCfgs, cfg)
	}
	if *measure > 0 {
		scale.MeasureReads = *measure
		scale.WarmupReads = *measure / 10
		scale.MaxCycles = 1 << 40
	}
	if (*epochCSV != "" || *epochJSONL != "") && *epochInterval <= 0 {
		return usage(errors.New("-epoch-csv/-epoch-jsonl need -epoch-interval > 0"))
	}
	if *cacheMax < 0 || (*cacheMax > 0 && *cacheDir == "") {
		return usage(errors.New("-cache-max-bytes must be >= 0 and needs -cache-dir"))
	}
	scale.EpochInterval = sim.Cycle(*epochInterval)
	opts := exp.Options{Scale: scale, NCores: *cores, Seed: *seed, Workers: *workers}
	if *faultSpec != "" {
		fc, err := faults.Parse(*faultSpec)
		if err != nil {
			return usage(err)
		}
		if *faultSeed != 0 {
			fc.Seed = *faultSeed
		}
		opts.Faults = fc
	}
	if *benches != "" {
		opts.Benchmarks = strings.Split(*benches, ",")
	}
	if *verbose {
		opts.Log = stderr
	}
	selected, err := exp.Select(strings.Split(*only, ","), topoCfgs)
	if err != nil {
		return usage(err)
	}
	var cache *store.Store
	if *cacheDir != "" {
		if cache, err = store.Open(*cacheDir); err != nil {
			return usage(err)
		}
		cache.SetMaxBytes(*cacheMax)
		opts.Store = cache
	}
	r := exp.NewRunner(opts)
	if err := core.Baseline(r.Opts.NCores).Validate(); err != nil {
		return usage(err)
	}
	for _, b := range r.Opts.Benchmarks {
		if _, err := workload.Get(b); err != nil {
			return usage(err)
		}
	}

	stopProf, err := profiling.Start(*cpuprofile, *memprofile)
	if err != nil {
		fmt.Fprintln(stderr, "experiments:", err)
		return 1
	}
	defer stopProf()

	var summary []string
	for _, e := range selected {
		rep, err := e.Run(r)
		if err != nil {
			fmt.Fprintf(stderr, "experiments: %s failed: %v\n", e.Name, err)
			return 1
		}
		fmt.Fprint(stdout, rep.Text)
		summary = append(summary, rep.Summary()...)
	}
	if len(summary) > 0 {
		fmt.Fprintln(stdout, "==== paper vs measured ====")
		for _, s := range summary {
			fmt.Fprintln(stdout, s)
		}
	}
	if err := telemetry.WriteFiles(*epochCSV, *epochJSONL, []string{"config", "bench"}, r.Epochs()); err != nil {
		fmt.Fprintln(stderr, "experiments:", err)
		return 1
	}

	if cache != nil {
		cs := cache.Stats()
		degraded := ""
		if cache.Degraded() {
			degraded = ", degraded (memory-only)"
		}
		fmt.Fprintf(stderr, "experiments: cache %s: %d hits, %d misses, %d writes, %d corrupt%s\n",
			*cacheDir, cs.Hits, cs.Misses, cs.Writes, cs.Corrupt, degraded)
	}
	st := r.Stats()
	fmt.Fprintf(stderr, "experiments: %d runs (%d deduped) on %d workers in %.1fs\n",
		st.Executed, st.Deduped, r.Workers(), time.Since(start).Seconds())
	return 0
}

// topoConfig resolves one -topology item: a grid config name (so
// "dram-cache" and "hmc-mix" get their presets) or a topology name /
// raw spec applied on top of the baseline machine.
func topoConfig(item string) (core.SystemConfig, error) {
	if cfg, err := grid.Config(item, 0); err == nil {
		return cfg, nil
	}
	cfg := core.Baseline(0)
	if err := grid.ApplyTopology(&cfg, item); err != nil {
		return core.SystemConfig{}, err
	}
	return cfg, nil
}
