// Command experiments regenerates the paper's tables and figures and
// prints a paper-vs-measured summary.
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
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	"hetsim"
	"hetsim/internal/exp"
	"hetsim/internal/grid"
	"hetsim/internal/profiling"
	"hetsim/internal/sim"
	"hetsim/internal/store"
)

func main() {
	scaleName := flag.String("scale", "bench", "run scale: quick|test|bench|paper")
	benches := flag.String("benchmarks", "", "comma-separated benchmark subset (default: all)")
	only := flag.String("only", "", "comma-separated experiment subset (default: all)")
	cores := flag.Int("cores", 8, "core count")
	seed := flag.Uint64("seed", 1, "workload seed")
	measure := flag.Uint64("measure", 0, "override measured DRAM reads per run (0 = scale default)")
	workers := flag.Int("j", 0, "parallel simulation runs (0 = GOMAXPROCS, 1 = serial; results are identical)")
	cacheDir := flag.String("cache-dir", "", "durable run cache directory: hit entries replace simulations, output stays byte-identical")
	cacheMax := flag.Int64("cache-max-bytes", 0, "evict least-recently-used cache entries past this total size (0 = unlimited; needs -cache-dir)")
	faultSpec := flag.String("faults", "", `fault environment applied to every run, e.g. "crit.bit=1e-4; line.bit=1e-4; @1000 chipkill line 0 3"`)
	faultSeed := flag.Uint64("fault-seed", 0, "override the fault-injection RNG seed (with -faults)")
	verbose := flag.Bool("v", false, "log each run")
	topoFlag := flag.String("topology", "", "comma-separated topology names or specs to study against the baseline (e.g. \"dram-cache,crit:rldram3x4+line:lpddr2x4\"); implies -only topologies")
	epochInterval := flag.Int64("epoch-interval", 0, "sample telemetry every N cycles of each measured window (0 = off)")
	epochCSV := flag.String("epoch-csv", "", "write the per-epoch time-series as CSV to this file (needs -epoch-interval)")
	epochJSONL := flag.String("epoch-jsonl", "", "write the per-epoch time-series as JSON lines to this file (needs -epoch-interval)")
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile to this file")
	memprofile := flag.String("memprofile", "", "write an allocation profile to this file on exit")
	flag.Parse()
	start := time.Now()

	stopProf, err := profiling.Start(*cpuprofile, *memprofile)
	if err != nil {
		fmt.Fprintln(os.Stderr, "experiments:", err)
		os.Exit(1)
	}
	defer stopProf()

	var scale hetsim.Scale
	switch *scaleName {
	case "quick":
		scale = hetsim.QuickScale()
	case "test":
		scale = hetsim.TestScale()
	case "bench":
		scale = hetsim.BenchScale()
	case "paper":
		scale = hetsim.PaperScale()
	default:
		fmt.Fprintln(os.Stderr, "experiments: unknown scale", *scaleName)
		os.Exit(2)
	}

	// Resolve -topology before anything runs so a typo fails fast.
	var topoCfgs []hetsim.Config
	for _, item := range strings.Split(*topoFlag, ",") {
		item = strings.TrimSpace(item)
		if item == "" {
			continue
		}
		cfg, err := topoConfig(item)
		if err != nil {
			fmt.Fprintln(os.Stderr, "experiments:", err)
			os.Exit(2)
		}
		topoCfgs = append(topoCfgs, cfg)
	}

	if *measure > 0 {
		scale.MeasureReads = *measure
		scale.WarmupReads = *measure / 10
		scale.MaxCycles = 1 << 40
	}
	if (*epochCSV != "" || *epochJSONL != "") && *epochInterval <= 0 {
		fmt.Fprintln(os.Stderr, "experiments: -epoch-csv/-epoch-jsonl need -epoch-interval > 0")
		os.Exit(2)
	}
	scale.EpochInterval = sim.Cycle(*epochInterval)
	opts := exp.Options{Scale: scale, NCores: *cores, Seed: *seed,
		Workers: *workers}
	var cache *store.Store
	if *cacheDir != "" {
		st, err := store.Open(*cacheDir)
		if err != nil {
			fmt.Fprintln(os.Stderr, "experiments:", err)
			os.Exit(2)
		}
		st.SetMaxBytes(*cacheMax)
		opts.Store = st
		cache = st
	}
	if *faultSpec != "" {
		fc, err := hetsim.ParseFaults(*faultSpec)
		if err != nil {
			fmt.Fprintln(os.Stderr, "experiments:", err)
			os.Exit(2)
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
		opts.Log = os.Stderr
	}
	r := exp.NewRunner(opts)

	want := map[string]bool{}
	if *only != "" {
		for _, e := range strings.Split(*only, ",") {
			want[strings.TrimSpace(strings.ToLower(e))] = true
		}
	}
	// -topology without -only means "study just these topologies".
	if *topoFlag != "" && len(want) == 0 {
		want["topologies"] = true
	}
	sel := func(name string) bool { return len(want) == 0 || want[name] }

	fail := func(name string, err error) {
		fmt.Fprintf(os.Stderr, "experiments: %s failed: %v\n", name, err)
		os.Exit(1)
	}
	var summary []string
	note := func(s string) { summary = append(summary, s) }

	if sel("table1") {
		fmt.Println(exp.Table1())
	}
	if sel("table2") {
		fmt.Println(exp.Table2())
	}
	if sel("workloads") {
		fmt.Println(exp.WorkloadTable())
	}
	if sel("fig1a") {
		res, err := exp.Fig1a(r)
		if err != nil {
			fail("fig1a", err)
		}
		fmt.Println(res.Table)
		fmt.Println(res.Chart())
		note(exp.FormatSummary("Fig1a RLDRAM3 homogeneous gain", 0.31, res.MeanRLD-1))
		note(exp.FormatSummary("Fig1a LPDDR2 homogeneous loss", -0.13, res.MeanLP-1))
	}
	if sel("fig1b") {
		res, err := exp.Fig1b(r)
		if err != nil {
			fail("fig1b", err)
		}
		fmt.Println(res.Table)
		base := res.Queue["DDR3-baseline"] + res.Core["DDR3-baseline"] + res.Xfer["DDR3-baseline"]
		rld := res.Queue["RLDRAM3-homog"] + res.Core["RLDRAM3-homog"] + res.Xfer["RLDRAM3-homog"]
		if base > 0 {
			note(exp.FormatSummary("Fig1b RLDRAM3 latency reduction", -0.43, rld/base-1))
		}
	}
	if sel("fig2") {
		fmt.Println(exp.Fig2().Table)
	}
	if sel("fig3") {
		res, err := exp.Fig3(r, 8)
		if err != nil {
			fail("fig3", err)
		}
		fmt.Println(res.Table)
	}
	if sel("fig4") {
		res, err := exp.Fig4(r)
		if err != nil {
			fail("fig4", err)
		}
		fmt.Println(res.Table)
		note(fmt.Sprintf("%-34s paper 21/27 >50%%; mean 67%%  measured %d/%d; mean %.0f%%",
			"Fig4 word-0 dominance", res.Word0Count, len(r.Opts.Benchmarks), res.MeanWord0*100))
	}
	if sel("fig6") {
		res, err := exp.Fig6(r)
		if err != nil {
			fail("fig6", err)
		}
		fmt.Println(res.Table)
		fmt.Println(res.RLChart())
		note(exp.FormatSummary("Fig6 RD throughput gain", 0.21, res.MeanRD-1))
		note(exp.FormatSummary("Fig6 RL throughput gain", 0.129, res.MeanRL-1))
		note(exp.FormatSummary("Fig6 DL throughput loss", -0.09, res.MeanDL-1))
	}
	if sel("fig7") {
		res, err := exp.Fig7(r)
		if err != nil {
			fail("fig7", err)
		}
		fmt.Println(res.Table)
		note(exp.FormatSummary("Fig7 RD crit latency reduction", -0.30, -res.ReductionRD))
		note(exp.FormatSummary("Fig7 RL crit latency reduction", -0.22, -res.ReductionRL))
	}
	if sel("fig8") {
		res, err := exp.Fig8(r)
		if err != nil {
			fail("fig8", err)
		}
		fmt.Println(res.Table)
		note(exp.FormatSummary("Fig8 served by RLDRAM3 (mean)", 0.67, res.Mean))
	}
	if sel("fig9") {
		res, err := exp.Fig9(r)
		if err != nil {
			fail("fig9", err)
		}
		fmt.Println(res.Table)
		note(exp.FormatSummary("Fig9 RL-AD gain", 0.157, res.MeanAD-1))
		note(exp.FormatSummary("Fig9 RL-OR gain", 0.28, res.MeanOR-1))
	}
	if sel("fig10") {
		res, err := exp.Fig10(r)
		if err != nil {
			fail("fig10", err)
		}
		fmt.Println(res.Table)
		note(exp.FormatSummary("Fig10 RL system energy", -0.06, res.MeanRL-1))
		note(exp.FormatSummary("Fig10 DL system energy", -0.13, res.MeanDL-1))
		note(exp.FormatSummary("Fig10 RL memory energy", -0.15, res.MeanRLMemEnergy-1))
	}
	if sel("fig11") {
		res, err := exp.Fig11(r)
		if err != nil {
			fail("fig11", err)
		}
		fmt.Println(res.Table)
		note(fmt.Sprintf("%-34s paper: savings grow with util  measured: high-util minus low-util = %+.1f%%",
			"Fig11 trend", res.HighMinusLow*100))
	}
	if sel("random") {
		res, err := exp.RandomMapping(r)
		if err != nil {
			fail("random", err)
		}
		fmt.Println(res.Table)
		note(exp.FormatSummary("§6.1.1 random mapping gain", 0.021, res.Mean-1))
	}
	if sel("noprefetch") {
		res, err := exp.NoPrefetcher(r)
		if err != nil {
			fail("noprefetch", err)
		}
		fmt.Println(res.Table)
		note(exp.FormatSummary("§6.1.1 RL gain w/ prefetcher", 0.129, res.MeanWith-1))
		note(exp.FormatSummary("§6.1.1 RL gain w/o prefetcher", 0.173, res.MeanWithout-1))
	}
	if sel("reusegap") {
		res, err := exp.ReuseGap(r)
		if err != nil {
			fail("reusegap", err)
		}
		fmt.Println(res.Table)
	}
	if sel("pageplacement") {
		res, err := exp.PagePlacement(r)
		if err != nil {
			fail("pageplacement", err)
		}
		fmt.Println(res.Table)
		note(exp.FormatSummary("§7.1 page placement gain", 0.08, res.Mean-1))
	}
	if sel("cmdbus") {
		res, err := exp.CmdBusAblation(r)
		if err != nil {
			fail("cmdbus", err)
		}
		fmt.Println(res.Table)
		note(fmt.Sprintf("%-34s paper: shared bus bottlenecks RL-OR  measured: private-shared = %+.1f%%",
			"§4.2.4 cmd bus ablation", (res.MeanPrivate-res.MeanShared)*100))
	}
	if sel("subrank") {
		res, err := exp.SubRankAblation(r)
		if err != nil {
			fail("subrank", err)
		}
		fmt.Println(res.Table)
		note(fmt.Sprintf("%-34s paper: narrow ranks cut energy & queueing  measured perf n/w = %.3f/%.3f",
			"§4.2.4 sub-rank ablation", res.MeanNarrowPerf, res.MeanWidePerf))
	}
	if sel("malladi") {
		res, err := exp.Malladi(r)
		if err != nil {
			fail("malladi", err)
		}
		fmt.Println(res.Table)
		note(exp.FormatSummary("§7.2 Malladi system energy", -0.261, res.MeanEnergy-1))
	}

	if sel("policies") {
		res, err := exp.SchedulerPolicies(r)
		if err != nil {
			fail("policies", err)
		}
		fmt.Println(res.Table)
		note(fmt.Sprintf("%-34s paper: FR-FCFS + open page chosen  measured: fcfs %.3f, close-page %.3f",
			"§5 controller policies", res.MeanFCFS, res.MeanClosePage))
	}
	if sel("mapping") {
		res, err := exp.AddressMapping(r)
		if err != nil {
			fail("mapping", err)
		}
		fmt.Println(res.Table)
		note(fmt.Sprintf("%-34s paper: open-row is the best baseline  measured: xor %.3f, bank-first %.3f",
			"§5 address interleaving", res.Means["xor-permuted"], res.Means["bank-first"]))
	}
	if sel("rob") {
		res, err := exp.ROBSensitivity(r, nil)
		if err != nil {
			fail("rob", err)
		}
		fmt.Println(res.Table)
	}
	if sel("hmc") {
		res, err := exp.FutureHMC(r)
		if err != nil {
			fail("hmc", err)
		}
		fmt.Println(res.Table)
		note(fmt.Sprintf("%-34s paper: future-work sketch  measured RL %.3f vs HMC %.3f",
			"§10 heterogeneous HMC", res.MeanRL, res.MeanHMC))
	}

	// The topology study is opt-in (it goes beyond the paper's
	// evaluation): run it when -topology is given or "topologies" is
	// named in -only, so the default output stays byte-identical.
	if want["topologies"] {
		res, err := exp.Topologies(r, topoCfgs)
		if err != nil {
			fail("topologies", err)
		}
		fmt.Println(res.Table)
		for _, name := range res.Names {
			note(fmt.Sprintf("%-34s beyond the paper  measured %.3f",
				"topology "+name, res.Means[name]))
		}
	}

	// The fault-sensitivity sweep is opt-in (it is not part of the
	// paper's evaluation): run it only when named explicitly in -only,
	// so the default output stays byte-identical.
	if want["faults"] {
		res, err := exp.FaultSensitivity(r)
		if err != nil {
			fail("faults", err)
		}
		fmt.Println(res.Table)
		if n := len(res.Gains); n > 0 {
			note(fmt.Sprintf("%-34s dead-crit retains %.0f%% of clean RL throughput",
				"fault sensitivity", res.Gains[n-1]*100))
		}
	}

	if len(summary) > 0 {
		fmt.Println("==== paper vs measured ====")
		for _, s := range summary {
			fmt.Println(s)
		}
	}
	if *epochCSV != "" {
		if err := writeEpochs(*epochCSV, r.WriteEpochCSV); err != nil {
			fmt.Fprintln(os.Stderr, "experiments:", err)
			os.Exit(1)
		}
	}
	if *epochJSONL != "" {
		if err := writeEpochs(*epochJSONL, r.WriteEpochJSONL); err != nil {
			fmt.Fprintln(os.Stderr, "experiments:", err)
			os.Exit(1)
		}
	}

	if cache != nil {
		cs := cache.Stats()
		fmt.Fprintf(os.Stderr, "experiments: cache %s: %d hits, %d misses, %d writes, %d corrupt\n",
			*cacheDir, cs.Hits, cs.Misses, cs.Writes, cs.Corrupt)
	}
	st := r.Stats()
	fmt.Fprintf(os.Stderr, "experiments: %d runs (%d deduped) on %d workers in %.1fs\n",
		st.Executed, st.Deduped, r.Workers(), time.Since(start).Seconds())
}

// topoConfig resolves one -topology item: a grid config name (so
// "dram-cache" and "hmc-mix" get their presets) or a topology name /
// raw spec applied on top of the baseline machine.
func topoConfig(item string) (hetsim.Config, error) {
	if cfg, err := grid.Config(item, 0); err == nil {
		return cfg, nil
	}
	cfg := hetsim.Baseline(0)
	if err := grid.ApplyTopology(&cfg, item); err != nil {
		return hetsim.Config{}, err
	}
	return cfg, nil
}

// writeEpochs dumps the runner's recorded epoch series to a file.
func writeEpochs(path string, write func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
