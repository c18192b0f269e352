// Benchmark harness: one testing.B benchmark per table/figure of the
// paper's evaluation. Each benchmark regenerates its figure at a
// reduced (but statistically stable) scale and publishes the headline
// numbers as custom metrics, so
//
//	go test -bench=. -benchmem
//
// reproduces the whole evaluation and prints paper-comparable values
// (see EXPERIMENTS.md for the recorded paper-vs-measured table).
//
// The full suite at paper scale is reachable via
// cmd/experiments -scale paper.
package hetsim_test

import (
	"testing"

	"hetsim"
	"hetsim/internal/core"
	"hetsim/internal/exp"
	"hetsim/internal/sim"
)

// benchSubset is a representative subset spanning the three access
// pattern families plus a compute-bound program; the full 26-benchmark
// sweep lives in cmd/experiments.
var benchSubset = []string{"libquantum", "leslie3d", "stream", "mg", "mcf", "lbm", "bzip2", "sjeng"}

func benchOpts() exp.Options {
	return exp.Options{
		Scale:      core.RunScale{PrewarmOps: 100_000, WarmupReads: 1000, MeasureReads: 8000, MaxCycles: 120_000_000},
		Benchmarks: benchSubset,
		NCores:     8,
		Seed:       1,
		// Workers 0 fans simulation runs across all cores via
		// internal/runpool; figure numbers are identical to -j 1.
		Workers: 0,
	}
}

func BenchmarkTable2Timing(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if exp.Table2() == "" {
			b.Fatal("empty table")
		}
	}
}

func BenchmarkFig1aHomogeneous(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := exp.NewRunner(benchOpts())
		res, err := exp.Fig1a(r)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric((res.MeanRLD-1)*100, "%rldram3-gain")
		b.ReportMetric((res.MeanLP-1)*100, "%lpddr2-gain")
	}
}

func BenchmarkFig1bLatencyBreakdown(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := exp.NewRunner(benchOpts())
		res, err := exp.Fig1b(r)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.Queue["DDR3-baseline"], "ddr3-queue-cyc")
		b.ReportMetric(res.Queue["RLDRAM3-homog"], "rldram3-queue-cyc")
	}
}

func BenchmarkFig2PowerCurves(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res := exp.Fig2()
		b.ReportMetric(res.PowerMW["RLDRAM3"][0], "rldram3-idle-mW")
		b.ReportMetric(res.PowerMW["LPDDR2"][0], "lpddr2-idle-mW")
	}
}

func BenchmarkFig3PerLineCensus(b *testing.B) {
	for i := 0; i < b.N; i++ {
		opts := benchOpts()
		opts.Benchmarks = []string{"leslie3d", "mcf"}
		r := exp.NewRunner(opts)
		res, err := exp.Fig3(r, 8)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(len(res.TopLines["leslie3d"])), "lines-censused")
	}
}

func BenchmarkFig4CriticalWords(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := exp.NewRunner(benchOpts())
		res, err := exp.Fig4(r)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.MeanWord0*100, "%word0")
	}
}

func BenchmarkFig6Throughput(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := exp.NewRunner(benchOpts())
		res, err := exp.Fig6(r)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric((res.MeanRD-1)*100, "%rd-gain")
		b.ReportMetric((res.MeanRL-1)*100, "%rl-gain")
		b.ReportMetric((res.MeanDL-1)*100, "%dl-gain")
	}
}

func BenchmarkFig7CritLatency(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := exp.NewRunner(benchOpts())
		res, err := exp.Fig7(r)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.ReductionRD*100, "%rd-reduction")
		b.ReportMetric(res.ReductionRL*100, "%rl-reduction")
	}
}

func BenchmarkFig8ServedByRLDRAM(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := exp.NewRunner(benchOpts())
		res, err := exp.Fig8(r)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.Mean*100, "%served-fast")
	}
}

func BenchmarkFig9Placement(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := exp.NewRunner(benchOpts())
		res, err := exp.Fig9(r)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric((res.MeanAD-1)*100, "%adaptive-gain")
		b.ReportMetric((res.MeanOR-1)*100, "%oracle-gain")
	}
}

func BenchmarkFig10SystemEnergy(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := exp.NewRunner(benchOpts())
		res, err := exp.Fig10(r)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric((res.MeanRL-1)*100, "%rl-sysenergy")
		b.ReportMetric((res.MeanRLMemEnergy-1)*100, "%rl-memenergy")
	}
}

func BenchmarkFig11EnergyVsUtil(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := exp.NewRunner(benchOpts())
		res, err := exp.Fig11(r)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.HighMinusLow*100, "%high-minus-low")
	}
}

func BenchmarkRandomMapping(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := exp.NewRunner(benchOpts())
		res, err := exp.RandomMapping(r)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric((res.Mean-1)*100, "%random-gain")
	}
}

func BenchmarkNoPrefetcher(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := exp.NewRunner(benchOpts())
		res, err := exp.NoPrefetcher(r)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric((res.MeanWith-1)*100, "%gain-with-pf")
		b.ReportMetric((res.MeanWithout-1)*100, "%gain-no-pf")
	}
}

func BenchmarkReuseGap(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := exp.NewRunner(benchOpts())
		res, err := exp.ReuseGap(r)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.PerBench["libquantum"]*100, "%tolerant-libquantum")
	}
}

func BenchmarkPagePlacement(b *testing.B) {
	for i := 0; i < b.N; i++ {
		opts := benchOpts()
		opts.Benchmarks = []string{"libquantum", "leslie3d", "mcf", "bzip2"}
		r := exp.NewRunner(opts)
		res, err := exp.PagePlacement(r)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric((res.Mean-1)*100, "%pageplaced-gain")
	}
}

func BenchmarkMalladiLPDRAM(b *testing.B) {
	for i := 0; i < b.N; i++ {
		opts := benchOpts()
		opts.Benchmarks = []string{"libquantum", "mg", "bzip2", "sjeng"}
		r := exp.NewRunner(opts)
		res, err := exp.Malladi(r)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric((res.MeanEnergy-1)*100, "%malladi-sysenergy")
	}
}

func BenchmarkCmdBusAblation(b *testing.B) {
	for i := 0; i < b.N; i++ {
		opts := benchOpts()
		opts.Benchmarks = []string{"milc", "libquantum"}
		r := exp.NewRunner(opts)
		res, err := exp.CmdBusAblation(r)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric((res.MeanPrivate-res.MeanShared)*100, "%private-minus-shared")
	}
}

func BenchmarkSubRankAblation(b *testing.B) {
	for i := 0; i < b.N; i++ {
		opts := benchOpts()
		opts.Benchmarks = []string{"libquantum", "mg"}
		r := exp.NewRunner(opts)
		res, err := exp.SubRankAblation(r)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric((res.MeanNarrowPerf-res.MeanWidePerf)*100, "%narrow-minus-wide")
	}
}

func BenchmarkSchedulerPolicies(b *testing.B) {
	for i := 0; i < b.N; i++ {
		opts := benchOpts()
		opts.Benchmarks = []string{"leslie3d", "mcf"}
		r := exp.NewRunner(opts)
		res, err := exp.SchedulerPolicies(r)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.MeanFCFS, "fcfs-vs-frfcfs")
		b.ReportMetric(res.MeanClosePage, "closepage-vs-openpage")
	}
}

func BenchmarkAddressMapping(b *testing.B) {
	for i := 0; i < b.N; i++ {
		opts := benchOpts()
		opts.Benchmarks = []string{"libquantum", "mcf"}
		r := exp.NewRunner(opts)
		res, err := exp.AddressMapping(r)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.Means["bank-first"], "bank-first-vs-openrow")
	}
}

func BenchmarkROBSensitivity(b *testing.B) {
	for i := 0; i < b.N; i++ {
		opts := benchOpts()
		opts.Benchmarks = []string{"libquantum"}
		r := exp.NewRunner(opts)
		res, err := exp.ROBSensitivity(r, []int{32, 64, 128})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric((res.Gains[0]-1)*100, "%gain-rob32")
		b.ReportMetric((res.Gains[2]-1)*100, "%gain-rob128")
	}
}

func BenchmarkFutureHMC(b *testing.B) {
	for i := 0; i < b.N; i++ {
		opts := benchOpts()
		opts.Benchmarks = []string{"libquantum", "mcf"}
		r := exp.NewRunner(opts)
		res, err := exp.FutureHMC(r)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric((res.MeanHMC-1)*100, "%hmc-gain")
	}
}

// BenchmarkTelemetry measures the cost of the epoch sampler against
// the same run with telemetry off: the "off" and "on" sub-benchmarks
// differ only in Scale.EpochInterval, so the ns/op ratio is the
// sampling overhead (budget < 3%). System construction stays outside
// the timed region, as in BenchmarkSimulatorSpeed. That sampling adds
// no events is checked exactly by core's TestTelemetryOnOffIdentical.
func BenchmarkTelemetry(b *testing.B) {
	if testing.Short() {
		b.Skip("full-system benchmark; skipped in -short mode")
	}
	run := func(b *testing.B, interval int64) {
		b.ReportAllocs()
		var reads, epochs uint64
		b.StopTimer()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			sys, err := hetsim.NewSystem(hetsim.RL(8), "libquantum")
			if err != nil {
				b.Fatal(err)
			}
			scale := hetsim.Scale{WarmupReads: 500, MeasureReads: 5000, MaxCycles: 50_000_000}
			scale.EpochInterval = sim.Cycle(interval)
			b.StartTimer()
			res := sys.Run(scale)
			b.StopTimer()
			reads += res.DemandReads
			if res.Epochs != nil {
				epochs += uint64(res.Epochs.NumRows())
			}
		}
		b.ReportMetric(float64(reads)/b.Elapsed().Seconds(), "reads/sec")
		b.ReportMetric(float64(epochs)/float64(b.N), "epochs")
	}
	b.Run("off", func(b *testing.B) { run(b, 0) })
	b.Run("on-10k", func(b *testing.B) { run(b, 10_000) })
	b.Run("on-1k", func(b *testing.B) { run(b, 1_000) })
}

// BenchmarkSimulatorSpeed measures raw simulation throughput for
// profiling the simulator itself: reads/sec is the headline metric, and
// -benchmem (implied via ReportAllocs) tracks the kernel's allocation
// behaviour. In -short mode it runs a QuickScale-sized smoke instead of
// skipping, so CI can execute one iteration cheaply and catch harness
// rot. Speed claims go through cmd/hetbench -compare instead.
func BenchmarkSimulatorSpeed(b *testing.B) {
	b.ReportAllocs()
	var reads uint64
	// Each iteration needs a fresh system (Run consumes it), but
	// construction is one-time setup cost, not steady-state simulation:
	// keep it outside the timed region so ns/op and B/op track the run
	// itself (construction used to dominate B/op at ~2.4MB/op of
	// one-shot allocation).
	b.StopTimer()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sys, err := hetsim.NewSystem(hetsim.RL(8), "libquantum")
		if err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		res := sys.Run(benchScale())
		b.StopTimer()
		reads += res.DemandReads
	}
	b.ReportMetric(float64(reads)/float64(b.N), "reads")
	b.ReportMetric(float64(reads)/b.Elapsed().Seconds(), "reads/sec")
}

// benchScale is the measured window of the simulator-speed family:
// full size normally, a quick smoke under -short.
func benchScale() hetsim.Scale {
	if testing.Short() {
		return hetsim.Scale{WarmupReads: 100, MeasureReads: 500, MaxCycles: 20_000_000}
	}
	return hetsim.Scale{WarmupReads: 500, MeasureReads: 5000, MaxCycles: 50_000_000}
}
