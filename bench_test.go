// Benchmark harness: BenchmarkExperiments regenerates every table and
// figure of the paper's evaluation, one sub-benchmark per entry of
// exp.Experiments, at a reduced (but statistically stable) scale and
// publishes the headline numbers as custom metrics, so
//
//	go test -bench=Experiments -benchmem
//
// reproduces the whole evaluation and prints paper-comparable values
// (see EXPERIMENTS.md for the recorded paper-vs-measured table), and
// -bench Experiments/fig6 regenerates one figure.
//
// The full suite at paper scale is reachable via
// cmd/experiments -scale paper.
package hetsim_test

import (
	"strings"
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

// BenchmarkExperiments runs each experiment on a fresh runner per
// iteration and reports every headline's measured value, in percent,
// as a metric named after the headline. Under -short it runs at
// QuickScale on two benchmarks, so CI can execute one iteration of
// every experiment cheaply. Workers 0 fans simulation runs across all
// cores; the numbers are identical at any worker count.
func BenchmarkExperiments(b *testing.B) {
	opts := exp.Options{
		Scale:      core.RunScale{PrewarmOps: 100_000, WarmupReads: 1000, MeasureReads: 8000, MaxCycles: 120_000_000},
		Benchmarks: benchSubset,
		NCores:     8,
		Seed:       1,
	}
	if testing.Short() {
		opts.Scale = core.QuickScale()
		opts.Benchmarks = benchSubset[:2]
	}
	for _, e := range exp.Experiments(nil) {
		b.Run(e.Name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				rep, err := e.Run(exp.NewRunner(opts))
				if err != nil {
					b.Fatal(err)
				}
				for _, h := range rep.Headlines {
					b.ReportMetric(h.Measured*100, "%"+strings.Join(strings.Fields(h.Label), "-"))
				}
			}
		})
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
