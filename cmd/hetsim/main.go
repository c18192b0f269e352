// Command hetsim runs one benchmark on one memory configuration and
// prints the measured metrics.
//
// Usage:
//
//	hetsim -bench mcf -config rl -scale bench
//	hetsim -bench mcf -topology "crit:rldram3x4+line:lpddr2x4"
//
// Configurations: baseline, lpddr2, rldram3, rd, rl, dl, rl-ad, rl-or,
// rl-random, hmc, hmc-mix, dram-cache. -topology overrides the
// configuration's memory organization with a named topology or a raw
// spec string.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"hetsim"
	"hetsim/internal/grid"
	"hetsim/internal/telemetry"
	"hetsim/internal/trace"
)

func main() {
	bench := flag.String("bench", "mcf", "benchmark name (see -list)")
	config := flag.String("config", "baseline", "memory configuration ("+strings.Join(grid.ConfigNames(), "|")+")")
	topo := flag.String("topology", "", "override the memory organization: a named topology ("+strings.Join(grid.TopologyNames(), "|")+") or a raw spec like crit:rldram3x4+line:lpddr2x4")
	scaleName := flag.String("scale", "bench", "run scale: quick|test|bench|paper")
	cores := flag.Int("cores", 8, "core count")
	pair := flag.Bool("pair", false, "also run the stand-alone reference and report weighted speedup")
	list := flag.Bool("list", false, "list benchmarks and exit")
	traceFile := flag.String("trace", "", "write a CSV fill trace to this file")
	epochInterval := flag.Int64("epoch-interval", 0, "sample telemetry every N cycles of the measured window (0 = off)")
	epochCSV := flag.String("epoch-csv", "", "write the per-epoch time-series as CSV to this file (needs -epoch-interval)")
	epochJSONL := flag.String("epoch-jsonl", "", "write the per-epoch time-series as JSON lines to this file (needs -epoch-interval)")
	flag.Parse()

	if *list {
		for _, b := range hetsim.Benchmarks() {
			fmt.Println(b)
		}
		return
	}

	if (*epochCSV != "" || *epochJSONL != "") && *epochInterval <= 0 {
		fmt.Fprintln(os.Stderr, "hetsim: -epoch-csv/-epoch-jsonl need -epoch-interval > 0")
		os.Exit(2)
	}
	cells, err := grid.Sweep{
		Config:        *config,
		Benchmarks:    []string{*bench},
		Topology:      *topo,
		Scale:         *scaleName,
		Cores:         *cores,
		Pair:          *pair,
		EpochInterval: *epochInterval,
	}.Cells()
	if err != nil {
		fmt.Fprintln(os.Stderr, "hetsim:", err)
		os.Exit(2)
	}
	cell := cells[0]

	var tw *trace.Writer
	if *traceFile != "" {
		f, err := os.Create(*traceFile)
		if err != nil {
			fmt.Fprintln(os.Stderr, "hetsim:", err)
			os.Exit(1)
		}
		defer f.Close()
		tw = trace.NewWriter(f)
		cell.Cfg.TraceFn = func(r trace.Record) {
			if err := tw.Write(r); err != nil {
				fmt.Fprintln(os.Stderr, "hetsim: trace:", err)
				os.Exit(1)
			}
		}
		defer func() {
			if err := tw.Flush(); err != nil {
				fmt.Fprintln(os.Stderr, "hetsim: trace:", err)
			}
			fmt.Printf("trace records        %d -> %s\n", tw.Count(), *traceFile)
		}()
	}

	res, err := cell.Run(nil)
	if err != nil {
		fmt.Fprintln(os.Stderr, "hetsim:", err)
		os.Exit(1)
	}
	// With -pair the alone-reference runs never sample (see
	// core.RunPair), so res.Epochs is the shared run's series.
	if err := telemetry.WriteFiles(*epochCSV, *epochJSONL, nil,
		[]telemetry.Run{{Series: res.Epochs}}); err != nil {
		fmt.Fprintln(os.Stderr, "hetsim: epochs:", err)
		os.Exit(1)
	}

	fmt.Printf("benchmark            %s\n", res.Benchmark)
	fmt.Printf("config               %s\n", res.Config)
	fmt.Printf("cycles               %d\n", res.Cycles)
	fmt.Printf("demand DRAM reads    %d\n", res.DemandReads)
	fmt.Printf("sum IPC              %.3f\n", res.SumIPC)
	if *pair {
		fmt.Printf("weighted speedup     %.3f\n", res.Throughput)
	}
	fmt.Printf("crit word latency    %.1f cycles\n", res.CritLatency)
	fmt.Printf("read latency         queue %.1f + core %.1f + xfer %.1f\n",
		res.QueueLat, res.CoreLat, res.XferLat)
	fmt.Printf("crit from fast path  %.1f%%\n", res.CritFromFastFrac*100)
	fmt.Printf("word distribution    %v\n", fmtFracs(res.CritWordFrac))
	fmt.Printf("bus utilization      %.1f%%\n", res.BusUtil*100)
	fmt.Printf("DRAM energy          %.3f mJ (%.0f mW)\n", res.DRAMEnergyMJ, res.DRAMPowerMW)
	fmt.Printf("writebacks           %d\n", res.Writebacks)
	fmt.Printf("merged misses        %d\n", res.MergedMisses)
}

func fmtFracs(f [8]float64) string {
	parts := make([]string, 8)
	for i, v := range f {
		parts[i] = fmt.Sprintf("%.2f", v)
	}
	return strings.Join(parts, " ")
}
