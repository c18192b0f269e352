// Command hetbench is hetsim's performance benchmark. It runs one
// workload's fixed cells, closed loop, for a given number of seconds,
// checks every simulated result, and prints each metric by name with
// its unit. The last line of its output is one JSON object:
//
//	{"correct": true, "attempted": 310, "failed": 0, "metrics": {...}}
//
// Usage, from the repository root (see README.md):
//
//	bash cmd/hetbench/run.sh --workload cwf-stream --seed 1 --seconds 20 --trace 0
//	bash cmd/hetbench/run.sh --workload cwf-stream --trace 1
//	bash cmd/hetbench/run.sh -compare a/*.json b/*.json
//
// With --trace 0 the metrics are the end-to-end ones; with --trace 1
// they are the per-layer ones, from a run with the CPU profiler and
// spans on. -out also writes the whole result, with host metadata and
// per-cell digests, as one JSON document, which -compare reads.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// result is the last line of the output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// document is what -out writes and -compare reads.
type document struct {
	Workload   string            `json:"workload"`
	Seed       uint64            `json:"seed"`
	Seconds    float64           `json:"seconds"`
	Trace      int               `json:"trace"`
	Host       hostInfo          `json:"host"`
	Rounds     int               `json:"rounds"`
	RunSamples int               `json:"run_samples"`
	Digests    map[string]string `json:"digests"`
	Failures   []string          `json:"failures"`
	Result     result            `json:"result"`
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("hetbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run: "+strings.Join(workloadNames(), "|"))
	seed := fs.Uint64("seed", 1, "input seed (1 is the default, 2 the held-out seed)")
	seconds := fs.Float64("seconds", 20, "seconds to measure")
	trace := fs.Int("trace", 0, "0 = end-to-end metrics, 1 = per-layer metrics from a profiled run")
	out := fs.String("out", "", "also write the full result document to this file")
	cmp := fs.Bool("compare", false, "compare two sets of -out documents, one directory each: -compare a/*.json b/*.json")
	bounds := fs.String("bounds", "BENCHMARK.json", "benchmark definition holding the bounds -compare applies")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *cmp {
		if err := compare(stdout, *bounds, fs.Args()); err != nil {
			fmt.Fprintln(stderr, "hetbench:", err)
			return 1
		}
		return 0
	}
	w, ok := workloadByName(*name)
	if !ok || fs.NArg() > 0 || (*trace != 0 && *trace != 1) || *seconds < 0 {
		fmt.Fprintf(stderr, "hetbench: need -workload %s, -trace 0|1 and -seconds >= 0\n", strings.Join(workloadNames(), "|"))
		return 2
	}

	// Stores and spans live under .bench_build in the working directory.
	scratch := filepath.Join(".bench_build", "hetbench")
	if err := os.MkdirAll(scratch, 0o755); err != nil {
		fmt.Fprintln(stderr, "hetbench:", err)
		return 1
	}
	dir, err := os.MkdirTemp(scratch, "run-")
	if err != nil {
		fmt.Fprintln(stderr, "hetbench:", err)
		return 1
	}
	defer os.RemoveAll(dir)
	s := settings{w: w, seed: *seed, seconds: *seconds, traced: *trace == 1, dir: dir}
	if s.traced {
		s.spans = filepath.Join(scratch, fmt.Sprintf("%s-seed%d.trace.json", w.name, *seed))
	}

	o, err := measure(s)
	if err != nil {
		fmt.Fprintln(stderr, "hetbench:", err)
		return 1
	}

	res := result{Correct: len(o.failures) == 0, Attempted: o.attempted, Failed: len(o.failures), Metrics: o.metrics}
	doc := document{Workload: w.name, Seed: *seed, Seconds: *seconds, Trace: *trace, Host: o.host,
		Rounds: o.rounds, RunSamples: o.runSamples, Digests: o.digests, Failures: o.failures, Result: res}
	if *out != "" {
		b, err := json.MarshalIndent(doc, "", "  ")
		if err == nil {
			err = os.WriteFile(*out, append(b, '\n'), 0o644)
		}
		if err != nil {
			fmt.Fprintln(stderr, "hetbench:", err)
			return 1
		}
	}
	printReport(stdout, s, doc, o)
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(stderr, "hetbench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	return 0
}

// describe states the workload's cells and run scale.
func describe(w workloadDef) string {
	scale := w.scale
	var cfgs []string
	seen := map[string]bool{}
	for _, c := range w.cells {
		if !seen[c.config] {
			seen[c.config] = true
			cfgs = append(cfgs, c.config)
		}
	}
	warm := "no prewarm, so caches start empty"
	if scale.PrewarmOps > 0 {
		warm = fmt.Sprintf("%d-op prewarm per core", scale.PrewarmOps)
	}
	how := "direct System runs, one at a time"
	if w.study {
		how = fmt.Sprintf("exp.Fig6 RunPair cells on %d pool workers, cold pass then %d warm passes per round", studyWorkers, warmPasses)
	}
	return fmt.Sprintf("%s × %s: %d cells of %d cores, %d warmup + %d measured reads, %s; %s",
		strings.Join(cfgs, ","), strings.Join(w.benches(), ","), len(w.cells), nCores,
		scale.WarmupReads, scale.MeasureReads, warm, how)
}

func printReport(w io.Writer, s settings, doc document, o outcome) {
	h := doc.Host
	fmt.Fprintf(w, "workload  %s seed=%d seconds=%g trace=%d\n", s.w.name, s.seed, s.seconds, doc.Trace)
	fmt.Fprintf(w, "cells     %s\n", describe(s.w))
	fmt.Fprintf(w, "host      nproc=%d GOMAXPROCS=%d %s cpu=%q\n", h.NProc, h.GOMAXPROCS, h.GoVersion, h.CPU)
	flag := ""
	if h.drifted() {
		flag = "  DRIFTED: host speed moved during the run; do not compare this result"
	}
	fmt.Fprintf(w, "sentinel  host.ref_s %.4f -> %.4f s (%+.1f%%)%s\n", h.RefStartS, h.RefEndS, 100*h.drift(), flag)
	fmt.Fprintf(w, "work      %d rounds, %d cell simulations (run_s samples), %d warm passes\n",
		o.rounds, o.runSamples, o.warmPasses)
	if s.spans != "" {
		fmt.Fprintf(w, "spans     %s\n", s.spans)
	}
	names := make([]string, 0, len(o.metrics))
	for n := range o.metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(w, "metric    %-32s %14.6g %s\n", n, o.metrics[n].Value, o.metrics[n].Unit)
	}
	for _, f := range o.failures {
		fmt.Fprintf(w, "FAILED    %s\n", f)
	}
}
