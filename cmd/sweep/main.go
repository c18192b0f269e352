// Command sweep runs one memory configuration across a parameter grid
// and emits a CSV of results — the workhorse for sensitivity studies
// beyond the canned experiments.
//
// Usage:
//
//	sweep -bench libquantum -config rl -param robsize -values 16,32,64,128
//	sweep -bench mcf -config rl -param parityrate -values 0,0.01,0.1,1
//	sweep -bench leslie3d -config baseline -param cores -values 1,2,4,8
//	sweep -bench mg -config rl -param reads -values 5000,20000,80000
//	sweep -bench mcf -config rl -param faultrate -values 0,1e-4,1e-3,1e-2
//	sweep ... -faults "@1000 dead crit" -fault-seed 7
//	sweep ... -j 4                 # run grid points in parallel
//	sweep ... -cache-dir .hetsim-cache   # durable run cache: a repeat
//	                               # invocation re-runs nothing and is
//	                               # byte-identical
package main

import (
	"encoding/csv"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"hetsim"
	"hetsim/internal/exp"
	"hetsim/internal/grid"
	"hetsim/internal/profiling"
	"hetsim/internal/store"
	"hetsim/internal/telemetry"
)

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "sweep:", err)
		os.Exit(1)
	}
}

// run is the whole command, factored over explicit streams so tests
// can execute complete invocations in-process and compare output
// bytes across cold and warm cache passes.
func run(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("sweep", flag.ContinueOnError)
	fs.SetOutput(stderr)
	bench := fs.String("bench", "libquantum", "benchmark name")
	config := fs.String("config", "rl", "configuration (see cmd/hetsim)")
	topo := fs.String("topology", "", "override the memory organization: a named topology ("+strings.Join(grid.TopologyNames(), "|")+") or a raw spec")
	param := fs.String("param", "robsize", "swept parameter: "+strings.Join(grid.Params(), "|"))
	values := fs.String("values", "32,64,128", "comma-separated values")
	scaleName := fs.String("scale", "test", "base run scale: quick|test|bench|paper")
	out := fs.String("o", "", "output CSV path (default stdout)")
	pair := fs.Bool("pair", false, "run the stand-alone reference too (fills throughput columns)")
	faultSpec := fs.String("faults", "", `fault environment applied to every grid point, e.g. "line.bit=1e-4; @1000 chipkill line 0 3"`)
	faultSeed := fs.Uint64("fault-seed", 0, "override the fault-injection RNG seed")
	workers := fs.Int("j", 0, "parallel grid points (0 = GOMAXPROCS, 1 = serial; output is identical)")
	cacheDir := fs.String("cache-dir", "", "durable run cache directory: hit entries replace simulations, output stays byte-identical")
	cacheMax := fs.Int64("cache-max-bytes", 0, "evict least-recently-used cache entries past this total size (0 = unlimited; needs -cache-dir)")
	epochInterval := fs.Int64("epoch-interval", 0, "sample telemetry every N cycles of each measured window (0 = off)")
	epochCSV := fs.String("epoch-csv", "", "write the per-epoch time-series as CSV to this file (needs -epoch-interval)")
	epochJSONL := fs.String("epoch-jsonl", "", "write the per-epoch time-series as JSON lines to this file (needs -epoch-interval)")
	cpuprofile := fs.String("cpuprofile", "", "write a CPU profile to this file")
	memprofile := fs.String("memprofile", "", "write an allocation profile to this file on exit")
	if err := fs.Parse(args); err != nil {
		return err
	}

	stopProf, err := profiling.Start(*cpuprofile, *memprofile)
	if err != nil {
		return err
	}
	defer stopProf()

	if (*epochCSV != "" || *epochJSONL != "") && *epochInterval <= 0 {
		return fmt.Errorf("-epoch-csv/-epoch-jsonl need -epoch-interval > 0")
	}
	if *cacheMax < 0 || (*cacheMax > 0 && *cacheDir == "") {
		return fmt.Errorf("-cache-max-bytes must be >= 0 and needs -cache-dir")
	}
	var baseFaults hetsim.FaultConfig
	if *faultSpec != "" {
		if baseFaults, err = hetsim.ParseFaults(*faultSpec); err != nil {
			return err
		}
	}
	if *faultSeed != 0 {
		baseFaults.Seed = *faultSeed
	}
	cells, err := grid.Sweep{
		Config:        *config,
		Benchmarks:    []string{*bench},
		Topology:      *topo,
		Param:         *param,
		Values:        strings.Split(*values, ","),
		Scale:         *scaleName,
		Cores:         8,
		Pair:          *pair,
		EpochInterval: *epochInterval,
		Faults:        baseFaults,
	}.Cells()
	if err != nil {
		return err
	}

	var cache *store.Store
	if *cacheDir != "" {
		cache, err = store.Open(*cacheDir)
		if err != nil {
			return err
		}
		cache.SetMaxBytes(*cacheMax)
	}

	w := stdout
	var outFile *os.File
	if *out != "" {
		if outFile, err = os.Create(*out); err != nil {
			return err
		}
		defer outFile.Close()
		w = outFile
	}
	// The deferred flush keeps the rows finished before an early error;
	// the success path flushes and closes explicitly to report a failed
	// write.
	cw := csv.NewWriter(w)
	defer cw.Flush()

	// Fan the grid's runs across the runner, which reads each through
	// the store; a cell listed twice joins its first run, so it is
	// simulated once.
	runner := exp.NewRunner(exp.Options{Workers: *workers, Store: cache})
	tasks := runner.Start(nil, cells...)

	// Collect rows and epoch series in grid order, so both are
	// byte-identical at any -j; epoch files are written after the grid
	// completes.
	var epochs []telemetry.Run
	for i, c := range cells {
		res, err := tasks[i].Wait()
		if err != nil {
			return err
		}
		if i == 0 {
			if err := cw.Write(append([]string{"param", "value"}, res.CSVHeader()...)); err != nil {
				return err
			}
		}
		if err := cw.Write(append([]string{*param, c.Value}, res.CSVRow()...)); err != nil {
			return err
		}
		if res.Epochs != nil {
			epochs = append(epochs, telemetry.Run{Labels: []string{*param, c.Value}, Series: res.Epochs})
		}
	}
	cw.Flush()
	if err := cw.Error(); err != nil {
		return err
	}
	if outFile != nil {
		if err := outFile.Close(); err != nil {
			return err
		}
	}
	if err := telemetry.WriteFiles(*epochCSV, *epochJSONL, []string{"param", "value"}, epochs); err != nil {
		return err
	}

	// The cache summary goes to stderr — and only with -cache-dir — so
	// default stdout stays byte-identical to the pre-cache tool.
	if cache != nil {
		st := cache.Stats()
		degraded := ""
		if cache.Degraded() {
			degraded = ", degraded (memory-only)"
		}
		fmt.Fprintf(stderr, "sweep: cache %s: %d hits, %d misses, %d writes, %d corrupt%s\n",
			*cacheDir, st.Hits, st.Misses, st.Writes, st.Corrupt, degraded)
	}
	return nil
}
