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
	"hetsim/internal/grid"
	"hetsim/internal/profiling"
	"hetsim/internal/runpool"
	"hetsim/internal/sim"
	"hetsim/internal/store"
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

	scale, err := grid.Scale(*scaleName)
	if err != nil {
		return err
	}
	if (*epochCSV != "" || *epochJSONL != "") && *epochInterval <= 0 {
		return fmt.Errorf("-epoch-csv/-epoch-jsonl need -epoch-interval > 0")
	}
	scale.EpochInterval = sim.Cycle(*epochInterval)

	var cache *store.Store
	if *cacheDir != "" {
		cache, err = store.Open(*cacheDir)
		if err != nil {
			return err
		}
		cache.SetMaxBytes(*cacheMax)
	}

	w := stdout
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			return err
		}
		defer f.Close()
		w = f
	}
	cw := csv.NewWriter(w)
	defer cw.Flush()

	// Build every grid point first, then fan the runs across the pool
	// and collect rows in grid order, so the CSV is byte-identical at
	// any -j.
	var vals []string
	for _, vs := range strings.Split(*values, ",") {
		vals = append(vals, strings.TrimSpace(vs))
	}
	var baseFaults hetsim.FaultConfig
	if *faultSpec != "" {
		fc, err := hetsim.ParseFaults(*faultSpec)
		if err != nil {
			return err
		}
		baseFaults = fc
	}
	if *faultSeed != 0 {
		baseFaults.Seed = *faultSeed
	}

	pool := runpool.New[int, hetsim.Results](*workers)
	tasks := make([]*runpool.Task[hetsim.Results], len(vals))
	for i, vs := range vals {
		cfg, err := grid.Config(*config, 8)
		if err != nil {
			return err
		}
		if *topo != "" {
			if err := grid.ApplyTopology(&cfg, *topo); err != nil {
				return err
			}
		}
		cfg.Faults = baseFaults
		runScale := scale
		if err := grid.Apply(&cfg, &runScale, *param, vs); err != nil {
			return err
		}

		tasks[i] = pool.Submit(i, func() (hetsim.Results, error) {
			// Disk tier: a verified cache entry replaces the run.
			var sk store.RunKey
			if cache != nil {
				sk = store.RunKey{Cfg: cfg.Key(), Bench: *bench, Scale: runScale, Pair: *pair}
				if res, ok := cache.Get(sk); ok {
					return res, nil
				}
			}
			var res hetsim.Results
			if *pair {
				r, err := hetsim.RunPair(cfg, *bench, runScale)
				if err != nil {
					return hetsim.Results{}, err
				}
				res = r
			} else {
				sys, err := hetsim.NewSystem(cfg, *bench)
				if err != nil {
					return hetsim.Results{}, err
				}
				res = sys.Run(runScale)
			}
			if cache != nil {
				if err := cache.Put(sk, res); err != nil {
					fmt.Fprintln(stderr, "sweep: cache write failed:", err)
				}
			}
			return res, nil
		})
	}

	// Epoch time-series riders: collected in grid order alongside the
	// summary rows, written after the grid completes so streams stay
	// deterministic at any -j.
	type epochPoint struct {
		value  string
		series *hetsim.EpochSeries
	}
	var epochs []epochPoint
	wroteHeader := false
	for i, vs := range vals {
		res, err := tasks[i].Wait()
		if err != nil {
			return err
		}
		if !wroteHeader {
			if err := cw.Write(append([]string{"param", "value"}, res.CSVHeader()...)); err != nil {
				return err
			}
			wroteHeader = true
		}
		if err := cw.Write(append([]string{*param, vs}, res.CSVRow()...)); err != nil {
			return err
		}
		if res.Epochs != nil {
			epochs = append(epochs, epochPoint{value: vs, series: res.Epochs})
		}
	}

	if *epochCSV != "" {
		f, err := os.Create(*epochCSV)
		if err != nil {
			return err
		}
		ecw := csv.NewWriter(f)
		var prev *hetsim.EpochSeries
		for _, p := range epochs {
			// Grid points share a header until the column signature
			// changes (e.g. a cores sweep changing cpu column count).
			header := prev == nil || !prev.SameCols(p.series)
			if err := p.series.WriteCSV(ecw, header, []string{"param", "value"},
				[]string{*param, p.value}); err != nil {
				return err
			}
			prev = p.series
		}
		ecw.Flush()
		if err := ecw.Error(); err != nil {
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
	}
	if *epochJSONL != "" {
		f, err := os.Create(*epochJSONL)
		if err != nil {
			return err
		}
		for _, p := range epochs {
			if err := p.series.WriteJSONL(f, []string{"param", "value"},
				[]string{*param, p.value}); err != nil {
				return err
			}
		}
		if err := f.Close(); err != nil {
			return err
		}
	}

	// The cache summary goes to stderr — and only with -cache-dir — so
	// default stdout stays byte-identical to the pre-cache tool.
	if cache != nil {
		st := cache.Stats()
		fmt.Fprintf(stderr, "sweep: cache %s: %d hits, %d misses, %d writes, %d corrupt\n",
			*cacheDir, st.Hits, st.Misses, st.Writes, st.Corrupt)
	}
	return nil
}
