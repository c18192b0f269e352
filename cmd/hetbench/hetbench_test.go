package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"hetsim/internal/core"
)

// smokeWorkload shrinks a workload so that it runs in about a second:
// short cells, and only two of the study's benchmarks.
func smokeWorkload(w workloadDef) workloadDef {
	s := core.RunScale{WarmupReads: 50, MeasureReads: 300, MaxCycles: w.scale.MaxCycles}
	if w.study {
		s.PrewarmOps = 2000
		w.cells = cross([]string{"baseline", "rd", "rl", "dl"}, "libquantum", "mcf")
	}
	w.scale = s
	return w
}

// smoke runs one round of the workload after its warmup round.
func smoke(t *testing.T, w workloadDef, seed uint64, traced bool) outcome {
	t.Helper()
	o, err := measure(settings{w: w, seed: seed, traced: traced, dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	if len(o.failures) > 0 {
		t.Fatalf("%s seed %d: failures: %s", w.name, seed, strings.Join(o.failures, "; "))
	}
	return o
}

func loadTestSpec(t *testing.T) benchSpec {
	t.Helper()
	spec, err := loadSpec("../../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	return spec
}

// checkMetrics asserts that o reports exactly the metrics of want, each
// with its unit and a finite value; positive is also required of the
// end-to-end metrics.
func checkMetrics(t *testing.T, got map[string]metric, want []metricSpec, positive bool) {
	t.Helper()
	if len(got) != len(want) {
		t.Errorf("%d metrics reported, BENCHMARK.json lists %d", len(got), len(want))
	}
	for _, m := range want {
		g, ok := got[m.Name]
		switch {
		case !ok:
			t.Errorf("metric %s not reported", m.Name)
		case g.Unit != m.Unit:
			t.Errorf("metric %s: unit %q, BENCHMARK.json says %q", m.Name, g.Unit, m.Unit)
		case math.IsNaN(g.Value) || math.IsInf(g.Value, 0) || (positive && g.Value <= 0):
			t.Errorf("metric %s: value %v", m.Name, g.Value)
		}
	}
}

func TestBenchmarkJSONMatchesWorkloads(t *testing.T) {
	spec := loadTestSpec(t)
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the program has %d", len(spec.Workloads), len(workloads))
	}
	for i, w := range spec.Workloads {
		if w.Name != workloads[i].name {
			t.Errorf("workload %d: BENCHMARK.json has %q, the program %q", i, w.Name, workloads[i].name)
		}
	}
}

// TestWorkloadsSmoke runs every workload for one round: each end-to-end
// metric is emitted with its unit, nothing fails, every cell's results
// repeat within the run, and the held-out seed changes them.
func TestWorkloadsSmoke(t *testing.T) {
	spec := loadTestSpec(t)
	for _, w := range workloads {
		w := smokeWorkload(w)
		t.Run(w.name, func(t *testing.T) {
			o := smoke(t, w, 1, false)
			checkMetrics(t, o.metrics, spec.EndToEnd, true)
			if len(o.digests) != len(w.cells) {
				t.Errorf("%d digests for %d cells", len(o.digests), len(w.cells))
			}
			// The warmup round fixes each digest; the timed round must
			// have repeated every cell against it.
			if o.runSamples < len(w.cells) {
				t.Errorf("%d cell simulations after warmup, want at least %d", o.runSamples, len(w.cells))
			}
			held := smoke(t, w, 2, false)
			for k, d := range o.digests {
				if held.digests[k] == d {
					t.Errorf("seed 2 left %s unchanged", k)
				}
			}
		})
	}
}

// TestTracedSmoke checks the per-layer run of one direct workload and
// the study: every per-layer metric is emitted with its unit, host time
// is fully attributed, and only the study spends time in prewarm.
func TestTracedSmoke(t *testing.T) {
	spec := loadTestSpec(t)
	for _, name := range []string{"compute-ddr3", "study-fig6"} {
		t.Run(name, func(t *testing.T) {
			w, _ := workloadByName(name)
			w = smokeWorkload(w)
			o := smoke(t, w, 1, true)
			checkMetrics(t, o.metrics, spec.PerLayer, false)
			var sum float64
			for _, l := range layers {
				sum += o.metrics["host.self_frac."+l].Value
			}
			if math.Abs(sum-1) > 0.01 {
				t.Errorf("host.self_frac.* sums to %v", sum)
			}
			if pw := o.metrics["host.prewarm_frac"].Value; (pw > 0) != w.study {
				t.Errorf("host.prewarm_frac = %v", pw)
			}
		})
	}
}

func TestLayerOf(t *testing.T) {
	for _, c := range []struct {
		frames []string
		want   string
	}{
		{[]string{"runtime.mallocgc", "hetsim/internal/memctrl.(*Controller).tick", "hetsim/internal/sim.(*Engine).RunUntil"}, "memctrl"},
		{[]string{"hetsim/internal/sim.(*RNG).Uint64", "hetsim/internal/workload.(*Generator).Next"}, "workload"},
		{[]string{"hetsim/internal/stats.(*Mean).Add", "hetsim/internal/core.(*Hierarchy).fill"}, "core"},
		{[]string{"hetsim/internal/faults.(*Injector).Fill", "hetsim/internal/core.(*Hierarchy).fill"}, "other"},
		{[]string{"crypto/sha256.block", "main.digest", "main.main"}, "hetbench"},
		{[]string{"runtime.gcBgMarkWorker"}, "runtime"},
	} {
		if got := layerOf(c.frames); got != c.want {
			t.Errorf("layerOf(%v) = %s, want %s", c.frames, got, c.want)
		}
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	q1, q2, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles = %v %v %v", q1, q2, q3)
	}
}

func TestVerdict(t *testing.T) {
	base := []float64{100, 101, 99, 100, 102, 98, 100, 101, 99, 100}
	scale := func(f float64, n int) []float64 {
		out := make([]float64, n)
		for i := range out {
			out[i] = base[i] * f
		}
		return out
	}
	for _, c := range []struct {
		name  string
		a, b  []float64
		lower bool
		want  string
	}{
		{"same", base, base, true, "no worse"},
		{"slightly slower", base, scale(1.03, 10), true, "no worse"},
		{"much slower", base, scale(1.3, 10), true, "regressed"},
		{"much faster", base, scale(0.7, 10), true, "improved"},
		{"higher is better", base, scale(1.3, 10), false, "improved"},
		{"faster, three runs", base[:3], scale(0.7, 3), true, "no worse (a gain needs 10 runs a set)"},
		{"noisy", base, []float64{50, 150, 80, 120, 60, 140, 70, 130, 90, 110}, true, "unresolved (spread wider than the bound)"},
	} {
		if got := verdict(c.a, c.b, c.lower, 0.1); got != c.want {
			t.Errorf("%s: verdict %q, want %q", c.name, got, c.want)
		}
	}
}

// TestCompare runs -compare over two sets of documents written to
// separate directories.
func TestCompare(t *testing.T) {
	root := t.TempDir()
	write := func(set string, i int, rate float64) {
		doc := document{Workload: "compute-ddr3", Seed: 1,
			Host:    hostInfo{RefStartS: 0.05, RefEndS: 0.05},
			Digests: map[string]string{"DDR3-baseline/sjeng": "abc"},
			Result: result{Correct: true, Attempted: 1, Metrics: map[string]metric{
				"reads_per_s": {rate, "1/s"}}}}
		b, err := json.Marshal(doc)
		if err != nil {
			t.Fatal(err)
		}
		dir := filepath.Join(root, set)
		if err := os.MkdirAll(dir, 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, fmt.Sprintf("%d.json", i)), b, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	for i, v := range []float64{130e3, 131e3, 129e3} {
		write("a", i, v)
		write("b", i, v/1.5)
	}
	var out bytes.Buffer
	if err := compare(&out, "../../BENCHMARK.json", []string{filepath.Join(root, "a"), filepath.Join(root, "b")}); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"== compute-ddr3 (a: 3 runs, b: 3 runs)", "regressed", "simulated results identical: yes"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("output lacks %q:\n%s", want, out.String())
		}
	}
	if err := compare(&out, "../../BENCHMARK.json", []string{filepath.Join(root, "a")}); err == nil {
		t.Error("-compare with one set did not fail")
	}
}
