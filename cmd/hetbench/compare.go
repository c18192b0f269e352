package main

import (
	"encoding/json"
	"fmt"
	"io"
	"maps"
	"math"
	"os"
	"path/filepath"
	"sort"
)

// metricSpec is one metric of BENCHMARK.json.
type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// benchSpec is the part of BENCHMARK.json this program reads.
type benchSpec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

func loadSpec(path string) (benchSpec, error) {
	var s benchSpec
	b, err := os.ReadFile(path)
	if err != nil {
		return s, err
	}
	if err := json.Unmarshal(b, &s); err != nil {
		return s, fmt.Errorf("%s: %w", path, err)
	}
	return s, nil
}

// loadSets reads the documents named by args and splits them by
// directory: the first directory seen is set a, the second set b. A
// directory argument stands for the *.json files in it.
func loadSets(args []string) (sets [2][]document, dirs []string, err error) {
	byDir := map[string][]document{}
	for _, a := range args {
		files := []string{a}
		if fi, err := os.Stat(a); err == nil && fi.IsDir() {
			files, _ = filepath.Glob(filepath.Join(a, "*.json"))
		}
		for _, f := range files {
			b, err := os.ReadFile(f)
			if err != nil {
				return sets, nil, err
			}
			var d document
			if err := json.Unmarshal(b, &d); err != nil {
				return sets, nil, fmt.Errorf("%s: %w", f, err)
			}
			dir := filepath.Dir(f)
			if _, ok := byDir[dir]; !ok {
				dirs = append(dirs, dir)
			}
			byDir[dir] = append(byDir[dir], d)
		}
	}
	if len(dirs) != 2 {
		return sets, nil, fmt.Errorf("-compare needs documents from exactly two directories, got %d", len(dirs))
	}
	return [2][]document{byDir[dirs[0]], byDir[dirs[1]]}, dirs, nil
}

// compare judges set b against set a, workload by workload. For each
// metric it prints both sets' median and quartiles, the fraction of
// (a, b) run pairs that b wins, and, for end-to-end metrics, a verdict
// under the metric's bound. It also reports whether the simulated
// results are identical and whether the host sentinel moved.
func compare(w io.Writer, specPath string, args []string) error {
	spec, err := loadSpec(specPath)
	if err != nil {
		return err
	}
	sets, dirs, err := loadSets(args)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "a = %s, b = %s\n", dirs[0], dirs[1])
	for _, wl := range spec.Workloads {
		a, b := byWorkload(sets[0], wl.Name), byWorkload(sets[1], wl.Name)
		if len(a) == 0 || len(b) == 0 {
			continue
		}
		fmt.Fprintf(w, "\n== %s (a: %d runs, b: %d runs)\n", wl.Name, len(a), len(b))
		fmt.Fprintf(w, "%-30s %-6s %5s  %-34s %-34s %8s %6s  %s\n",
			"metric", "better", "bound", "a median [q1, q3]", "b median [q1, q3]", "change", "b wins", "verdict")
		rows := func(ms []metricSpec, gated bool) {
			for _, m := range ms {
				av, bv := values(a, m.Name), values(b, m.Name)
				if len(av) == 0 || len(bv) == 0 {
					continue
				}
				lower := m.Better == "lower"
				v, bound := "-", "-"
				if gated {
					v, bound = verdict(av, bv, lower, m.Bound), fmt.Sprintf("%.0f%%", 100*m.Bound)
				}
				_, ma, _ := quartiles(av)
				_, mb, _ := quartiles(bv)
				fmt.Fprintf(w, "%-30s %-6s %5s  %-34s %-34s %+7.1f%% %6.2f  %s\n",
					m.Name, m.Better, bound, spread(av), spread(bv), 100*ratio(mb-ma, ma), winFrac(av, bv, lower), v)
			}
		}
		rows(spec.EndToEnd, true)
		rows(spec.PerLayer, false)
		fmt.Fprintf(w, "simulated results identical: %s\n", identical(a, b))
		fmt.Fprintf(w, "failed runs: a %d, b %d\n", failedRuns(a), failedRuns(b))
		fmt.Fprintln(w, sentinel(a, b))
	}
	return nil
}

func byWorkload(docs []document, name string) []document {
	var out []document
	for _, d := range docs {
		if d.Workload == name {
			out = append(out, d)
		}
	}
	return out
}

// values collects one metric across documents; each document holds
// either the end-to-end or the per-layer metrics, so a metric comes
// only from the runs that report it.
func values(docs []document, name string) []float64 {
	var out []float64
	for _, d := range docs {
		if m, ok := d.Result.Metrics[name]; ok {
			out = append(out, m.Value)
		}
	}
	return out
}

func spread(xs []float64) string {
	q1, q2, q3 := quartiles(xs)
	return fmt.Sprintf("%.5g [%.5g, %.5g]", q2, q1, q3)
}

// quartiles are Python's statistics.quantiles(xs, n=4) with its default
// exclusive method: the first quartile, the median and the third.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	switch n {
	case 0:
		return 0, 0, 0
	case 1:
		return s[0], s[0], s[0]
	}
	q := func(i int) float64 {
		j := min(max(i*(n+1)/4, 1), n-1)
		delta := i*(n+1) - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return q(1), q(2), q(3)
}

// winFrac is the fraction of (a, b) pairs in which b is better; ties
// count for neither side.
func winFrac(a, b []float64, lower bool) float64 {
	wins := 0
	for _, x := range a {
		for _, y := range b {
			if (lower && y < x) || (!lower && y > x) {
				wins++
			}
		}
	}
	return ratio(float64(wins), float64(len(a)*len(b)))
}

// minClaimRuns is how many runs each set needs before a gain is claimed.
const minClaimRuns = 10

// verdict applies the rule for claiming a gain or a regression in a
// noisy sandbox. b improved when each set has at least minClaimRuns
// runs, b wins at least nine tenths of the pairs, and the medians
// differ by more than a's own interquartile range. A metric whose
// spread in either set is wider than its bound is unresolved, unless
// every b run beats every a run. Otherwise b regressed when its median
// is worse than a's by more than the bound, and is no worse when it is
// not.
func verdict(a, b []float64, lower bool, bound float64) string {
	q1a, ma, q3a := quartiles(a)
	q1b, mb, q3b := quartiles(b)
	worse := ratio(mb-ma, ma)
	if !lower {
		worse = -worse
	}
	win := winFrac(a, b, lower)
	wide := ratio(q3a-q1a, ma) > bound || ratio(q3b-q1b, mb) > bound
	gain := win >= 0.9 && worse < 0 && math.Abs(mb-ma) > q3a-q1a
	switch {
	case gain && min(len(a), len(b)) >= minClaimRuns:
		return "improved"
	case wide && win < 1:
		return "unresolved (spread wider than the bound)"
	case worse > bound:
		return "regressed"
	case gain:
		return "no worse (a gain needs 10 runs a set)"
	default:
		return "no worse"
	}
}

// identical compares the per-cell digests of every pair of runs with the
// same seed across the two sets.
func identical(a, b []document) string {
	pairs, same := 0, 0
	for _, x := range a {
		for _, y := range b {
			if x.Seed != y.Seed {
				continue
			}
			pairs++
			if maps.Equal(x.Digests, y.Digests) {
				same++
			}
		}
	}
	switch {
	case pairs == 0:
		return "unknown (no seed in common)"
	case same == pairs:
		return "yes"
	default:
		return fmt.Sprintf("no (%d of %d same-seed pairs differ)", pairs-same, pairs)
	}
}

func failedRuns(docs []document) int {
	n := 0
	for _, d := range docs {
		if !d.Result.Correct {
			n++
		}
	}
	return n
}

// sentinel flags runs whose host speed moved during the run, and sets
// whose median sentinel time differs by more than driftLimit.
func sentinel(a, b []document) string {
	var ra, rb []float64
	drifted := 0
	for _, d := range a {
		ra = append(ra, d.Host.RefStartS)
		if d.Host.drifted() {
			drifted++
		}
	}
	for _, d := range b {
		rb = append(rb, d.Host.RefStartS)
		if d.Host.drifted() {
			drifted++
		}
	}
	_, ma, _ := quartiles(ra)
	_, mb, _ := quartiles(rb)
	move := ratio(mb-ma, ma)
	line := fmt.Sprintf("host sentinel: a %.4f s, b %.4f s (%+.1f%%)", ma, mb, 100*move)
	if math.Abs(move) > driftLimit || drifted > 0 {
		line += fmt.Sprintf("  FLAGGED: the host speed moved (%d runs drifted within themselves); host times are not comparable", drifted)
	}
	return line
}
