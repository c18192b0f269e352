package exp

import (
	"fmt"
	"sort"

	"hetsim/internal/core"
	"hetsim/internal/dram"
	"hetsim/internal/power"
	"hetsim/internal/stats"
	"hetsim/internal/workload"
)

// Fig1bResult is the read latency breakdown per homogeneous system.
type Fig1bResult struct {
	// Queue, Core, Xfer mean latencies (CPU cycles) per config.
	Queue, Core, Xfer map[string]float64
	Table             string
}

// Fig1b reproduces the queue/core latency breakdown (paper: RLDRAM3
// total read latency ≈ 43% below DDR3, dominated by queue time).
func Fig1b(r *Runner) (Fig1bResult, error) {
	r.Submit(core.Baseline(0), core.HomogeneousRLDRAM3(0), core.HomogeneousLPDDR2(0))
	out := Fig1bResult{Queue: map[string]float64{}, Core: map[string]float64{}, Xfer: map[string]float64{}}
	tb := &stats.Table{Title: "Figure 1b: DRAM read latency breakdown (mean CPU cycles)",
		Headers: []string{"config", "queue", "core", "xfer", "total"}}
	for _, cfg := range []core.SystemConfig{
		core.Baseline(0), core.HomogeneousRLDRAM3(0), core.HomogeneousLPDDR2(0)} {
		var q, c, x stats.Mean
		for _, b := range r.Opts.Benchmarks {
			res, err := r.Run(cfg, b)
			if err != nil {
				return out, err
			}
			q.Add(res.QueueLat)
			c.Add(res.CoreLat)
			x.Add(res.XferLat)
		}
		out.Queue[cfg.Name] = q.Value()
		out.Core[cfg.Name] = c.Value()
		out.Xfer[cfg.Name] = x.Value()
		tb.AddRowf(cfg.Name, "%.1f", q.Value(), c.Value(), x.Value(), q.Value()+c.Value()+x.Value())
	}
	out.Table = tb.String()
	return out, nil
}

// Fig2Result is the chip power vs bus utilization sweep.
type Fig2Result struct {
	Utils []float64
	// PowerMW[kind][i] at Utils[i].
	PowerMW map[string][]float64
	Table   string
}

// Fig2 is analytic: per-chip power for the three flavors across bus
// utilizations (paper: RLDRAM3 ≫ DDR3 at idle, converging under load;
// LPDDR2 lowest everywhere).
func Fig2() Fig2Result {
	out := Fig2Result{PowerMW: map[string][]float64{}}
	tb := &stats.Table{Title: "Figure 2: chip power vs bus utilization (mW per chip)",
		Headers: []string{"util", "DDR3", "RLDRAM3", "LPDDR2"}}
	kinds := []struct {
		name string
		chip power.ChipParams
		tm   power.EnergyTiming
	}{
		{"DDR3", power.DDR3Chip(), power.TimingFor(dram.DDR3Timing())},
		{"RLDRAM3", power.RLDRAM3Chip(), power.TimingFor(dram.RLDRAM3Timing())},
		{"LPDDR2", power.LPDDR2ServerChip(), power.TimingFor(dram.LPDDR2Timing())},
	}
	for u := 0.0; u <= 1.0001; u += 0.1 {
		out.Utils = append(out.Utils, u)
		row := []float64{}
		for _, k := range kinds {
			p := power.ChipPowerMW(k.chip, k.tm, u)
			out.PowerMW[k.name] = append(out.PowerMW[k.name], p)
			row = append(row, p)
		}
		tb.AddRowf(fmt.Sprintf("%3.0f%%", u*100), "%.0f", row...)
	}
	out.Table = tb.String()
	return out
}

// Fig3Result is the per-line critical-word census for two contrasting
// benchmarks.
type Fig3Result struct {
	// TopLines[bench] lists the per-word access percentage of the most
	// accessed lines.
	TopLines map[string][][8]float64
	Table    string
}

// Fig3 reproduces the per-line critical word histograms for leslie3d
// (word 0 dominant) and mcf (multiple dominant words).
func Fig3(r *Runner, topN int) (Fig3Result, error) {
	out := Fig3Result{TopLines: map[string][][8]float64{}}
	tb := &stats.Table{Title: "Figure 3: critical word distribution in most-accessed lines (%)",
		Headers: []string{"bench/line", "w0", "w1", "w2", "w3", "w4", "w5", "w6", "w7"}}
	for _, bench := range []string{"leslie3d", "mcf"} {
		spec, err := workload.Get(bench)
		if err != nil {
			return out, err
		}
		cfg := core.Baseline(r.Opts.NCores)
		cfg.TrackPerLine = true
		cfg.Seed = r.Opts.Seed
		sys, err := core.NewSystem(cfg, spec)
		if err != nil {
			return out, err
		}
		sys.Run(r.Opts.Scale)
		census := sys.Hier.PerLineCensus()
		type lineCount struct {
			la    uint64
			total uint32
			words [8]uint32
		}
		var lines []lineCount
		for la, words := range census {
			var t uint32
			for _, c := range words {
				t += c
			}
			lines = append(lines, lineCount{la, t, *words})
		}
		sort.Slice(lines, func(i, j int) bool {
			if lines[i].total != lines[j].total {
				return lines[i].total > lines[j].total
			}
			return lines[i].la < lines[j].la
		})
		if len(lines) > topN {
			lines = lines[:topN]
		}
		for i, l := range lines {
			var pct [8]float64
			row := make([]float64, 8)
			for w := 0; w < 8; w++ {
				pct[w] = 100 * float64(l.words[w]) / float64(l.total)
				row[w] = pct[w]
			}
			out.TopLines[bench] = append(out.TopLines[bench], pct)
			tb.AddRowf(fmt.Sprintf("%s#%d", bench, i), "%.0f", row...)
		}
	}
	out.Table = tb.String()
	return out, nil
}

// Fig4Result is the suite-wide critical word distribution.
type Fig4Result struct {
	PerBench   map[string][8]float64
	Word0Count int // benchmarks with word-0 > 50%
	MeanWord0  float64
	Table      string
}

// Fig4 measures the requested-word distribution at the DRAM level
// (paper: word 0 critical in >50% of fetches for 21 of 27 programs,
// 67% suite-wide).
func Fig4(r *Runner) (Fig4Result, error) {
	r.Submit(core.Baseline(0))
	out := Fig4Result{PerBench: map[string][8]float64{}}
	tb := &stats.Table{Title: "Figure 4: distribution of critical words (fraction of fetches)",
		Headers: []string{"benchmark", "w0", "w1", "w2", "w3", "w4", "w5", "w6", "w7"}}
	var w0sum float64
	for _, b := range r.Opts.Benchmarks {
		res, err := r.Baseline(b)
		if err != nil {
			return out, err
		}
		out.PerBench[b] = res.CritWordFrac
		if res.CritWordFrac[0] > 0.5 {
			out.Word0Count++
		}
		w0sum += res.CritWordFrac[0]
		tb.AddRowf(b, "%.2f", res.CritWordFrac[:]...)
	}
	out.MeanWord0 = w0sum / float64(len(r.Opts.Benchmarks))
	tb.AddRow("—")
	tb.AddRowf("mean", "%.2f", out.MeanWord0)
	out.Table = tb.String()
	return out, nil
}
