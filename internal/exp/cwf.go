package exp

import (
	"hetsim/internal/core"
	"hetsim/internal/stats"
)

// Fig7Result is the requested-critical-word latency comparison.
type Fig7Result struct {
	PerBench map[string][4]float64 // baseline, RD, RL, DL mean latency
	// Mean reductions vs baseline (paper: RD −30%, RL −22%).
	ReductionRD float64
	ReductionRL float64
	Table       string
}

// Fig7 measures mean DRAM latency of the requested critical word.
func Fig7(r *Runner) (Fig7Result, error) {
	r.Submit(core.Baseline(0), core.RD(0), core.RL(0), core.DL(0))
	out := Fig7Result{PerBench: map[string][4]float64{}}
	tb := &stats.Table{Title: "Figure 7: critical word latency (mean CPU cycles)",
		Headers: []string{"benchmark", "DDR3", "RD", "RL", "DL"}}
	var redRD, redRL []float64
	for _, b := range r.Opts.Benchmarks {
		base, err := r.Baseline(b)
		if err != nil {
			return out, err
		}
		rd, err := r.Run(core.RD(0), b)
		if err != nil {
			return out, err
		}
		rl, err := r.Run(core.RL(0), b)
		if err != nil {
			return out, err
		}
		dl, err := r.Run(core.DL(0), b)
		if err != nil {
			return out, err
		}
		out.PerBench[b] = [4]float64{base.CritLatency, rd.CritLatency, rl.CritLatency, dl.CritLatency}
		if base.CritLatency > 0 {
			redRD = append(redRD, rd.CritLatency/base.CritLatency)
			redRL = append(redRL, rl.CritLatency/base.CritLatency)
		}
		tb.AddRowf(b, "%.0f", base.CritLatency, rd.CritLatency, rl.CritLatency, dl.CritLatency)
	}
	out.ReductionRD = 1 - stats.ArithMean(redRD)
	out.ReductionRL = 1 - stats.ArithMean(redRL)
	out.Table = tb.String()
	return out, nil
}

// Fig8Result is the fraction of critical words served by RLDRAM3.
type Fig8Result struct {
	PerBench map[string]float64
	Mean     float64
	Table    string
}

// Fig8 measures the fraction of requested critical words served by the
// fast channel under static placement (paper: ≈67% suite-wide, high for
// word-0-biased benchmarks, low for pointer chasers).
func Fig8(r *Runner) (Fig8Result, error) {
	r.Submit(core.RL(0))
	out := Fig8Result{PerBench: map[string]float64{}}
	tb := &stats.Table{Title: "Figure 8: % critical words served by RLDRAM3 (RL, static)",
		Headers: []string{"benchmark", "served%"}}
	var sum float64
	for _, b := range r.Opts.Benchmarks {
		res, err := r.Run(core.RL(0), b)
		if err != nil {
			return out, err
		}
		out.PerBench[b] = res.CritFromFastFrac
		sum += res.CritFromFastFrac
		tb.AddRowf(b, "%.1f", res.CritFromFastFrac*100)
	}
	out.Mean = sum / float64(len(r.Opts.Benchmarks))
	tb.AddRowf("mean", "%.1f", out.Mean*100)
	out.Table = tb.String()
	return out, nil
}
