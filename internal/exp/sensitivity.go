package exp

import (
	"fmt"

	"hetsim/internal/core"
	"hetsim/internal/stats"
)

// ROBResult is the reorder-buffer depth sensitivity of the CWF benefit.
type ROBResult struct {
	// Gains[i] is the RL throughput gain over a baseline with the same
	// ROB size.
	Gains []float64
	Table string
}

// ROBSensitivity measures how the RL gain varies with ROB depth: a
// deeper window hides more of the line latency itself, so the critical
// word's head start matters less (and vice versa for shallow windows,
// which is why simple cores — the paper's §1 motivation — benefit most).
func ROBSensitivity(r *Runner, sizes []int) (ROBResult, error) {
	if len(sizes) == 0 {
		sizes = []int{32, 64, 128}
	}
	var out ROBResult
	tb := &stats.Table{Title: "ROB-depth sensitivity of the RL gain",
		Headers: []string{"robsize", "RL/baseline"}}
	bases := make([]core.SystemConfig, len(sizes))
	rls := make([]core.SystemConfig, len(sizes))
	for i, sz := range sizes {
		base := core.Baseline(0)
		base.ROBSize = sz
		base.Name = fmt.Sprintf("DDR3-rob%d", sz)
		rl := core.RL(0)
		rl.ROBSize = sz
		rl.Name = fmt.Sprintf("RL-rob%d", sz)
		bases[i], rls[i] = base, rl
	}
	r.Submit(append(bases, rls...)...)
	for i, sz := range sizes {
		base, rl := bases[i], rls[i]
		var gains []float64
		for _, b := range r.Opts.Benchmarks {
			bres, err := r.Run(base, b)
			if err != nil {
				return out, err
			}
			rres, err := r.Run(rl, b)
			if err != nil {
				return out, err
			}
			if bres.Throughput > 0 {
				gains = append(gains, rres.Throughput/bres.Throughput)
			}
		}
		g := stats.GeoMean(gains)
		out.Gains = append(out.Gains, g)
		tb.AddRowf(fmt.Sprint(sz), "%.3f", g)
	}
	out.Table = tb.String()
	return out, nil
}
