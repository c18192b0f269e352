package exp

import (
	"hetsim/internal/core"
	"hetsim/internal/stats"
)

// TopologyResult is the declarative-topology study: normalized
// throughput of arbitrary memory organizations against the DDR3
// baseline. The default pair covers the two organizations only the
// topology layer can express — the 3-tier DRAM-cache system (a fast
// RLDRAM3 cache tier fronting slow LPDDR2 far memory, Alloy-style
// tags-with-data) and the §10 HMC-fast/HMC-lp critical-word mix.
type TopologyResult struct {
	// PerBench maps benchmark -> normalized throughput per config, in
	// Names order.
	PerBench map[string][]float64
	// Means maps config name -> geometric-mean normalized throughput.
	Means map[string]float64
	// Names lists the studied config names in run order.
	Names []string
	Table string
}

// Topologies runs each config across the runner's benchmark suite and
// normalizes to the DDR3 baseline. With no configs it studies the
// default DRAM-cache and HMC-hetero organizations.
func Topologies(r *Runner, cfgs []core.SystemConfig) (TopologyResult, error) {
	if len(cfgs) == 0 {
		cfgs = []core.SystemConfig{core.DRAMCached(0), core.HMCHetero(0)}
	}
	r.Submit(append([]core.SystemConfig{core.Baseline(0)}, cfgs...)...)
	out := TopologyResult{
		PerBench: map[string][]float64{},
		Means:    map[string]float64{},
	}
	headers := []string{"benchmark"}
	for _, cfg := range cfgs {
		out.Names = append(out.Names, cfg.Name)
		headers = append(headers, cfg.Name)
	}
	tb := &stats.Table{Title: "memory topology study (normalized to DDR3 baseline)",
		Headers: headers}
	cols := make([][]float64, len(cfgs))
	for _, b := range r.Opts.Benchmarks {
		row := make([]float64, 0, len(cfgs))
		for i, cfg := range cfgs {
			n, _, err := r.normalize(cfg, b)
			if err != nil {
				return out, err
			}
			row = append(row, n)
			cols[i] = append(cols[i], n)
		}
		out.PerBench[b] = row
		tb.AddRowf(b, "%.3f", row...)
	}
	means := make([]float64, 0, len(cfgs))
	for i, cfg := range cfgs {
		m := stats.GeoMean(cols[i])
		out.Means[cfg.Name] = m
		means = append(means, m)
	}
	tb.AddRowf("geomean", "%.3f", means...)
	out.Table = tb.String()
	return out, nil
}
