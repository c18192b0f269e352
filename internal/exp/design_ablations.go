package exp

import (
	"hetsim/internal/core"
	"hetsim/internal/dram"
	"hetsim/internal/stats"
	"hetsim/internal/topology"
)

// CmdBusResult is the §4.2.4/§6.1.2 shared-command-bus ablation.
type CmdBusResult struct {
	// PerBench maps benchmark -> [shared, private] normalized
	// throughput under the oracle placement (which maximizes critical
	// channel pressure — §6.1.2 names the shared bus as RL-OR's
	// bottleneck for mcf/milc/lbm).
	PerBench    map[string][2]float64
	MeanShared  float64
	MeanPrivate float64
	Table       string
}

// CmdBusAblation compares the aggregated (one 38-bit bus, the shipping
// design) against four private buses (the §4.2.2 starting point that
// costs 3x more address pins).
func CmdBusAblation(r *Runner) (CmdBusResult, error) {
	out := CmdBusResult{PerBench: map[string][2]float64{}}
	tb := &stats.Table{Title: "§4.2.4 ablation: shared vs private critical cmd bus (RL-OR throughput)",
		Headers: []string{"benchmark", "shared", "private"}}
	shared := core.RL(0)
	shared.Placement = core.PlaceOracle
	shared.Name = "RL-OR"
	private := shared
	private.Topology = topology.CWF(dram.RLDRAM3, core.Channels, dram.LPDDR2, core.Channels, topology.BusPrivate, false)
	private.Name = "RL-OR-privbus"
	r.Submit(core.Baseline(0), shared, private)
	var sh, pr []float64
	for _, b := range r.Opts.Benchmarks {
		nS, _, err := r.normalize(shared, b)
		if err != nil {
			return out, err
		}
		nP, _, err := r.normalize(private, b)
		if err != nil {
			return out, err
		}
		out.PerBench[b] = [2]float64{nS, nP}
		sh = append(sh, nS)
		pr = append(pr, nP)
		tb.AddRowf(b, "%.3f", nS, nP)
	}
	out.MeanShared, out.MeanPrivate = stats.GeoMean(sh), stats.GeoMean(pr)
	tb.AddRowf("geomean", "%.3f", out.MeanShared, out.MeanPrivate)
	out.Table = tb.String()
	return out, nil
}

// SubRankResult is the §4.2.4 narrow-rank ablation.
type SubRankResult struct {
	// PerBench maps benchmark -> [narrow x9 ranks, wide 4-chip rank]
	// {throughput, DRAM energy} ratios vs baseline.
	PerBenchPerf   map[string][2]float64
	PerBenchEnergy map[string][2]float64
	MeanNarrowPerf float64
	MeanWidePerf   float64
	MeanNarrowEn   float64
	MeanWideEn     float64
	Table          string
}

// SubRankAblation compares the shipping four narrow x9 critical ranks
// against one wide 4-chip rank: the paper argues narrow ranks cut
// activation energy 4x and add rank-level parallelism.
func SubRankAblation(r *Runner) (SubRankResult, error) {
	out := SubRankResult{PerBenchPerf: map[string][2]float64{}, PerBenchEnergy: map[string][2]float64{}}
	tb := &stats.Table{Title: "§4.2.4 ablation: narrow x9 ranks vs one wide 4-chip rank (RL)",
		Headers: []string{"benchmark", "narrowPerf", "widePerf", "narrowEn", "wideEn"}}
	narrow := core.RL(0)
	wide := core.RL(0)
	wide.Topology = topology.CWF(dram.RLDRAM3, 1, dram.LPDDR2, core.Channels, topology.BusDefault, true)
	wide.Name = "RL-widerank"
	r.Submit(core.Baseline(0), narrow, wide)
	var np, wp, ne, we []float64
	for _, b := range r.Opts.Benchmarks {
		base, err := r.Baseline(b)
		if err != nil {
			return out, err
		}
		nRes, err := r.Run(narrow, b)
		if err != nil {
			return out, err
		}
		wRes, err := r.Run(wide, b)
		if err != nil {
			return out, err
		}
		perfN, perfW := 0.0, 0.0
		if base.Throughput > 0 {
			perfN = nRes.Throughput / base.Throughput
			perfW = wRes.Throughput / base.Throughput
		}
		enN, enW := 0.0, 0.0
		if base.DRAMEnergyMJ > 0 {
			enN = nRes.DRAMEnergyMJ / base.DRAMEnergyMJ
			enW = wRes.DRAMEnergyMJ / base.DRAMEnergyMJ
		}
		out.PerBenchPerf[b] = [2]float64{perfN, perfW}
		out.PerBenchEnergy[b] = [2]float64{enN, enW}
		np = append(np, perfN)
		wp = append(wp, perfW)
		ne = append(ne, enN)
		we = append(we, enW)
		tb.AddRowf(b, "%.3f", perfN, perfW, enN, enW)
	}
	out.MeanNarrowPerf, out.MeanWidePerf = stats.GeoMean(np), stats.GeoMean(wp)
	out.MeanNarrowEn, out.MeanWideEn = stats.GeoMean(ne), stats.GeoMean(we)
	tb.AddRowf("geomean", "%.3f", out.MeanNarrowPerf, out.MeanWidePerf, out.MeanNarrowEn, out.MeanWideEn)
	out.Table = tb.String()
	return out, nil
}
