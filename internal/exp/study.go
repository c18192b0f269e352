package exp

import (
	"fmt"
	"slices"

	"hetsim/internal/core"
	"hetsim/internal/dram"
	"hetsim/internal/stats"
	"hetsim/internal/topology"
)

// Study is a per-benchmark table: each column's value for every
// benchmark of the suite, then a summary row.
type Study struct {
	// Columns are the table headers of the studied configs, in order.
	Columns []string
	// PerBench maps benchmark -> the value of each column.
	PerBench map[string][]float64
	// Means holds each column's summary over the benchmarks: its
	// geometric or arithmetic mean, or nil for a study with no summary
	// row.
	Means []float64
	Table string
}

// column is one config of a study under its table header: the value
// read from the config's run and the run it is measured against.
type column struct {
	label string
	cfg   core.SystemConfig
	ref   core.SystemConfig
	value func(res, ref core.Results) float64
}

// col is cfg's throughput normalized to the DDR3 baseline, the usual
// column.
func col(label string, cfg core.SystemConfig) column {
	return column{label, cfg, core.Baseline(0), throughput}
}

// throughput is the run's throughput normalized to its reference's.
func throughput(res, ref core.Results) float64 { return res.Throughput / ref.Throughput }

// dramEnergy is the run's DRAM energy normalized to its reference's.
func dramEnergy(res, ref core.Results) float64 { return res.DRAMEnergyMJ / ref.DRAMEnergyMJ }

// summary is a study's last row: its label and how it reduces a
// column. The zero summary prints no row.
type summary struct {
	label string
	of    func([]float64) float64
}

var (
	geomean = summary{"geomean", stats.GeoMean}
	mean    = summary{"mean", stats.ArithMean}
)

// layout is how a study prints: its title, its cell format, whether
// values are fractions printed as percentages, and its summary row.
type layout struct {
	title   string
	format  string
	percent bool
	summary summary
}

// ratios is the layout of a table of ratios: three decimals and a
// geomean row.
func ratios(title string) layout { return layout{title, "%.3f", false, geomean} }

// study submits each distinct config and reference once, then reads each
// column's value benchmark by benchmark into a table. A reference run
// with no throughput is an error.
func study(r *Runner, l layout, cols ...column) (Study, error) {
	out := Study{PerBench: map[string][]float64{}}
	var cfgs []core.SystemConfig
	seen := map[core.ConfigKey]bool{}
	for _, c := range cols {
		out.Columns = append(out.Columns, c.label)
		for _, cfg := range []core.SystemConfig{c.ref, c.cfg} {
			if k := cfg.Key(); !seen[k] {
				seen[k] = true
				cfgs = append(cfgs, cfg)
			}
		}
	}
	r.Submit(cfgs...)
	tb := &stats.Table{Title: l.title, Headers: append([]string{"benchmark"}, out.Columns...)}
	row := func(label string, vals []float64) {
		if l.percent {
			vals = slices.Clone(vals)
			for i := range vals {
				vals[i] *= 100
			}
		}
		tb.AddRowf(label, l.format, vals...)
	}
	perCol := make([][]float64, len(cols))
	for _, b := range r.Opts.Benchmarks {
		vals := make([]float64, len(cols))
		for i, c := range cols {
			ref, err := r.Run(c.ref, b)
			if err != nil {
				return out, err
			}
			res, err := r.Run(c.cfg, b)
			if err != nil {
				return out, err
			}
			if ref.Throughput <= 0 {
				return out, fmt.Errorf("exp: zero baseline throughput for %s", b)
			}
			vals[i] = c.value(res, ref)
			perCol[i] = append(perCol[i], vals[i])
		}
		out.PerBench[b] = vals
		row(b, vals)
	}
	if l.summary.of != nil {
		for _, vals := range perCol {
			out.Means = append(out.Means, l.summary.of(vals))
		}
		row(l.summary.label, out.Means)
	}
	out.Table = tb.String()
	return out, nil
}

// Chart renders column col as ASCII bars, one per benchmark, with '|'
// marking the baseline's 1.0.
func (s Study) Chart(title string, col int) string {
	labels := stats.SortedKeys(s.PerBench)
	vals := make([]float64, len(labels))
	for i, b := range labels {
		vals[i] = s.PerBench[b][col]
	}
	return stats.BarChart(title, labels, vals, 1.0, 48)
}

// Fig1a measures throughput of homogeneous RLDRAM3 and LPDDR2 systems
// normalized to the DDR3 baseline (paper: +31% and −13%).
func Fig1a(r *Runner) (Study, error) {
	return study(r, ratios("Figure 1a: homogeneous system throughput (normalized to DDR3)"),
		col("DDR3", core.Baseline(0)),
		col("RLDRAM3", core.HomogeneousRLDRAM3(0)),
		col("LPDDR2", core.HomogeneousLPDDR2(0)))
}

// Fig6 measures RD/RL/DL throughput normalized to the DDR3 baseline
// (paper: RD +21%, RL +12.9%, DL −9%).
func Fig6(r *Runner) (Study, error) {
	return study(r, ratios("Figure 6: CWF system throughput (normalized to DDR3 baseline)"),
		col("RD", core.RD(0)), col("RL", core.RL(0)), col("DL", core.DL(0)))
}

// Fig7 measures the mean DRAM latency of the requested critical word,
// in CPU cycles, under the baseline and each CWF system.
func Fig7(r *Runner) (Study, error) {
	base := core.Baseline(0)
	return study(r, layout{title: "Figure 7: critical word latency (mean CPU cycles)", format: "%.0f"},
		column{"DDR3", base, base, critLatency}, column{"RD", core.RD(0), base, critLatency},
		column{"RL", core.RL(0), base, critLatency}, column{"DL", core.DL(0), base, critLatency})
}

// critLatency is the run's mean critical word latency.
func critLatency(res, _ core.Results) float64 { return res.CritLatency }

// critReduction is 1 − the arithmetic mean, over benches in order, of
// Fig7 column i's latency relative to the DDR3 column's (paper: RD
// −30%, RL −22%). Benchmarks with no baseline latency are skipped.
func critReduction(f7 Study, benches []string, i int) float64 {
	var rel []float64
	for _, b := range benches {
		if v := f7.PerBench[b]; v[0] > 0 {
			rel = append(rel, v[i]/v[0])
		}
	}
	return 1 - stats.ArithMean(rel)
}

// Fig8 measures the fraction of requested critical words served by the
// fast channel under static placement (paper: ≈67% suite-wide, high for
// word-0-biased benchmarks, low for pointer chasers).
func Fig8(r *Runner) (Study, error) {
	return study(r, layout{title: "Figure 8: % critical words served by RLDRAM3 (RL, static)",
		format: "%.1f", percent: true, summary: mean},
		column{"served%", core.RL(0), core.RL(0), func(res, _ core.Results) float64 { return res.CritFromFastFrac }})
}

// Fig9 measures static vs adaptive vs oracle placement and the
// all-RLDRAM3 bound (paper: +12.9%, +15.7%, +28%, higher still).
func Fig9(r *Runner) (Study, error) {
	ad := core.RL(0)
	ad.Placement = core.PlaceAdaptive
	ad.Name = "RL-AD"
	or := core.RL(0)
	or.Placement = core.PlaceOracle
	or.Name = "RL-OR"
	return study(r, ratios("Figure 9: placement policies (throughput normalized to DDR3)"),
		col("RL", core.RL(0)), col("RL-AD", ad), col("RL-OR", or),
		col("RLDRAM3", core.HomogeneousRLDRAM3(0)))
}

// RandomMapping places a random word per line on the fast channel
// (paper: only +2.1% mean, with severe regressions for some programs —
// intelligent mapping is what earns the gains).
func RandomMapping(r *Runner) (Study, error) {
	cfg := core.RL(0)
	cfg.Placement = core.PlaceRandom
	cfg.Name = "RL-random"
	return study(r, ratios("§6.1.1: random critical word mapping (normalized throughput)"),
		col("RL-random", cfg))
}

// CmdBusAblation compares the aggregated (one 38-bit bus, the shipping
// design) against four private buses (the §4.2.2 starting point that
// costs 3x more address pins), both under the oracle placement, which
// maximizes critical channel pressure — §6.1.2 names the shared bus as
// RL-OR's bottleneck for mcf/milc/lbm.
func CmdBusAblation(r *Runner) (Study, error) {
	shared := core.RL(0)
	shared.Placement = core.PlaceOracle
	shared.Name = "RL-OR"
	private := shared
	private.Topology = topology.CWF(dram.RLDRAM3, core.Channels, dram.LPDDR2, core.Channels, topology.BusPrivate, false)
	private.Name = "RL-OR-privbus"
	return study(r, ratios("§4.2.4 ablation: shared vs private critical cmd bus (RL-OR throughput)"),
		col("shared", shared), col("private", private))
}

// SubRankAblation compares the shipping four narrow x9 critical ranks
// against one wide 4-chip rank: the paper argues narrow ranks cut
// activation energy 4x and add rank-level parallelism. Each rank's
// throughput and DRAM energy are normalized to the DDR3 baseline.
func SubRankAblation(r *Runner) (Study, error) {
	base, narrow, wide := core.Baseline(0), core.RL(0), core.RL(0)
	wide.Topology = topology.CWF(dram.RLDRAM3, 1, dram.LPDDR2, core.Channels, topology.BusDefault, true)
	wide.Name = "RL-widerank"
	return study(r, ratios("§4.2.4 ablation: narrow x9 ranks vs one wide 4-chip rank (RL)"),
		col("narrowPerf", narrow), col("widePerf", wide),
		column{"narrowEn", narrow, base, dramEnergy}, column{"wideEn", wide, base, dramEnergy})
}

// SchedulerPolicies measures the two controller policy ablations the
// paper's methodology fixes for the DDR3 baseline: FR-FCFS scheduling
// (vs plain FCFS, expected below 1: no row-hit first-ready pass) and
// the open-page row policy (vs close-page, the §5 choice).
func SchedulerPolicies(r *Runner) (Study, error) {
	fcfs := core.Baseline(0)
	fcfs.FCFS = true
	fcfs.Name = "DDR3-fcfs"
	cp := core.Baseline(0)
	cp.ClosePageLines = true
	cp.Name = "DDR3-closepage"
	return study(r, ratios("§5 controller policies: baseline DDR3 variants (normalized throughput)"),
		col("FCFS", fcfs), col("close-page", cp))
}

// AddressMapping reproduces the paper's justification for its baseline
// mapping: the open-row scheme of Jacob et al. "results in the best
// performing baseline on average when compared to other commonly used
// address interleaving schemes." The open-row column is the baseline
// itself, so it reads 1.0.
func AddressMapping(r *Runner) (Study, error) {
	var cols []column
	for _, m := range []core.Mapping{core.MapDefault, core.MapXOR, core.MapBankFirst} {
		cfg := core.Baseline(0)
		cfg.LineMapping = m
		if m != core.MapDefault {
			cfg.Name = "DDR3-" + m.String()
		}
		cols = append(cols, col(m.String(), cfg))
	}
	return study(r, ratios("§5: baseline DDR3 under different address interleavings"), cols...)
}

// FutureHMC compares the paper's RL system against the §10 sketch: a
// high-frequency HMC serving critical words over low-power cubes
// serving lines. Stacked links beat DIMM buses on both latency and
// bandwidth, so this system should extend the RL gains.
func FutureHMC(r *Runner) (Study, error) {
	return study(r, ratios("§10 future work: heterogeneous HMC critical-data-first"),
		col("RL", core.RL(0)), col("HMC-hetero", core.HMCHetero(0)))
}

// Topologies studies arbitrary memory organizations against the DDR3
// baseline, one column per config under its name. With no configs it
// studies the two organizations only the topology layer can express:
// the 3-tier DRAM-cache system (a fast RLDRAM3 cache tier fronting slow
// LPDDR2 far memory, Alloy-style tags-with-data) and the §10
// HMC-fast/HMC-lp critical-word mix.
func Topologies(r *Runner, cfgs []core.SystemConfig) (Study, error) {
	if len(cfgs) == 0 {
		cfgs = []core.SystemConfig{core.DRAMCached(0), core.HMCHetero(0)}
	}
	cols := make([]column, len(cfgs))
	for i, cfg := range cfgs {
		cols[i] = col(cfg.Name, cfg)
	}
	return study(r, ratios("memory topology study (normalized to DDR3 baseline)"), cols...)
}
