package exp

import (
	"hetsim/internal/core"
	"hetsim/internal/dram"
	"hetsim/internal/stats"
	"hetsim/internal/topology"
)

// Study is a throughput study: each column's config run across the
// benchmark suite and normalized to the DDR3 baseline.
type Study struct {
	// Columns are the table headers of the studied configs, in order.
	Columns []string
	// PerBench maps benchmark -> normalized throughput per column.
	PerBench map[string][]float64
	// Means holds each column's geometric mean over the benchmarks.
	Means []float64
	Table string
}

// column is one config of a study under its table header.
type column struct {
	label string
	cfg   core.SystemConfig
}

// study submits the baseline and every column, then collects each
// column's throughput normalized to the baseline, benchmark by
// benchmark, into a table with a geomean row.
func study(r *Runner, title string, cols ...column) (Study, error) {
	out := Study{PerBench: map[string][]float64{}}
	cfgs := []core.SystemConfig{core.Baseline(0)}
	for _, c := range cols {
		out.Columns = append(out.Columns, c.label)
		cfgs = append(cfgs, c.cfg)
	}
	r.Submit(cfgs...)
	tb := &stats.Table{Title: title, Headers: append([]string{"benchmark"}, out.Columns...)}
	perCol := make([][]float64, len(cols))
	for _, b := range r.Opts.Benchmarks {
		row := make([]float64, len(cols))
		for i, c := range cols {
			n, _, err := r.normalize(c.cfg, b)
			if err != nil {
				return out, err
			}
			row[i] = n
			perCol[i] = append(perCol[i], n)
		}
		out.PerBench[b] = row
		tb.AddRowf(b, "%.3f", row...)
	}
	for _, vals := range perCol {
		out.Means = append(out.Means, stats.GeoMean(vals))
	}
	tb.AddRowf("geomean", "%.3f", out.Means...)
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
	return study(r, "Figure 1a: homogeneous system throughput (normalized to DDR3)",
		column{"DDR3", core.Baseline(0)},
		column{"RLDRAM3", core.HomogeneousRLDRAM3(0)},
		column{"LPDDR2", core.HomogeneousLPDDR2(0)})
}

// Fig6 measures RD/RL/DL throughput normalized to the DDR3 baseline
// (paper: RD +21%, RL +12.9%, DL −9%).
func Fig6(r *Runner) (Study, error) {
	return study(r, "Figure 6: CWF system throughput (normalized to DDR3 baseline)",
		column{"RD", core.RD(0)}, column{"RL", core.RL(0)}, column{"DL", core.DL(0)})
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
	return study(r, "Figure 9: placement policies (throughput normalized to DDR3)",
		column{"RL", core.RL(0)}, column{"RL-AD", ad}, column{"RL-OR", or},
		column{"RLDRAM3", core.HomogeneousRLDRAM3(0)})
}

// RandomMapping places a random word per line on the fast channel
// (paper: only +2.1% mean, with severe regressions for some programs —
// intelligent mapping is what earns the gains).
func RandomMapping(r *Runner) (Study, error) {
	cfg := core.RL(0)
	cfg.Placement = core.PlaceRandom
	cfg.Name = "RL-random"
	return study(r, "§6.1.1: random critical word mapping (normalized throughput)",
		column{"RL-random", cfg})
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
	return study(r, "§4.2.4 ablation: shared vs private critical cmd bus (RL-OR throughput)",
		column{"shared", shared}, column{"private", private})
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
	return study(r, "§5 controller policies: baseline DDR3 variants (normalized throughput)",
		column{"FCFS", fcfs}, column{"close-page", cp})
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
		cols = append(cols, column{m.String(), cfg})
	}
	return study(r, "§5: baseline DDR3 under different address interleavings", cols...)
}

// FutureHMC compares the paper's RL system against the §10 sketch: a
// high-frequency HMC serving critical words over low-power cubes
// serving lines. Stacked links beat DIMM buses on both latency and
// bandwidth, so this system should extend the RL gains.
func FutureHMC(r *Runner) (Study, error) {
	return study(r, "§10 future work: heterogeneous HMC critical-data-first",
		column{"RL", core.RL(0)}, column{"HMC-hetero", core.HMCHetero(0)})
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
		cols[i] = column{cfg.Name, cfg}
	}
	return study(r, "memory topology study (normalized to DDR3 baseline)", cols...)
}
