package exp

import (
	"sort"

	"hetsim/internal/core"
	"hetsim/internal/power"
	"hetsim/internal/stats"
)

// systemEnergy computes a config's system energy for one benchmark,
// normalized to the baseline system energy (§6.1.3 methodology: the
// baseline DRAM power defines total system power via the 25% share;
// CPU dynamic power scales with activity = relative IPC).
func systemEnergy(res, base core.Results) float64 {
	model := power.SystemModel{BaselineDRAMPowerMW: base.DRAMPowerMW}
	activityBase := 1.0
	activity := 1.0
	if base.SumIPC > 0 {
		activity = res.SumIPC / base.SumIPC
	}
	baseMJ := model.SystemEnergyMJ(base.DRAMEnergyMJ, base.Cycles, activityBase)
	resMJ := model.SystemEnergyMJ(res.DRAMEnergyMJ, res.Cycles, activity)
	if baseMJ > 0 {
		return resMJ / baseMJ
	}
	return 0
}

// Fig10 measures system energy normalized to the DDR3 baseline (paper:
// RL −6%, DL −13%), plus the RL DRAM-only energy ratio (paper: −15%).
func Fig10(r *Runner) (Study, error) {
	base := core.Baseline(0)
	return study(r, ratios("Figure 10: system energy (normalized to DDR3 baseline)"),
		column{"RD", core.RD(0), base, systemEnergy}, column{"RL", core.RL(0), base, systemEnergy},
		column{"DL", core.DL(0), base, systemEnergy}, column{"RL-mem", core.RL(0), base, dramEnergy})
}

// Fig11Result is the bandwidth-utilization vs energy-savings scatter.
type Fig11Result struct {
	// Points are (baseline bus utilization, RL system energy savings).
	Points [][2]float64
	// Corr is the covariance sign proxy: mean savings of the
	// top-half-utilization workloads minus the bottom half.
	HighMinusLow float64
	Table        string
}

// Fig11 shows energy savings growing with bandwidth utilization
// (paper: the RLDRAM3/DDR3 power gap shrinks at high utilization).
func Fig11(r *Runner) (Fig11Result, error) {
	r.Submit(core.Baseline(0), core.RL(0))
	var out Fig11Result
	tb := &stats.Table{Title: "Figure 11: bus utilization vs RL system energy savings",
		Headers: []string{"benchmark", "util%", "savings%"}}
	type pt struct {
		bench string
		u, s  float64
	}
	var pts []pt
	for _, b := range r.Opts.Benchmarks {
		base, err := r.Baseline(b)
		if err != nil {
			return out, err
		}
		resRL, err := r.Run(core.RL(0), b)
		if err != nil {
			return out, err
		}
		norm := systemEnergy(resRL, base)
		pts = append(pts, pt{b, base.BusUtil, 1 - norm})
	}
	sort.Slice(pts, func(i, j int) bool { return pts[i].u < pts[j].u })
	var lowSum, highSum float64
	for i, p := range pts {
		out.Points = append(out.Points, [2]float64{p.u, p.s})
		tb.AddRowf(p.bench, "%.1f", p.u*100, p.s*100)
		if i < len(pts)/2 {
			lowSum += p.s
		} else {
			highSum += p.s
		}
	}
	if n := len(pts) / 2; n > 0 {
		out.HighMinusLow = highSum/float64(len(pts)-n) - lowSum/float64(n)
	}
	out.Table = tb.String()
	return out, nil
}

// Malladi evaluates RL built from unmodified mobile LPDRAM (no ODT/DLL
// power, deep sleep states): its system energy against the baseline
// (paper: the savings grow to 26.1%) and its throughput against plain
// RL (paper: "very little loss in performance").
func Malladi(r *Runner) (Study, error) {
	m := core.RL(0)
	m.DeepSleepLP = true
	m.Name = "RL-malladi"
	return study(r, ratios("§7.2: RL with unmodified (Malladi-style) LPDRAM"),
		column{"sysEnergy", m, core.Baseline(0), systemEnergy}, column{"perfVsRL", m, core.RL(0), throughput})
}
