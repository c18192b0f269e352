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
func systemEnergy(base, res core.Results) (norm float64, memRatio float64) {
	model := power.SystemModel{BaselineDRAMPowerMW: base.DRAMPowerMW}
	activityBase := 1.0
	activity := 1.0
	if base.SumIPC > 0 {
		activity = res.SumIPC / base.SumIPC
	}
	baseMJ := model.SystemEnergyMJ(base.DRAMEnergyMJ, base.Cycles, activityBase)
	resMJ := model.SystemEnergyMJ(res.DRAMEnergyMJ, res.Cycles, activity)
	if baseMJ > 0 {
		norm = resMJ / baseMJ
	}
	if base.DRAMEnergyMJ > 0 {
		memRatio = res.DRAMEnergyMJ / base.DRAMEnergyMJ
	}
	return norm, memRatio
}

// Fig10Result is the system energy comparison.
type Fig10Result struct {
	PerBench map[string][3]float64 // RD, RL, DL normalized system energy
	MeanRD   float64
	MeanRL   float64
	MeanDL   float64
	// MeanRLMemEnergy is the RL DRAM-only energy ratio (paper: −15%).
	MeanRLMemEnergy float64
	Table           string
}

// Fig10 measures system energy normalized to the DDR3 baseline (paper:
// RL −6%, DL −13%; RL memory energy −15%).
func Fig10(r *Runner) (Fig10Result, error) {
	r.Submit(core.Baseline(0), core.RD(0), core.RL(0), core.DL(0))
	out := Fig10Result{PerBench: map[string][3]float64{}}
	tb := &stats.Table{Title: "Figure 10: system energy (normalized to DDR3 baseline)",
		Headers: []string{"benchmark", "RD", "RL", "DL", "RL-mem"}}
	var rd, rl, dl, rlMem []float64
	for _, b := range r.Opts.Benchmarks {
		base, err := r.Baseline(b)
		if err != nil {
			return out, err
		}
		resRD, err := r.Run(core.RD(0), b)
		if err != nil {
			return out, err
		}
		resRL, err := r.Run(core.RL(0), b)
		if err != nil {
			return out, err
		}
		resDL, err := r.Run(core.DL(0), b)
		if err != nil {
			return out, err
		}
		nRD, _ := systemEnergy(base, resRD)
		nRL, mRL := systemEnergy(base, resRL)
		nDL, _ := systemEnergy(base, resDL)
		out.PerBench[b] = [3]float64{nRD, nRL, nDL}
		rd = append(rd, nRD)
		rl = append(rl, nRL)
		dl = append(dl, nDL)
		rlMem = append(rlMem, mRL)
		tb.AddRowf(b, "%.3f", nRD, nRL, nDL, mRL)
	}
	out.MeanRD, out.MeanRL, out.MeanDL = stats.GeoMean(rd), stats.GeoMean(rl), stats.GeoMean(dl)
	out.MeanRLMemEnergy = stats.GeoMean(rlMem)
	tb.AddRowf("geomean", "%.3f", out.MeanRD, out.MeanRL, out.MeanDL, out.MeanRLMemEnergy)
	out.Table = tb.String()
	return out, nil
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
		norm, _ := systemEnergy(base, resRL)
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

// MalladiResult is the §7.2 unmodified-LPDRAM variant.
type MalladiResult struct {
	// MeanEnergy is RL-Malladi system energy vs baseline (paper: the
	// energy savings grow to 26.1%).
	MeanEnergy float64
	// MeanPerf is its throughput vs plain RL (paper: "very little loss
	// in performance").
	MeanPerfVsRL float64
	Table        string
}

// Malladi evaluates RL built from unmodified mobile LPDRAM (no ODT/DLL
// power, deep sleep states).
func Malladi(r *Runner) (MalladiResult, error) {
	var out MalladiResult
	tb := &stats.Table{Title: "§7.2: RL with unmodified (Malladi-style) LPDRAM",
		Headers: []string{"benchmark", "sysEnergy", "perfVsRL"}}
	m := core.RL(0)
	m.DeepSleepLP = true
	m.Name = "RL-malladi"
	r.Submit(core.Baseline(0), core.RL(0), m)
	var energies, perfs []float64
	for _, b := range r.Opts.Benchmarks {
		base, err := r.Baseline(b)
		if err != nil {
			return out, err
		}
		rl, err := r.Run(core.RL(0), b)
		if err != nil {
			return out, err
		}
		mal, err := r.Run(m, b)
		if err != nil {
			return out, err
		}
		norm, _ := systemEnergy(base, mal)
		energies = append(energies, norm)
		perf := 0.0
		if rl.Throughput > 0 {
			perf = mal.Throughput / rl.Throughput
		}
		perfs = append(perfs, perf)
		tb.AddRowf(b, "%.3f", norm, perf)
	}
	out.MeanEnergy = stats.GeoMean(energies)
	out.MeanPerfVsRL = stats.GeoMean(perfs)
	tb.AddRowf("geomean", "%.3f", out.MeanEnergy, out.MeanPerfVsRL)
	out.Table = tb.String()
	return out, nil
}
