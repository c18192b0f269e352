package exp

import (
	"fmt"

	"hetsim/internal/core"
	"hetsim/internal/faults"
	"hetsim/internal/stats"
)

// faultEnv is one row of the fault-sensitivity sweep: a named fault
// environment expressed in the -faults spec grammar.
type faultEnv struct {
	name string
	spec string // "" = clean
}

// faultEnvs are the environments FaultSensitivity sweeps: escalating
// uniform bit-fault rates, a scripted chip-kill on one line channel,
// and the loss of the entire RLDRAM critical-word DIMM.
var faultEnvs = []faultEnv{
	{"clean", ""},
	{"bit-1e-4", "crit.bit=1e-4; line.bit=1e-4; seed=1"},
	{"bit-1e-3", "crit.bit=1e-3; line.bit=1e-3; seed=1"},
	{"bit-1e-2", "crit.bit=1e-2; line.bit=1e-2; seed=1"},
	{"chipkill", "@1000 chipkill line 0 3; seed=1"},
	{"dead-crit", "@1000 dead crit; seed=1"},
}

// FaultResult is the fault-sensitivity sweep outcome.
type FaultResult struct {
	// Gains[i] is the geomean RL throughput under faultEnvs[i]
	// normalized to the clean RL run (so "clean" reads 1.0).
	Gains []float64
	Table string
}

// FaultSensitivity measures how much of the RL configuration's benefit
// survives under injected faults: per-byte parity holds on the fast
// path, SECDED/chip-kill latency on the line path, and the degraded
// line-only mode after an RLDRAM DIMM death. Throughput is normalized
// to the clean RL run, so the table reads as "fraction of the fault-free
// performance retained". Note a runner-level Options.Faults overlay
// (the -faults flag) applies to the "clean" row too — it carries no
// environment of its own — so run this experiment without a global
// overlay for the canonical table.
func FaultSensitivity(r *Runner) (FaultResult, error) {
	out := FaultResult{}
	tb := &stats.Table{Title: "fault sensitivity of the RL system",
		Headers: []string{"environment", "vs clean", "held", "escaped", "secded", "recon", "degraded fills"}}

	cfgs := make([]core.SystemConfig, len(faultEnvs))
	for i, env := range faultEnvs {
		cfg := core.RL(0)
		if env.spec != "" {
			fc, err := faults.Parse(env.spec)
			if err != nil {
				return out, fmt.Errorf("exp: fault env %s: %w", env.name, err)
			}
			cfg.Faults = fc
			cfg.Name = "RL+" + env.name
		}
		cfgs[i] = cfg
	}
	r.Submit(cfgs...)

	clean := map[string]core.Results{}
	for _, b := range r.Opts.Benchmarks {
		res, err := r.Run(cfgs[0], b)
		if err != nil {
			return out, err
		}
		clean[b] = res
	}

	for i, env := range faultEnvs {
		var gains []float64
		var sum core.Results
		for _, b := range r.Opts.Benchmarks {
			res, err := r.Run(cfgs[i], b)
			if err != nil {
				return out, err
			}
			base := clean[b].Throughput
			if base <= 0 {
				return out, fmt.Errorf("exp: zero baseline throughput for %s", b)
			}
			gains = append(gains, res.Throughput/base)
			sum.HeldWakes += res.HeldWakes
			sum.CritEscapes += res.CritEscapes
			sum.SECDEDCorrected += res.SECDEDCorrected
			sum.Reconstructions += res.Reconstructions
			sum.DegradedFills += res.DegradedFills
			sum.Degraded = sum.Degraded || res.Degraded
		}
		g := stats.GeoMean(gains)
		out.Gains = append(out.Gains, g)
		tb.AddRow(env.name, fmt.Sprintf("%.3f", g),
			fmt.Sprint(sum.HeldWakes), fmt.Sprint(sum.CritEscapes),
			fmt.Sprint(sum.SECDEDCorrected), fmt.Sprint(sum.Reconstructions),
			fmt.Sprint(sum.DegradedFills))
	}
	out.Table = tb.String()
	return out, nil
}
