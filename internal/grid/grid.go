// Package grid turns CLI-level names into runnable sweep cells. It
// maps the names for configurations, run scales, topologies and swept
// parameters onto concrete core.SystemConfig / core.RunScale values,
// and owns the sweep spec (Sweep) and the grid point (Cell) built from
// them. cmd/hetsim, cmd/sweep, cmd/sweepd, cmd/sweepctl and exp.Runner
// all expand grids through Sweep.Cells or run through Cell.Run, so a
// configuration submitted over HTTP to the job server is — by
// construction — the same configuration a local sweep would run, and
// both address the same durable store entries.
package grid

import (
	"fmt"
	"sort"
	"strconv"
	"strings"

	"hetsim/internal/core"
	"hetsim/internal/topology"
)

// Config maps a CLI configuration name to its SystemConfig.
func Config(name string, cores int) (core.SystemConfig, error) {
	switch strings.ToLower(name) {
	case "baseline", "ddr3":
		return core.Baseline(cores), nil
	case "lpddr2":
		return core.HomogeneousLPDDR2(cores), nil
	case "rldram3":
		return core.HomogeneousRLDRAM3(cores), nil
	case "rd":
		return core.RD(cores), nil
	case "rl":
		return core.RL(cores), nil
	case "dl":
		return core.DL(cores), nil
	case "rl-ad":
		cfg := core.RL(cores)
		cfg.Placement = core.PlaceAdaptive
		cfg.Name = "RL-AD"
		return cfg, nil
	case "rl-or":
		cfg := core.RL(cores)
		cfg.Placement = core.PlaceOracle
		cfg.Name = "RL-OR"
		return cfg, nil
	case "rl-random":
		cfg := core.RL(cores)
		cfg.Placement = core.PlaceRandom
		cfg.Name = "RL-random"
		return cfg, nil
	case "hmc", "hmc-mix":
		return core.HMCHetero(cores), nil
	case "dram-cache":
		return core.DRAMCached(cores), nil
	default:
		return core.SystemConfig{}, fmt.Errorf("unknown config %q (one of %s)",
			name, strings.Join(ConfigNames(), "|"))
	}
}

// ConfigNames lists the accepted configuration names (for usage text
// and API error messages).
func ConfigNames() []string {
	return []string{"baseline", "lpddr2", "rldram3", "rd", "rl", "dl",
		"rl-ad", "rl-or", "rl-random", "hmc", "hmc-mix", "dram-cache"}
}

// topologyNames maps the named organizations a -topology flag accepts
// to their specs; anything else is parsed as a raw spec string.
var topologyNames = map[string]string{
	"unified-ddr3":    "unified:ddr3x4",
	"unified-lpddr2":  "unified:lpddr2x4",
	"unified-rldram3": "unified:rldram3x4",
	"cwf-rl":          "crit:rldram3x4+line:lpddr2x4",
	"cwf-rd":          "crit:rldram3x4+line:ddr3x4",
	"cwf-dl":          "crit:ddr3x4+line:lpddr2x4",
	"hmc-mix":         "crit:hmc-fastx4+line:hmc-lpx4",
	"dram-cache":      "cache-tier:rldram3x1:cap=64+far-tier:lpddr2x4",
}

// TopologyNames lists the named topologies ParseTopology accepts (for
// usage text and client-side validation), sorted.
func TopologyNames() []string {
	names := make([]string, 0, len(topologyNames))
	for n := range topologyNames {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// ParseTopology resolves a -topology flag value: a named organization
// from TopologyNames, or a raw spec string such as
// "crit:rldram3x4+line:lpddr2x4". The returned spec is validated and
// normalized.
func ParseTopology(s string) (topology.Spec, error) {
	if raw, ok := topologyNames[strings.ToLower(strings.TrimSpace(s))]; ok {
		s = raw
	}
	spec, err := topology.Parse(s)
	if err != nil {
		return topology.Spec{}, fmt.Errorf("grid: topology %q: %w (named topologies: %s)",
			s, err, strings.Join(TopologyNames(), "|"))
	}
	return spec, nil
}

// ApplyTopology overrides cfg's memory organization with an explicit
// topology spec, folding the canonical spec into cfg.Name so rows and
// cache index entries stay self-describing.
func ApplyTopology(cfg *core.SystemConfig, s string) error {
	spec, err := ParseTopology(s)
	if err != nil {
		return err
	}
	cfg.Topology = spec
	cfg.Name = fmt.Sprintf("%s[topology=%s]", cfg.Name, spec.Canonical())
	return nil
}

// Scale maps a CLI scale name to its RunScale.
func Scale(name string) (core.RunScale, error) {
	switch strings.ToLower(name) {
	case "test":
		return core.TestScale(), nil
	case "bench":
		return core.BenchScale(), nil
	case "paper":
		return core.PaperScale(), nil
	case "quick":
		return core.QuickScale(), nil
	default:
		return core.RunScale{}, fmt.Errorf("unknown scale %q (quick|test|bench|paper)", name)
	}
}

// Params lists the swept parameters Apply understands.
func Params() []string {
	return []string{"robsize", "cores", "parityrate", "faultrate", "reads"}
}

// Apply mutates cfg and scale for one grid point: param names a swept
// axis, value its position. The applied value is also folded into
// cfg.Name ("RL[robsize=64]") so rows and cache index entries stay
// self-describing.
func Apply(cfg *core.SystemConfig, scale *core.RunScale, param, value string) error {
	switch strings.ToLower(param) {
	case "robsize":
		n, err := strconv.Atoi(value)
		if err != nil {
			return fmt.Errorf("grid: robsize %q: %w", value, err)
		}
		cfg.ROBSize = n
	case "cores":
		n, err := strconv.Atoi(value)
		if err != nil {
			return fmt.Errorf("grid: cores %q: %w", value, err)
		}
		cfg.NCores = n
	case "parityrate":
		p, err := strconv.ParseFloat(value, 64)
		if err != nil {
			return fmt.Errorf("grid: parityrate %q: %w", value, err)
		}
		cfg.CritParityErrorRate = p
	case "faultrate":
		p, err := strconv.ParseFloat(value, 64)
		if err != nil {
			return fmt.Errorf("grid: faultrate %q: %w", value, err)
		}
		// A uniform transient-bit rate on both DIMM classes: the
		// headline fault-sensitivity axis.
		cfg.Faults.Crit.TransientBit = p
		cfg.Faults.Line.TransientBit = p
	case "reads":
		n, err := strconv.ParseUint(value, 10, 64)
		if err != nil {
			return fmt.Errorf("grid: reads %q: %w", value, err)
		}
		scale.MeasureReads = n
		scale.WarmupReads = n / 10
	default:
		return fmt.Errorf("grid: unknown parameter %q (one of %s)",
			param, strings.Join(Params(), "|"))
	}
	cfg.Name = fmt.Sprintf("%s[%s=%s]", cfg.Name, strings.ToLower(param), value)
	return nil
}
