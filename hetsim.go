// Package hetsim is a cycle-level simulator of heterogeneous DRAM main
// memories that accelerate critical word access, reproducing Chatterjee
// et al., "Leveraging Heterogeneity in DRAM Main Memories to Accelerate
// Critical Word Access" (MICRO 2012).
//
// The simulator models out-of-order cores (64-entry ROB, 4-wide), a
// two-level cache hierarchy with MSHRs and stride prefetching, and
// cycle-accurate DDR3-1600, LPDDR2-800 and RLDRAM3 channels behind
// FR-FCFS memory controllers. Its centerpiece is the paper's split
// critical-word-first (CWF) organization: word 0 (or an adaptively
// chosen word) of every cache line lives on a low-latency RLDRAM3
// sub-channel with its own controller, while the remaining words and
// ECC live on a low-power LPDDR2 (or DDR3) line channel.
//
// Quickstart (Example_quickstart runs it against the DDR3 baseline):
//
//	cfg := hetsim.RL(8)                      // RLDRAM3 + LPDDR2 CWF system
//	sys, err := hetsim.NewSystem(cfg, "mcf") // 8 copies of an mcf-like trace
//	if err != nil { ... }
//	res := sys.Run(hetsim.BenchScale())
//	fmt.Println(res.SumIPC, res.CritLatency)
//
// The Experiments type regenerates every table and figure of the
// paper's evaluation; see EXPERIMENTS.md for the recorded shapes.
package hetsim

import (
	"fmt"

	"hetsim/internal/core"
	"hetsim/internal/exp"
	"hetsim/internal/faults"
	"hetsim/internal/grid"
	"hetsim/internal/telemetry"
	"hetsim/internal/topology"
	"hetsim/internal/workload"
)

// Config describes a complete simulated machine (cores, cache
// hierarchy, and main memory organization).
type Config = core.SystemConfig

// Results are the measured outputs of one run: IPC, weighted-speedup
// throughput, critical-word latency, latency breakdown, DRAM energy,
// bus utilization and the critical-word census.
type Results = core.Results

// Scale sizes a run (warmup reads, measured reads, cycle cap).
type Scale = core.RunScale

// Placement selects the critical-word placement policy for split
// (CWF) systems.
type Placement = core.Placement

// Placement policies (§4.2.2, §4.2.5, §6.1.1).
const (
	PlaceStatic   = core.PlaceStatic
	PlaceAdaptive = core.PlaceAdaptive
	PlaceOracle   = core.PlaceOracle
	PlaceRandom   = core.PlaceRandom
)

// FaultConfig describes a fault-injection environment for a run (set it
// on Config.Faults). The zero value injects nothing and costs nothing.
type FaultConfig = faults.Config

// FaultRates are the stochastic fault rates of one DIMM class.
type FaultRates = faults.Rates

// FaultEvent is one scripted fault, applied at a simulated cycle.
type FaultEvent = faults.Event

// ParseFaults parses the -faults flag grammar into a FaultConfig, e.g.
// "crit.bit=1e-4; line.bit=1e-4; seed=7; @1000 chipkill line 0 3".
func ParseFaults(s string) (FaultConfig, error) { return faults.Parse(s) }

// Baseline returns the 8GB all-DDR3 system of Figure 5a.
func Baseline(nCores int) Config { return core.Baseline(nCores) }

// HomogeneousLPDDR2 returns the all-LPDDR2 system of Figure 1.
func HomogeneousLPDDR2(nCores int) Config { return core.HomogeneousLPDDR2(nCores) }

// HomogeneousRLDRAM3 returns the all-RLDRAM3 bound of Figures 1 and 9.
func HomogeneousRLDRAM3(nCores int) Config { return core.HomogeneousRLDRAM3(nCores) }

// RL returns the flagship configuration: RLDRAM3 critical words over
// LPDDR2 line channels (§6.1).
func RL(nCores int) Config { return core.RL(nCores) }

// RD returns RLDRAM3 critical words over DDR3 line channels.
func RD(nCores int) Config { return core.RD(nCores) }

// DL returns DDR3 critical words over LPDDR2 line channels.
func DL(nCores int) Config { return core.DL(nCores) }

// HMCHetero returns the §10 future-work system: critical words from a
// high-frequency HMC cube over low-power low-frequency cubes.
func HMCHetero(nCores int) Config { return core.HMCHetero(nCores) }

// PagePlaced returns the §7.1 comparison system: profiled hot pages on
// a half-size full-line RLDRAM3 channel, everything else on LPDDR2.
func PagePlaced(nCores int, hotPages map[uint64]bool) Config {
	return core.PagePlaced(nCores, hotPages)
}

// DRAMCached is the 3-tier organization: a fast direct-mapped RLDRAM3
// DRAM cache of full lines fronting slow LPDDR2 far memory.
func DRAMCached(nCores int) Config { return core.DRAMCached(nCores) }

// Topology is a declarative memory organization: a validated list of
// channel groups (device kind × count × role × bus wiring). Every
// Config carries one in Config.Topology; the named configs above are
// presets of it, and assigning another spec changes the machine built.
type Topology = topology.Spec

// ParseTopology resolves a topology string — a named organization
// (e.g. "dram-cache") or a raw spec ("crit:rldram3x4+line:lpddr2x4") —
// into a validated, normalized Topology.
func ParseTopology(s string) (Topology, error) { return grid.ParseTopology(s) }

// TopologyNames lists the named organizations ParseTopology accepts.
func TopologyNames() []string { return grid.TopologyNames() }

// QuickScale is a CI-sized run: big enough to exercise every path,
// small enough for a multi-config smoke sweep.
func QuickScale() Scale { return core.QuickScale() }

// TestScale, BenchScale and PaperScale are the standard run sizes.
func TestScale() Scale { return core.TestScale() }

// BenchScale is the default sweep size used by the bench harness.
func BenchScale() Scale { return core.BenchScale() }

// PaperScale mirrors §5 of the paper: 2M measured DRAM reads.
func PaperScale() Scale { return core.PaperScale() }

// Benchmarks lists the 26 modelled workloads (NPB, STREAM, SPEC 2006).
func Benchmarks() []string { return workload.Names() }

// MemoryIntensiveBenchmarks lists a high-pressure subset spanning the
// streaming / strided / pointer-chase pattern families.
func MemoryIntensiveBenchmarks() []string { return workload.MemoryIntensive() }

// System is one machine running one workload.
type System struct {
	inner *core.System
}

// NewSystem builds a machine running the named benchmark (one trace
// copy per core for SPEC-style workloads, one shared address space for
// NPB/STREAM).
func NewSystem(cfg Config, benchmark string) (*System, error) {
	spec, err := workload.Get(benchmark)
	if err != nil {
		return nil, fmt.Errorf("hetsim: %w", err)
	}
	sys, err := core.NewSystem(cfg, spec)
	if err != nil {
		return nil, fmt.Errorf("hetsim: %w", err)
	}
	return &System{inner: sys}, nil
}

// Run executes warmup plus a measured window and returns Results.
func (s *System) Run(scale Scale) Results { return s.inner.Run(scale) }

// EpochSeries is a per-epoch telemetry time-series (Results.Epochs):
// one row per Scale.EpochInterval cycles of the measured window, with
// columns for IPC, queue depths, MSHR occupancy, CWF early-wake gap,
// fault counters, and per-channel-group energy. Its WriteCSV and
// WriteJSONL methods write it out.
type EpochSeries = telemetry.Series

// Metrics lists the system's registered telemetry metric names in
// column order.
func (s *System) Metrics() []string { return s.inner.Reg.Names() }

// RunPair measures the paper's weighted-speedup throughput metric:
// an 8-core shared run against a single-core stand-alone reference.
func RunPair(cfg Config, benchmark string, scale Scale) (Results, error) {
	spec, err := workload.Get(benchmark)
	if err != nil {
		return Results{}, fmt.Errorf("hetsim: %w", err)
	}
	return core.RunPair(cfg, spec, scale, nil)
}

// Experiments regenerates the paper's tables and figures. Zero-value
// options select the full suite at BenchScale with 8 cores.
type Experiments = exp.Runner

// ExperimentOptions scope an experiment sweep.
type ExperimentOptions = exp.Options

// NewExperiments builds an experiment runner.
func NewExperiments(opts ExperimentOptions) *Experiments { return exp.NewRunner(opts) }
