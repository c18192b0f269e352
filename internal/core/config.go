// Package core implements the paper's contribution: the heterogeneous
// critical-word-first (CWF) main memory architecture of §4, wired to the
// cache hierarchy and cores of §5. It builds
//
//   - the all-DDR3 baseline (four 72-bit channels, Figure 5a),
//   - homogeneous all-LPDDR2 / all-RLDRAM3 systems (Figures 1 and 9),
//   - the split CWF systems RD, RL and DL (§6.1): four line channels
//     plus one aggregated critical-word channel — four x9 RLDRAM3 ranks
//     behind a single double-pumped address/command bus (§4.2.4),
//   - the placement policies: static word-0, adaptive (§4.2.5), oracle
//     and random (§6.1.1), and
//   - the §7.1 page-placement comparison system.
//
// Every organization is a topology.Spec; the named configs below are
// presets that differ only in the spec they set.
package core

import (
	"fmt"

	"hetsim/internal/cpu"
	"hetsim/internal/dram"
	"hetsim/internal/faults"
	"hetsim/internal/sim"
	"hetsim/internal/topology"
	"hetsim/internal/trace"
)

// Placement selects which word of each line lives on the critical
// (low-latency) channel.
type Placement int

// Placement policies.
const (
	// PlaceStatic always stores word 0 on the critical channel
	// (§4.2.2: word 0 is critical for 67% of fetches suite-wide).
	PlaceStatic Placement = iota
	// PlaceAdaptive lets every line designate its last observed
	// critical word, re-organized on dirty write-back (§4.2.5).
	PlaceAdaptive
	// PlaceOracle always serves the requested word from the critical
	// channel (the RL-OR upper bound of Figure 9).
	PlaceOracle
	// PlaceRandom places a random (hash-fixed) word per line — the
	// §6.1.1 control showing intelligent mapping matters.
	PlaceRandom
)

// String names the policy.
func (p Placement) String() string {
	switch p {
	case PlaceStatic:
		return "static"
	case PlaceAdaptive:
		return "adaptive"
	case PlaceOracle:
		return "oracle"
	case PlaceRandom:
		return "random"
	default:
		return "unknown"
	}
}

// SystemConfig describes one complete simulated machine.
type SystemConfig struct {
	Name   string
	NCores int

	// Topology is the memory organization (see internal/topology): the
	// device family, channel count and role of every channel group,
	// including the §4.2.4 ablations (a private crit command bus, one
	// wide crit rank) and the §7.1 hot-tier page placement.
	Topology topology.Spec

	Placement Placement

	// Prefetch enables the stride prefetcher (§6.1.1 ablation).
	Prefetch bool

	// DeepSleepLP selects the §7.2 Malladi-style LPDRAM: no ODT/DLL
	// power and self-refresh-class deep sleep.
	DeepSleepLP bool

	// HotPages is the offline page profile of a hot-tier topology
	// (§7.1): its pages live on the hot tier, every other page on the
	// far tier.
	HotPages map[uint64]bool

	// CritParityErrorRate injects per-byte parity failures on critical
	// word deliveries (§4.2.3): on a failure the consumer waits for
	// the full line + SECDED instead of the early word.
	CritParityErrorRate float64

	// Faults configures the deterministic fault-injection layer
	// (internal/faults): transient/stuck bit and chip-kill rates per
	// DIMM class plus a scripted event schedule. The zero value injects
	// nothing and costs nothing.
	Faults faults.Config

	// TrackPerLine enables the Figure 3 per-line critical word census.
	TrackPerLine bool

	// TraceFn, when set, receives one record per completed line fill
	// (see internal/trace). Not part of a configuration's identity.
	TraceFn func(trace.Record)

	// Cancel, when set, is polled on the drive loop's stop grid (every
	// 64 simulated cycles): returning true ends the current drive at
	// the next grid point, truncating the run. The sweep layers thread
	// per-cell deadlines and context cancellation through it, and
	// RunWith reports a run it cut short as ErrCanceled.
	// Like TraceFn, an execution-control hook — not part of a
	// configuration's identity (a run that completes was never
	// affected by it).
	Cancel func() bool

	// LineMapping overrides the line channels' address interleaving
	// (§5: the paper picks the open-row mapping because it gives the
	// best-performing baseline among common schemes; this knob lets the
	// comparison be reproduced).
	LineMapping Mapping

	// ROBSize overrides the per-core reorder buffer depth (0 = the
	// Table 1 default of 64). Sensitivity axis for the CWF benefit.
	ROBSize int

	// FCFS replaces FR-FCFS with strict oldest-first scheduling on
	// every controller (§5 scheduling-policy ablation).
	FCFS bool

	// ClosePageLines runs the DDR3/LPDDR2 line channels close-page
	// instead of the paper's open-page default (§2 policy comparison).
	ClosePageLines bool

	Seed uint64
}

// ConfigKey is a comparable identity for a SystemConfig, fit for use
// as a memoization map key: two configs with equal keys produce
// identical simulation results. Every SystemConfig field that affects
// behaviour appears here — the memory organization is its canonical
// topology string, HotPages is reduced to an order-independent digest
// plus cardinality, and TraceFn is excluded
// (its doc comment already declares it not part of a configuration's
// identity). A reflection test (TestConfigKeyCoversSystemConfig) fails
// the build's test run if a field is added to SystemConfig without a
// deliberate decision about its place in the key, so new knobs can
// never silently alias distinct configurations.
type ConfigKey struct {
	Name   string
	NCores int
	// Topology is Topology.Canonical(): the organization in its
	// normalized text form.
	Topology    string
	Placement   Placement
	Prefetch    bool
	DeepSleepLP bool
	// PagePlacement reports a hot-tier topology. Topology implies it;
	// it stays so the keys of every other organization, and the durable
	// store entries they address, are unchanged.
	PagePlacement       bool
	HotPagesLen         int
	HotPagesDigest      uint64
	CritParityErrorRate float64
	Faults              faults.Key
	TrackPerLine        bool
	LineMapping         Mapping
	ROBSize             int
	FCFS                bool
	ClosePageLines      bool
	Seed                uint64
}

// Key derives the comparable identity of the configuration.
func (c SystemConfig) Key() ConfigKey {
	return ConfigKey{
		Name:                c.Name,
		NCores:              c.NCores,
		Topology:            c.Topology.Canonical(),
		Placement:           c.Placement,
		Prefetch:            c.Prefetch,
		DeepSleepLP:         c.DeepSleepLP,
		PagePlacement:       c.Topology.Shape() == topology.ShapePage,
		HotPagesLen:         len(c.HotPages),
		HotPagesDigest:      hotPagesDigest(c.HotPages),
		CritParityErrorRate: c.CritParityErrorRate,
		Faults:              c.Faults.Key(),
		TrackPerLine:        c.TrackPerLine,
		LineMapping:         c.LineMapping,
		ROBSize:             c.ROBSize,
		FCFS:                c.FCFS,
		ClosePageLines:      c.ClosePageLines,
		Seed:                c.Seed,
	}
}

// hotPagesDigest folds the hot-page set into an order-independent
// 64-bit digest: each member page is mixed through splitmix64 and the
// results XOR-combined, so map iteration order cannot influence the
// digest. Pages mapped to false are skipped — they are not in the set.
func hotPagesDigest(hot map[uint64]bool) uint64 {
	var d uint64
	for page, in := range hot {
		if !in {
			continue
		}
		d ^= splitmix64(page)
	}
	return d
}

// splitmix64 is the finalizer of the SplitMix64 generator — a cheap,
// well-distributed 64-bit mixing function.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// Mapping selects the line channels' address interleaving scheme.
type Mapping int

// Address interleaving schemes (§5 mapping comparison).
const (
	// MapDefault is the open-row mapping of Jacob et al. for open-page
	// devices (columns lowest) and bank-interleaved for close-page.
	MapDefault Mapping = iota
	// MapXOR permutes bank bits with low row bits (Zhang et al.).
	MapXOR
	// MapBankFirst round-robins consecutive lines across banks.
	MapBankFirst
)

// String names the mapping.
func (m Mapping) String() string {
	switch m {
	case MapDefault:
		return "open-row"
	case MapXOR:
		return "xor-permuted"
	case MapBankFirst:
		return "bank-first"
	default:
		return "unknown"
	}
}

// Channels is the number of full-line channels (Table 1).
const Channels = 4

// MSHRCapacity is the LLC miss-status register file size.
const MSHRCapacity = 128

// Validate checks the configuration. It front-loads every constraint
// that would otherwise surface as a panic deep inside construction or
// the first simulated cycles (channel geometry, core sizing, fault
// schedules), so a bad config is a clean error at NewSystem time.
func (c SystemConfig) Validate() error {
	if c.NCores <= 0 || c.NCores > 64 {
		return fmt.Errorf("core: bad core count %d", c.NCores)
	}
	if err := c.Topology.Validate(); err != nil {
		return err
	}
	for _, g := range c.Topology.Groups {
		cfg, err := deviceConfigFor(g)
		if err != nil {
			return err
		}
		if err := cfg.Validate(); err != nil {
			return err
		}
	}
	switch c.Placement {
	case PlaceStatic, PlaceAdaptive, PlaceOracle, PlaceRandom:
	default:
		return fmt.Errorf("core: unknown placement policy %d", c.Placement)
	}
	switch c.LineMapping {
	case MapDefault, MapXOR, MapBankFirst:
	default:
		return fmt.Errorf("core: unknown line mapping %d", c.LineMapping)
	}
	if c.ROBSize < 0 {
		return fmt.Errorf("core: negative ROB size %d", c.ROBSize)
	}
	if p := c.CritParityErrorRate; p < 0 || p > 1 || p != p {
		return fmt.Errorf("core: crit parity error rate %v outside [0,1]", p)
	}
	// The core config the system will build must itself be valid; check
	// it here instead of letting cpu.New panic mid-construction.
	coreCfg := cpu.DefaultConfig()
	if c.ROBSize > 0 {
		coreCfg.ROBSize = c.ROBSize
	}
	if err := coreCfg.Validate(); err != nil {
		return err
	}
	if err := c.Faults.Validate(lineChannels(c.Topology)); err != nil {
		return err
	}
	return nil
}

// Named baseline configurations of the paper's evaluation.

// preset is a named organization with the stride prefetcher on.
func preset(name string, nCores int, spec topology.Spec) SystemConfig {
	return SystemConfig{Name: name, NCores: nCores, Topology: spec, Prefetch: true}
}

// Baseline is the 8GB all-DDR3 system of Figure 5a.
func Baseline(nCores int) SystemConfig {
	return preset("DDR3-baseline", nCores, topology.Unified(dram.DDR3, Channels))
}

// HomogeneousLPDDR2 replaces every channel with LPDDR2 (Figure 1).
func HomogeneousLPDDR2(nCores int) SystemConfig {
	return preset("LPDDR2-homog", nCores, topology.Unified(dram.LPDDR2, Channels))
}

// HomogeneousRLDRAM3 replaces every channel with RLDRAM3 (Figures 1, 9),
// ignoring its capacity shortfall as the paper does for this bound.
func HomogeneousRLDRAM3(nCores int) SystemConfig {
	return preset("RLDRAM3-homog", nCores, topology.Unified(dram.RLDRAM3, Channels))
}

// cwf is the paper's split: one critical sub-channel per line channel,
// all behind the shared command bus (§4.2.4).
func cwf(crit, line dram.Kind) topology.Spec {
	return topology.CWF(crit, Channels, line, Channels, topology.BusDefault, false)
}

// RL is the flagship configuration: RLDRAM3 critical words over LPDDR2
// lines (§6.1).
func RL(nCores int) SystemConfig {
	return preset("RL", nCores, cwf(dram.RLDRAM3, dram.LPDDR2))
}

// RD is RLDRAM3 critical words over DDR3 lines.
func RD(nCores int) SystemConfig {
	return preset("RD", nCores, cwf(dram.RLDRAM3, dram.DDR3))
}

// DL is DDR3 critical words over LPDDR2 lines (the power-lean point).
func DL(nCores int) SystemConfig {
	return preset("DL", nCores, cwf(dram.DDR3, dram.LPDDR2))
}

// HMCHetero is the §10 future-work sketch implemented: critical words
// from a high-frequency HMC cube, lines from low-power low-frequency
// cubes — the "critical-data-first architecture with HMCs" variant.
func HMCHetero(nCores int) SystemConfig {
	return preset("HMC-hetero", nCores, cwf(dram.HMCFast, dram.HMCLP))
}

// PagePlaced is the §7.1 comparison: profiled hot pages on a half-size
// full-line RLDRAM3 channel, the rest on three LPDDR2 channels.
func PagePlaced(nCores int, hot map[uint64]bool) SystemConfig {
	cfg := preset("page-placement", nCores, topology.PagePlaced(dram.RLDRAM3, 1, dram.LPDDR2, Channels-1))
	cfg.HotPages = hot
	return cfg
}

// DRAMCached is the 3-tier organization: one RLDRAM3 channel holding a
// 64MB direct-mapped line cache (tags-with-data, per the Alloy-cache
// controller model) fronting four slow LPDDR2 far channels.
func DRAMCached(nCores int) SystemConfig {
	return preset("DRAM-cache", nCores, topology.DRAMCache(dram.RLDRAM3, 1, 64, dram.LPDDR2, Channels))
}

// RunScale sizes a run.
type RunScale struct {
	// PrewarmOps functionally replays this many memory operations per
	// core into the caches before timing starts (no cycles elapse):
	// the checkpoint-restore step that puts the LLC into eviction
	// steady state, so write-back-driven behaviour (adaptive
	// placement, §4.2.5) is visible in short runs.
	PrewarmOps   uint64
	WarmupReads  uint64
	MeasureReads uint64
	MaxCycles    sim.Cycle

	// EpochInterval enables the telemetry epoch sampler for the
	// measured window: every EpochInterval cycles one row of per-epoch
	// metrics is recorded into Results.Epochs. 0 disables sampling;
	// summary Results are identical either way.
	EpochInterval sim.Cycle
}

// TestScale is the fast scale used by unit tests.
func TestScale() RunScale {
	return RunScale{PrewarmOps: 20_000, WarmupReads: 500, MeasureReads: 3000, MaxCycles: 30_000_000}
}

// QuickScale is the smallest end-to-end scale: a smoke run for CI
// scenario targets (`make topologies`) and -scale quick on the CLIs.
func QuickScale() RunScale {
	return RunScale{PrewarmOps: 5_000, WarmupReads: 200, MeasureReads: 1000, MaxCycles: 20_000_000}
}

// BenchScale is used by the bench harness figures.
func BenchScale() RunScale {
	return RunScale{PrewarmOps: 120_000, WarmupReads: 2000, MeasureReads: 20_000, MaxCycles: 200_000_000}
}

// PaperScale mirrors §5: 2M DRAM reads after a warm start.
func PaperScale() RunScale {
	return RunScale{PrewarmOps: 300_000, WarmupReads: 100_000, MeasureReads: 2_000_000, MaxCycles: 1 << 40}
}
