package core

import (
	"testing"

	"hetsim/internal/dram"
	"hetsim/internal/memctrl"
	"hetsim/internal/topology"
	"hetsim/internal/workload"
)

func mustSpec(t *testing.T, name string) workload.Spec {
	t.Helper()
	s, err := workload.Get(name)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func quickScale() RunScale {
	return RunScale{WarmupReads: 200, MeasureReads: 1500, MaxCycles: 20_000_000}
}

func runOne(t *testing.T, cfg SystemConfig, bench string) Results {
	t.Helper()
	sys, err := NewSystem(cfg, mustSpec(t, bench))
	if err != nil {
		t.Fatal(err)
	}
	return sys.Run(quickScale())
}

func TestBaselineRunsAndMeasures(t *testing.T) {
	r := runOne(t, Baseline(4), "libquantum")
	if r.DemandReads < 1000 {
		t.Fatalf("measured only %d demand reads", r.DemandReads)
	}
	if r.SumIPC <= 0 {
		t.Fatal("zero IPC")
	}
	if r.CritLatency <= 0 {
		t.Fatal("no critical word latency measured")
	}
	if r.QueueLat < 0 || r.CoreLat <= 0 {
		t.Fatalf("latency breakdown queue=%v core=%v", r.QueueLat, r.CoreLat)
	}
	if r.DRAMEnergyMJ <= 0 || r.DRAMPowerMW <= 0 {
		t.Fatalf("energy %v power %v", r.DRAMEnergyMJ, r.DRAMPowerMW)
	}
	if r.BusUtil <= 0 || r.BusUtil > 1 {
		t.Fatalf("bus utilization %v", r.BusUtil)
	}
}

func TestHomogeneousOrdering(t *testing.T) {
	// Figure 1: all-RLDRAM3 beats DDR3 beats LPDDR2 for memory-bound
	// workloads, driven by queue + core latency.
	base := runOne(t, Baseline(4), "mcf")
	rld := runOne(t, HomogeneousRLDRAM3(4), "mcf")
	lp := runOne(t, HomogeneousLPDDR2(4), "mcf")
	if !(rld.SumIPC > base.SumIPC) {
		t.Errorf("RLDRAM3 IPC %v not above DDR3 %v", rld.SumIPC, base.SumIPC)
	}
	if !(lp.SumIPC < base.SumIPC) {
		t.Errorf("LPDDR2 IPC %v not below DDR3 %v", lp.SumIPC, base.SumIPC)
	}
	rldLat := rld.QueueLat + rld.CoreLat
	baseLat := base.QueueLat + base.CoreLat
	if rldLat >= baseLat {
		t.Errorf("RLDRAM3 memory latency %v not below DDR3 %v", rldLat, baseLat)
	}
}

func TestRLBeatsBaselineOnWord0Benchmark(t *testing.T) {
	// libquantum: 95% word-0 critical — the RL system must cut the
	// requested-critical-word latency well below baseline.
	base := runOne(t, Baseline(4), "libquantum")
	rl := runOne(t, RL(4), "libquantum")
	if !(rl.CritLatency < base.CritLatency) {
		t.Errorf("RL crit latency %v not below baseline %v", rl.CritLatency, base.CritLatency)
	}
	if rl.CritFromFastFrac < 0.7 {
		t.Errorf("RL served-by-RLDRAM frac = %v, want high for libquantum", rl.CritFromFastFrac)
	}
	if !(rl.SumIPC > base.SumIPC*0.98) {
		t.Errorf("RL IPC %v well below baseline %v", rl.SumIPC, base.SumIPC)
	}
}

func TestPointerChaseGainsLessFromStatic(t *testing.T) {
	rlStream := runOne(t, RL(4), "libquantum")
	rlMcf := runOne(t, RL(4), "mcf")
	if !(rlMcf.CritFromFastFrac < rlStream.CritFromFastFrac) {
		t.Errorf("mcf fast frac %v not below libquantum %v",
			rlMcf.CritFromFastFrac, rlStream.CritFromFastFrac)
	}
}

func TestOracleServesEverything(t *testing.T) {
	cfg := RL(4)
	cfg.Placement = PlaceOracle
	cfg.Name = "RL-OR"
	r := runOne(t, cfg, "mcf")
	// Promoted prefetch fills chose their placed word before the demand
	// word was known, so a few misses escape the fast path.
	if r.CritFromFastFrac < 0.9 {
		t.Errorf("oracle fast frac = %v, want ~1.0", r.CritFromFastFrac)
	}
}

// churnSpec cyclically scans a working set just larger than the LLC so
// every line is repeatedly filled, dirtied, written back and re-filled
// — the exact loop adaptive placement (§4.2.5) learns from. Word 3 is
// the dominant critical word, so static word-0 placement misses it.
func churnSpec() workload.Spec {
	var crit [8]float64
	crit[3] = 0.9
	crit[0] = 0.1
	return workload.Spec{
		Name: "churn", Suite: "TEST", Class: workload.Strided,
		GapMean: 50, StoreFrac: 0.7, FootprintMB: 2, SeqRun: 1e6,
		CritDist: crit,
	}
}

func TestAdaptiveBeatsStaticOnChurn(t *testing.T) {
	// Two full passes over the working set so write-backs happen before
	// the re-fills that profit from them.
	scale := RunScale{WarmupReads: 40_000, MeasureReads: 40_000, MaxCycles: 400_000_000}
	run := func(cfg SystemConfig) Results {
		sys, err := NewSystem(cfg, churnSpec())
		if err != nil {
			t.Fatal(err)
		}
		return sys.Run(scale)
	}
	static := run(RL(4))
	ad := RL(4)
	ad.Placement = PlaceAdaptive
	ad.Name = "RL-AD"
	adaptive := run(ad)
	if !(adaptive.CritFromFastFrac > static.CritFromFastFrac+0.2) {
		t.Errorf("adaptive fast frac %v not well above static %v",
			adaptive.CritFromFastFrac, static.CritFromFastFrac)
	}
	if !(adaptive.CritLatency < static.CritLatency) {
		t.Errorf("adaptive crit latency %v not below static %v",
			adaptive.CritLatency, static.CritLatency)
	}
}

func TestRandomPlacementServesEighth(t *testing.T) {
	cfg := RL(4)
	cfg.Placement = PlaceRandom
	cfg.Name = "RL-RAND"
	r := runOne(t, cfg, "libquantum")
	if r.CritFromFastFrac > 0.35 {
		t.Errorf("random placement fast frac = %v, want ~1/8", r.CritFromFastFrac)
	}
}

func TestCritWordHistogramMatchesWorkload(t *testing.T) {
	r := runOne(t, Baseline(4), "libquantum")
	if r.CritWordFrac[0] < 0.7 {
		t.Errorf("libquantum word-0 frac = %v, want high", r.CritWordFrac[0])
	}
	var sum float64
	for _, f := range r.CritWordFrac {
		sum += f
	}
	if sum < 0.99 || sum > 1.01 {
		t.Errorf("word fractions sum to %v", sum)
	}
}

func TestParityErrorInjection(t *testing.T) {
	cfg := RL(4)
	cfg.CritParityErrorRate = 0.5
	clean := runOne(t, RL(4), "libquantum")
	dirty := runOne(t, cfg, "libquantum")
	if dirty.ParityErrors == 0 {
		t.Fatal("no parity errors injected")
	}
	if !(dirty.CritLatency > clean.CritLatency) {
		t.Errorf("parity-held latency %v not above clean %v", dirty.CritLatency, clean.CritLatency)
	}
}

func TestMultithreadedWorkloadRuns(t *testing.T) {
	r := runOne(t, RL(4), "mg")
	if r.DemandReads < 1000 || r.SumIPC <= 0 {
		t.Fatalf("mg run: reads=%d ipc=%v", r.DemandReads, r.SumIPC)
	}
}

func TestPagePlacementSystem(t *testing.T) {
	hot := map[uint64]bool{}
	spec := mustSpec(t, "leslie3d")
	// Mark the first pages of each core region hot.
	for c := uint64(0); c < 4; c++ {
		basePage := c * coreRegionBytes / 4096
		for p := uint64(0); p < 64; p++ {
			hot[basePage+p] = true
		}
	}
	cfg := PagePlaced(4, hot)
	sys, err := NewSystem(cfg, spec)
	if err != nil {
		t.Fatal(err)
	}
	r := sys.Run(quickScale())
	if r.DemandReads < 500 {
		t.Fatalf("page placement run measured %d reads", r.DemandReads)
	}
	groups := sys.mem.Groups()
	if groups[0].Cfg.Kind != dram.RLDRAM3 || groups[1].Cfg.Kind != dram.LPDDR2 {
		t.Fatal("page placement groups wrong")
	}
}

func TestConfigValidation(t *testing.T) {
	if err := (SystemConfig{NCores: 0}).Validate(); err == nil {
		t.Error("zero cores accepted")
	}
	if err := (SystemConfig{NCores: 2}).Validate(); err == nil {
		t.Error("empty topology accepted")
	}
	lpCrit := RD(2)
	lpCrit.Topology = topology.CWF(dram.LPDDR2, Channels, dram.DDR3, Channels, topology.BusDefault, false)
	if _, err := NewSystem(lpCrit, mustSpec(t, "mcf")); err == nil {
		t.Error("LPDDR2 critical channel accepted")
	}
}

func TestPlacementString(t *testing.T) {
	for p := PlaceStatic; p <= PlaceRandom; p++ {
		if p.String() == "unknown" {
			t.Errorf("placement %d unnamed", p)
		}
	}
}

func TestDeterministicRuns(t *testing.T) {
	a := runOne(t, RL(2), "soplex")
	b := runOne(t, RL(2), "soplex")
	if a.Cycles != b.Cycles || a.SumIPC != b.SumIPC || a.DemandReads != b.DemandReads {
		t.Fatalf("non-deterministic: %+v vs %+v", a.Cycles, b.Cycles)
	}
}

func TestRunPairThroughput(t *testing.T) {
	r, err := RunPair(Baseline(2), mustSpec(t, "libquantum"), quickScale(), nil)
	if err != nil {
		t.Fatal(err)
	}
	// Weighted speedup of 2 cores sharing memory: between 0.5 and 2.
	if r.Throughput <= 0.4 || r.Throughput > 2.2 {
		t.Fatalf("throughput = %v", r.Throughput)
	}
}

func TestHMCHeteroSystem(t *testing.T) {
	// §10 future work: the HMC-hetero system must beat the RL DIMM
	// system on critical word latency (stacked links, faster arrays).
	rl := runOne(t, RL(4), "libquantum")
	hmc := runOne(t, HMCHetero(4), "libquantum")
	if hmc.DemandReads < 1000 {
		t.Fatalf("HMC run reads = %d", hmc.DemandReads)
	}
	if !(hmc.CritLatency < rl.CritLatency) {
		t.Errorf("HMC crit latency %v not below RL %v", hmc.CritLatency, rl.CritLatency)
	}
	if hmc.DRAMEnergyMJ <= 0 {
		t.Fatal("no HMC energy accounted")
	}
}

func TestWideRankSystemRuns(t *testing.T) {
	cfg := RL(4)
	cfg.Topology = topology.CWF(dram.RLDRAM3, 1, dram.LPDDR2, Channels, topology.BusDefault, true)
	cfg.Name = "RL-wide"
	r := runOne(t, cfg, "libquantum")
	if r.DemandReads < 1000 || r.CritFromFastFrac < 0.5 {
		t.Fatalf("wide-rank run: reads=%d fast=%v", r.DemandReads, r.CritFromFastFrac)
	}
}

func TestPrivateCmdBusSystemRuns(t *testing.T) {
	cfg := RL(4)
	cfg.Topology = topology.CWF(dram.RLDRAM3, Channels, dram.LPDDR2, Channels, topology.BusPrivate, false)
	cfg.Name = "RL-privbus"
	r := runOne(t, cfg, "milc")
	if r.DemandReads < 1000 {
		t.Fatalf("private-bus run reads = %d", r.DemandReads)
	}
}

// TestLineMappingRemapsLineGroup pins that LineMapping reaches the
// line-bearing group of every shape: on the DRAM cache that is the far
// tier, not the close-page cache tier listed first.
func TestLineMappingRemapsLineGroup(t *testing.T) {
	cfg := DRAMCached(2)
	cfg.LineMapping = MapXOR
	sys, err := NewSystem(cfg, mustSpec(t, "mcf"))
	if err != nil {
		t.Fatal(err)
	}
	groups := sys.mem.Groups()
	for i, ctrl := range groups[1].Ctrls {
		if _, ok := ctrl.Map.(memctrl.XORMapper); !ok {
			t.Errorf("far-tier controller %d maps with %T, want XORMapper", i, ctrl.Map)
		}
	}
	for i, ctrl := range groups[0].Ctrls {
		if _, ok := ctrl.Map.(memctrl.XORMapper); ok {
			t.Errorf("cache-tier controller %d remapped", i)
		}
	}
}
