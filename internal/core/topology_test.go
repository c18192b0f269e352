package core

import (
	"testing"

	"hetsim/internal/cache"
	"hetsim/internal/dram"
	"hetsim/internal/sim"
	"hetsim/internal/topology"
)

// hmcMix is the hmc-mix named topology applied over another preset, as
// -topology hmc-mix does: the HMC-hetero machine reached by replacing a
// preset's spec rather than by naming the preset.
func hmcMix(nCores int) SystemConfig {
	cfg := Baseline(nCores)
	cfg.Name = "HMC-mix"
	cfg.Topology = topology.CWF(dram.HMCFast, Channels, dram.HMCLP, Channels, topology.BusDefault, false)
	return cfg
}

// TestTopologyScenariosRun smoke-runs the DRAM-cache tiering and the
// §10 HMC mix end to end.
func TestTopologyScenariosRun(t *testing.T) {
	for _, tc := range []struct {
		cfg   SystemConfig
		bench string
	}{
		{DRAMCached(2), "mcf"},
		{hmcMix(2), "libquantum"},
	} {
		t.Run(tc.cfg.Name, func(t *testing.T) {
			sys, err := NewSystem(tc.cfg, mustSpec(t, tc.bench))
			if err != nil {
				t.Fatal(err)
			}
			res := sys.Run(RunScale{WarmupReads: 150, MeasureReads: 600,
				MaxCycles: 20_000_000, EpochInterval: 20_000})
			if res.DemandReads < 600 {
				t.Errorf("run truncated: %d demand reads", res.DemandReads)
			}
			if res.Epochs == nil || res.Epochs.NumRows() == 0 {
				t.Error("no telemetry epochs recorded")
			}
			if res.DRAMEnergyMJ <= 0 {
				t.Errorf("no DRAM energy accounted: %v", res.DRAMEnergyMJ)
			}
		})
	}
}

// newTestDRAMCache builds a small cache-tier/far-tier backend for
// driving directly: one RLDRAM3 cache channel holding 1 MB of lines
// over four LPDDR2 far channels.
func newTestDRAMCache(eng *sim.Engine) *dramCacheBackend {
	return newDRAMCache(eng, dram.RLDRAM3Config(), 1, 1, dram.LPDDR2Config(), Channels, false)
}

// TestDRAMCacheMissInstallsThenHits exercises the core cache-tier
// mechanics: a first fill misses (far tier serves it, the line is
// installed), and a repeat fill of the same line hits the cache tier —
// faster, and served by the cache channel.
func TestDRAMCacheMissInstallsThenHits(t *testing.T) {
	eng := &sim.Engine{}
	b := newTestDRAMCache(eng)
	var critAt, lineAt sim.Cycle
	b.setSink(&testSink{
		onCritF: func(*cache.Entry) { critAt = eng.Now() },
		onLineF: func(*cache.Entry) { lineAt = eng.Now() },
	})

	if b.resident(7) {
		t.Fatal("line 7 resident before any access")
	}
	start := eng.Now()
	fill(t, b, 7)
	eng.RunUntil(1_000_000)
	missLatency := lineAt - start
	if missLatency <= 0 || critAt <= start || critAt > lineAt {
		t.Fatalf("miss delivery broken: crit %d line %d start %d", critAt, lineAt, start)
	}
	if !b.resident(7) {
		t.Fatal("line 7 not installed after miss")
	}
	if got := b.Groups()[1].Chans[int(7%uint64(Channels))].Stat.Reads; got != 1 {
		t.Fatalf("far channel reads = %d, want 1", got)
	}
	if got := b.Groups()[0].Chans[0].Stat.Writes; got != 1 {
		t.Fatalf("cache insertion writes = %d, want 1", got)
	}

	start = eng.Now()
	fill(t, b, 7)
	eng.RunUntil(2_000_000)
	hitLatency := lineAt - start
	if got := b.Groups()[0].Chans[0].Stat.Reads; got != 1 {
		t.Fatalf("cache channel reads = %d, want 1 (hit not routed to cache tier)", got)
	}
	// The whole point of the tier: a resident line comes back much
	// faster than a far-tier access.
	if hitLatency >= missLatency {
		t.Fatalf("hit latency %d not below miss latency %d", hitLatency, missLatency)
	}
}

// TestDRAMCacheConflictEvicts pins direct-mapped behavior: two lines
// mapping to the same set displace each other, and eviction is a tag
// overwrite (no extra far-tier writes under write-through).
func TestDRAMCacheConflictEvicts(t *testing.T) {
	eng := &sim.Engine{}
	b := newTestDRAMCache(eng)
	b.setSink(&testSink{})

	sets := uint64(len(b.tags))
	fill(t, b, 3)
	eng.RunUntil(1_000_000)
	if !b.resident(3) {
		t.Fatal("line 3 not installed")
	}
	// The conflicting line: same set, different tag.
	fill(t, b, 3+sets)
	eng.RunUntil(2_000_000)
	if !b.resident(3 + sets) {
		t.Fatal("conflicting line not installed")
	}
	if b.resident(3) {
		t.Fatal("evicted line still reported resident")
	}
	var farWrites uint64
	for _, ch := range b.Groups()[1].Chans {
		farWrites += ch.Stat.Writes
	}
	if farWrites != 0 {
		t.Fatalf("eviction generated %d far-tier writes under write-through", farWrites)
	}
}

// TestDRAMCacheWritebackWritesThrough pins the write policy: the far
// tier always takes a writeback, and a resident copy is updated in
// place rather than invalidated.
func TestDRAMCacheWritebackWritesThrough(t *testing.T) {
	eng := &sim.Engine{}
	b := newTestDRAMCache(eng)
	b.setSink(&testSink{})

	fill(t, b, 9)
	eng.RunUntil(1_000_000)
	if !b.resident(9) {
		t.Fatal("line 9 not installed")
	}
	cacheWrites := b.Groups()[0].Chans[0].Stat.Writes
	if !b.IssueWriteback(9) {
		t.Fatal("writeback of resident line rejected")
	}
	eng.RunUntil(2_000_000)
	farCh, _ := b.far(9)
	if got := b.Groups()[1].Chans[farCh].Stat.Writes; got != 1 {
		t.Fatalf("far-tier writes = %d, want 1", got)
	}
	if got := b.Groups()[0].Chans[0].Stat.Writes; got != cacheWrites+1 {
		t.Fatalf("cache-tier writes = %d, want %d (resident copy not updated)", got, cacheWrites+1)
	}
	if !b.resident(9) {
		t.Fatal("writeback invalidated the resident copy")
	}

	// A non-resident line's writeback touches only the far tier.
	if !b.IssueWriteback(9 + uint64(len(b.tags))) {
		t.Fatal("writeback of non-resident line rejected")
	}
	eng.RunUntil(3_000_000)
	if got := b.Groups()[0].Chans[0].Stat.Writes; got != cacheWrites+1 {
		t.Fatalf("non-resident writeback touched the cache tier (%d writes)", got)
	}
}
