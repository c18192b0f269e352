package core

import (
	"testing"

	"hetsim/internal/sim"
)

// BenchmarkHierarchyReadPath measures the full read path of one LLC
// miss through the split (RL) backend: MSHR allocation, two DRAM
// requests, critical-word and line delivery, waiter wakeup, and LLC
// install. Steady state must not allocate — this is where ~90 allocs
// per read used to live.
func BenchmarkHierarchyReadPath(b *testing.B) {
	cfg := RL(1)
	cfg.Prefetch = false
	eng := &sim.Engine{}
	mem := buildBackend(eng, cfg)
	h := newHierarchy(eng, cfg, mem, false)
	wake := func() {}
	miss := func(addr uint64) {
		if h.Access(0, addr, false, wake) == 0 {
			return // L1 hit: address recently filled
		}
		eng.RunUntil(eng.Now() + 3000)
	}
	// Prime caches, pools, and the event heap. Strided addresses force
	// LLC misses without exhausting structures.
	addr := uint64(0)
	next := func() uint64 { addr += 64 * 1024; return addr }
	for i := 0; i < 256; i++ {
		miss(next())
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		miss(next())
	}
}

// TestReadPathSteadyStateAllocs pins the full read path's steady-state
// allocation behaviour — for the RL split and the DRAM-cache
// organization whose install-on-miss writes must come from the pool.
// The only tolerated allocations are the ones the model's bookkeeping
// owns (map-of-line growth in the reuse census and placement tables);
// the event kernel itself must contribute zero.
func TestReadPathSteadyStateAllocs(t *testing.T) {
	for _, tc := range []struct {
		name string
		cfg  SystemConfig
	}{
		{"rl-topology", RL(1)},
		{"dram-cache", DRAMCached(1)},
	} {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			cfg := tc.cfg
			cfg.Prefetch = false
			eng := &sim.Engine{}
			mem := buildBackend(eng, cfg)
			h := newHierarchy(eng, cfg, mem, false)
			addr := uint64(0)
			miss := func() {
				addr += 64 * 1024
				h.Access(0, addr, false, func() {})
				eng.RunUntil(eng.Now() + 3000)
			}
			for i := 0; i < 512; i++ {
				miss()
			}
			// The reuse-census map and LLC maps keep growing slowly with
			// fresh lines; allow ~1 object per read for them, no more. A
			// closure or request allocation regression adds 5+ per read
			// and trips this.
			if avg := testing.AllocsPerRun(200, miss); avg > 1.5 {
				t.Fatalf("read path allocates %.2f objects/read in steady state, want <= 1.5", avg)
			}
		})
	}
}
