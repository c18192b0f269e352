package core

import (
	"testing"

	"hetsim/internal/cache"
	"hetsim/internal/cpu"
	"hetsim/internal/dram"
	"hetsim/internal/sim"
)

// stubBackend gives tests full control over fill delivery timing.
type stubBackend struct {
	eng       *sim.Engine
	sink      fillSink
	fills     []stubFill
	wbs       []uint64
	acceptRd  bool
	acceptPf  bool
	acceptWr  bool
	critDelay sim.Cycle
	lineDelay sim.Cycle
}

type stubFill struct {
	lineAddr uint64
	prefetch bool
}

func newStub(eng *sim.Engine) *stubBackend {
	return &stubBackend{eng: eng, acceptRd: true, acceptPf: true, acceptWr: true,
		critDelay: 50, lineDelay: 200}
}

func (s *stubBackend) CanAcceptFill(uint64) bool     { return s.acceptRd }
func (s *stubBackend) CanAcceptPrefetch(uint64) bool { return s.acceptPf }
func (s *stubBackend) CanAcceptWriteback(uint64) bool {
	return s.acceptWr
}
func (s *stubBackend) IssueWriteback(la uint64) bool {
	if !s.acceptWr {
		return false
	}
	s.wbs = append(s.wbs, la)
	return true
}
func (s *stubBackend) DegradeCrit()              {}
func (s *stubBackend) Groups() []ChannelGroup    { return nil }
func (s *stubBackend) lineChannel(la uint64) int { return int(la % Channels) }

func (s *stubBackend) setSink(k fillSink) { s.sink = k }

func (s *stubBackend) IssueFill(e *cache.Entry) bool {
	if !s.acceptRd {
		return false
	}
	s.fills = append(s.fills, stubFill{e.LineAddr, e.Prefetch})
	s.eng.ScheduleEvent(s.critDelay, call(func() { s.sink.onCrit(e) }), nil)
	s.eng.ScheduleEvent(s.lineDelay-4, call(func() { s.sink.onReqWord(e) }), nil)
	s.eng.ScheduleEvent(s.lineDelay, call(func() { s.sink.onLine(e) }), nil)
	return true
}

// call adapts a closure to sim.EventHandler so the stub can schedule
// inline bodies.
type call func()

func (f call) OnEvent(any) { f() }

func newTestHierarchy(t *testing.T, cfg SystemConfig) (*sim.Engine, *Hierarchy, *stubBackend) {
	t.Helper()
	eng := &sim.Engine{}
	st := newStub(eng)
	h := newHierarchy(eng, cfg, st, false)
	return eng, h, st
}

func splitCfg() SystemConfig {
	cfg := RL(2)
	cfg.Prefetch = false
	return cfg
}

func TestHierarchyMissThenHit(t *testing.T) {
	eng, h, st := newTestHierarchy(t, splitCfg())
	woken := false
	status := h.Access(0, 0x1000, false, func() { woken = true })
	if status != cpu.AccessMiss {
		t.Fatalf("first access = %v, want miss", status)
	}
	if len(st.fills) != 1 {
		t.Fatalf("fills = %d", len(st.fills))
	}
	eng.RunUntil(1000)
	if !woken {
		t.Fatal("waiter never woken")
	}
	// After the fill lands the line is in L2 and L1.
	if got := h.Access(0, 0x1000, false, nil); got != cpu.AccessL1Hit {
		t.Fatalf("post-fill access = %v, want L1 hit", got)
	}
	// The other core missing the same line gets an L2 hit.
	if got := h.Access(1, 0x1000, false, nil); got != cpu.AccessL2Hit {
		t.Fatalf("other core = %v, want L2 hit", got)
	}
}

func TestHierarchyCriticalWordEarlyWake(t *testing.T) {
	eng, h, _ := newTestHierarchy(t, splitCfg())
	var wokenAt sim.Cycle = -1
	// Word 0 is the placed word under static placement.
	h.Access(0, 0x2000, false, func() { wokenAt = eng.Now() })
	eng.RunUntil(1000)
	if wokenAt != 50 {
		t.Fatalf("word-0 waiter woken at %d, want crit arrival 50", wokenAt)
	}
	// A word-3 access to a fresh line waits for the line's first beat.
	var w3At sim.Cycle = -1
	start := eng.Now()
	h.Access(0, 0x3000+3*8, false, func() { w3At = eng.Now() })
	eng.RunUntil(start + 1000)
	if w3At != start+196 {
		t.Fatalf("word-3 waiter woken at +%d, want +196 (line first beat)", w3At-start)
	}
}

func TestHierarchyMergeWakesPerWord(t *testing.T) {
	eng, h, _ := newTestHierarchy(t, splitCfg())
	var w0At, w5At sim.Cycle = -1, -1
	h.Access(0, 0x4000, false, func() { w0At = eng.Now() })
	// Secondary miss to word 5 merges and waits for the full line.
	if st := h.Access(1, 0x4000+5*8, false, func() { w5At = eng.Now() }); st != cpu.AccessMiss {
		t.Fatalf("merge status %v", st)
	}
	if h.Stat.MergedMisses != 1 {
		t.Fatal("merge not counted")
	}
	eng.RunUntil(1000)
	if w0At != 50 || w5At != 200 {
		t.Fatalf("wakes w0=%d w5=%d, want 50, 200", w0At, w5At)
	}
	// One fill, not two: the secondary miss merged.
	if h.Stat.DemandFills != 1 {
		t.Fatalf("demand fills = %d, want 1 (merge, not a new fill)", h.Stat.DemandFills)
	}
}

func TestHierarchyMergeAfterCritArrivedIsHit(t *testing.T) {
	eng, h, _ := newTestHierarchy(t, splitCfg())
	h.Access(0, 0x5000, false, func() {})
	eng.RunUntil(100) // crit (word 0) arrived; line still in flight
	if st := h.Access(1, 0x5000, false, nil); st != cpu.AccessL2Hit {
		t.Fatalf("merged word-0 after crit = %v, want L2 hit (MSHR buffer)", st)
	}
	if st := h.Access(1, 0x5000+8, false, func() {}); st != cpu.AccessMiss {
		t.Fatalf("merged word-1 after crit = %v, want miss", st)
	}
}

func TestHierarchyMSHRBackpressure(t *testing.T) {
	_, h, _ := newTestHierarchy(t, splitCfg())
	for i := 0; i < MSHRCapacity; i++ {
		st := h.Access(0, uint64(0x10000+i*64), false, func() {})
		if st != cpu.AccessMiss {
			t.Fatalf("fill %d status %v", i, st)
		}
	}
	if st := h.Access(0, 0xffff00, false, func() {}); st != cpu.AccessRetry {
		t.Fatalf("MSHR-full access = %v, want retry", st)
	}
}

func TestHierarchyBackendBackpressure(t *testing.T) {
	_, h, st := newTestHierarchy(t, splitCfg())
	st.acceptRd = false
	if got := h.Access(0, 0x6000, false, func() {}); got != cpu.AccessRetry {
		t.Fatalf("backend-full access = %v, want retry", got)
	}
}

func TestHierarchyStoreMissIsPosted(t *testing.T) {
	eng, h, st := newTestHierarchy(t, splitCfg())
	if got := h.Access(0, 0x7000, true, nil); got != cpu.AccessMiss {
		t.Fatalf("store miss = %v", got)
	}
	if h.Stat.StoreFills != 1 || h.Stat.DemandFills != 0 {
		t.Fatalf("store fills=%d demand=%d", h.Stat.StoreFills, h.Stat.DemandFills)
	}
	if len(st.fills) != 1 {
		t.Fatal("no fill issued for store miss (write-allocate)")
	}
	eng.RunUntil(1000)
	// Line must now be dirty in L2: evicting it writes back.
	if !h.l2.Contains(cache.LineAddr(0x7000)) {
		t.Fatal("store fill not installed")
	}
}

func TestHierarchyDirtyEvictionWritesBackAndReplaces(t *testing.T) {
	eng, h, st := newTestHierarchy(t, splitCfg())
	h.cfg.Placement = PlaceAdaptive

	// Fill a line with a word-3 store (prediction = word 3).
	h.Access(0, 0x8000+3*8, true, nil)
	eng.RunUntil(1000)
	la := cache.LineAddr(0x8000)
	if m, ok := h.l2.Meta(la); !ok || m != metaValid|3 {
		t.Fatalf("meta = %#x, want valid|3", m)
	}
	// Force its eviction (drop the cached copy, then report it).
	h.l2.Invalidate(la)
	h.l1s[0].Invalidate(la)
	h.handleL2Eviction(cache.Eviction{LineAddr: la, Dirty: true, Meta: metaValid | 3})
	if len(st.wbs) != 1 || st.wbs[0] != la {
		t.Fatalf("writebacks = %v", st.wbs)
	}
	if h.placed[la] != 3 {
		t.Fatalf("placed word = %d, want 3 (adaptive re-organization)", h.placed[la])
	}
	// The next fill of that line must serve word 3 from the fast path.
	var wokenAt sim.Cycle = -1
	start := eng.Now()
	h.Access(0, 0x8000+3*8, false, func() { wokenAt = eng.Now() })
	eng.RunUntil(start + 1000)
	if wokenAt != start+50 {
		t.Fatalf("word-3 after re-placement woken at +%d, want +50", wokenAt-start)
	}
}

func TestHierarchyWritebackOverflowBuffers(t *testing.T) {
	eng, h, st := newTestHierarchy(t, splitCfg())
	st.acceptWr = false
	h.queueWriteback(42)
	if len(h.wbQueue) != 1 {
		t.Fatal("writeback not buffered")
	}
	st.acceptWr = true
	eng.RunUntil(5000) // drain timer fires
	if len(h.wbQueue) != 0 || len(st.wbs) != 1 {
		t.Fatalf("drain failed: queue=%d wbs=%d", len(h.wbQueue), len(st.wbs))
	}
}

func TestHierarchyInclusionInvalidatesL1(t *testing.T) {
	eng, h, _ := newTestHierarchy(t, splitCfg())
	h.Access(0, 0x9000, false, func() {})
	eng.RunUntil(1000)
	la := cache.LineAddr(0x9000)
	if !h.l1s[0].Contains(la) {
		t.Fatal("L1 not filled")
	}
	h.handleL2Eviction(cache.Eviction{LineAddr: la, Dirty: false})
	if h.l1s[0].Contains(la) {
		t.Fatal("inclusion violated: L1 copy survived L2 eviction")
	}
}

func TestHierarchyDirtyL1FoldsIntoEvictionWriteback(t *testing.T) {
	eng, h, st := newTestHierarchy(t, splitCfg())
	// Load fill installs a clean copy in L1 and L2; the store then
	// dirties only the L1 copy (write-back L1).
	h.Access(0, 0xa000, false, func() {})
	eng.RunUntil(1000)
	if got := h.Access(0, 0xa000, true, nil); got != cpu.AccessL1Hit {
		t.Fatalf("store = %v, want L1 hit", got)
	}
	la := cache.LineAddr(0xa000)
	// L2 evicts its CLEAN copy, but the L1 holds dirty data: must write back.
	h.l2.Invalidate(la)
	h.handleL2Eviction(cache.Eviction{LineAddr: la, Dirty: false})
	if len(st.wbs) != 1 {
		t.Fatal("dirty L1 data lost on L2 eviction")
	}
}

func TestHierarchySharedSpaceInvalidation(t *testing.T) {
	eng := &sim.Engine{}
	st := newStub(eng)
	cfg := splitCfg()
	h := newHierarchy(eng, cfg, st, true) // shared address space
	h.Access(0, 0xb000, false, func() {})
	eng.RunUntil(1000)
	h.Access(1, 0xb000, false, nil) // core 1 caches it too
	la := cache.LineAddr(0xb000)
	if !h.l1s[1].Contains(la) {
		t.Fatal("core 1 L1 not filled")
	}
	// Core 0 stores: core 1's L1 copy must be invalidated.
	if st := h.Access(0, 0xb000, true, nil); st != cpu.AccessL1Hit {
		t.Fatalf("store = %v", st)
	}
	if h.l1s[1].Contains(la) {
		t.Fatal("MESI-lite invalidation failed")
	}
}

func TestHierarchyParityHeldDelaysWord(t *testing.T) {
	eng := &sim.Engine{}
	st := newStub(eng)
	cfg := splitCfg()
	cfg.CritParityErrorRate = 1.0 // every crit word fails parity
	h := newHierarchy(eng, cfg, st, false)
	var wokenAt sim.Cycle = -1
	h.Access(0, 0xc000, false, func() { wokenAt = eng.Now() })
	eng.RunUntil(1000)
	if h.Stat.ParityErrors != 1 {
		t.Fatalf("parity errors = %d", h.Stat.ParityErrors)
	}
	if wokenAt != 200 {
		t.Fatalf("parity-held word woken at %d, want 200 (line+SECDED)", wokenAt)
	}
}

func TestHierarchyOraclePlacement(t *testing.T) {
	eng := &sim.Engine{}
	st := newStub(eng)
	cfg := splitCfg()
	cfg.Placement = PlaceOracle
	h := newHierarchy(eng, cfg, st, false)
	var wokenAt sim.Cycle = -1
	h.Access(0, 0xd000+6*8, false, func() { wokenAt = eng.Now() })
	eng.RunUntil(1000)
	if wokenAt != 50 {
		t.Fatalf("oracle word-6 woken at %d, want crit arrival 50", wokenAt)
	}
	if h.Stat.CritServedFast != 1 {
		t.Fatal("oracle fill not counted fast")
	}
}

func TestHierarchyNonSplitUsesRequestedWord(t *testing.T) {
	eng := &sim.Engine{}
	st := newStub(eng)
	cfg := Baseline(2)
	cfg.Prefetch = false
	h := newHierarchy(eng, cfg, st, false)
	var wokenAt sim.Cycle = -1
	h.Access(0, 0xe000+7*8, false, func() { wokenAt = eng.Now() })
	eng.RunUntil(1000)
	// Baseline burst-reorder: the requested word arrives at the "crit"
	// event regardless of index.
	if wokenAt != 50 {
		t.Fatalf("baseline word-7 woken at %d, want 50", wokenAt)
	}
}

func TestHierarchyPrefetchTrainAndPromotion(t *testing.T) {
	eng := &sim.Engine{}
	st := newStub(eng)
	cfg := RL(2) // prefetch enabled
	h := newHierarchy(eng, cfg, st, false)
	// A unit-stride miss stream trains the prefetcher.
	for i := 0; i < 6; i++ {
		h.Access(0, uint64(i)*64, false, func() {})
		eng.RunUntil(eng.Now() + 300)
	}
	if h.Stat.PrefetchFills == 0 {
		t.Fatal("prefetcher never issued")
	}
	// A demand access to a prefetched in-flight line promotes it.
	var promoted bool
	for _, f := range st.fills {
		if f.prefetch {
			if _, ok := h.mshr.Lookup(f.lineAddr); ok {
				before := h.Stat.DemandFills
				h.Access(0, f.lineAddr*64+8, false, func() {})
				if h.Stat.DemandFills == before+1 {
					promoted = true
				}
				break
			}
		}
	}
	_ = promoted // promotion only observable if a prefetch was still in flight
}

func TestBuildBackendVariants(t *testing.T) {
	eng := &sim.Engine{}
	for _, cfg := range []SystemConfig{
		Baseline(2), HomogeneousLPDDR2(2), HomogeneousRLDRAM3(2),
		RD(2), RL(2), DL(2), PagePlaced(2, map[uint64]bool{1: true}),
	} {
		if len(buildBackend(eng, cfg).Groups()) == 0 {
			t.Fatalf("%s: no channel groups", cfg.Name)
		}
	}
	if _, err := lineConfigFor(dram.Kind(99)); err == nil {
		t.Fatal("unknown line kind accepted")
	}
}
