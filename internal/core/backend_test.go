package core

import (
	"testing"

	"hetsim/internal/cache"
	"hetsim/internal/dram"
	"hetsim/internal/sim"
)

// testSink is a configurable fillSink for driving backends directly.
type testSink struct {
	onCritF func(*cache.Entry)
	onReqF  func(*cache.Entry)
	onLineF func(*cache.Entry)
}

func (s *testSink) onCrit(e *cache.Entry) {
	if s.onCritF != nil {
		s.onCritF(e)
	}
}

func (s *testSink) onReqWord(e *cache.Entry) {
	if s.onReqF != nil {
		s.onReqF(e)
	}
}

func (s *testSink) onLine(e *cache.Entry) {
	if s.onLineF != nil {
		s.onLineF(e)
	}
}

// fill issues a fill for lineAddr through b, failing the test on reject.
func fill(t *testing.T, b backend, lineAddr uint64) {
	t.Helper()
	if !b.IssueFill(&cache.Entry{LineAddr: lineAddr}) {
		t.Fatalf("fill of line %d rejected", lineAddr)
	}
}

func TestLineBackendRoutesRoundRobin(t *testing.T) {
	eng := &sim.Engine{}
	b := newHomogeneous(eng, dram.DDR3Config(), Channels, false)
	seen := map[int]bool{}
	for la := uint64(0); la < Channels; la++ {
		ch, local := b.route(la)
		seen[ch] = true
		if local != 0 {
			t.Fatalf("line %d local addr = %d, want 0", la, local)
		}
	}
	if len(seen) != Channels {
		t.Fatalf("lines 0..3 covered %d channels", len(seen))
	}
}

func TestLineBackendFillDeliversCritBeforeLine(t *testing.T) {
	eng := &sim.Engine{}
	b := newHomogeneous(eng, dram.DDR3Config(), Channels, false)
	var critAt, lineAt sim.Cycle = -1, -1
	b.setSink(&testSink{
		onCritF: func(*cache.Entry) { critAt = eng.Now() },
		onLineF: func(*cache.Entry) { lineAt = eng.Now() },
	})
	fill(t, b, 5)
	eng.RunUntil(100000)
	if critAt < 0 || lineAt < 0 {
		t.Fatal("callbacks never fired")
	}
	if critAt >= lineAt {
		t.Fatalf("crit at %d not before line at %d", critAt, lineAt)
	}
	// Burst-reorder CWF on one channel: crit beat leads line end by
	// most of the burst.
	tm := dram.DDR3Timing()
	if lineAt-critAt != tm.Burst-tm.BusCycle/2 {
		t.Fatalf("crit lead = %d, want %d", lineAt-critAt, tm.Burst-tm.BusCycle/2)
	}
}

func TestCWFBackendSplitDelivery(t *testing.T) {
	eng := &sim.Engine{}
	b := newCWF(eng, dram.LPDDR2Config(), dram.RLDRAM3WordConfig(), cwfOptions{})
	var critAt, lineAt sim.Cycle = -1, -1
	b.setSink(&testSink{
		onCritF: func(*cache.Entry) { critAt = eng.Now() },
		onLineF: func(*cache.Entry) { lineAt = eng.Now() },
	})
	fill(t, b, 7)
	eng.RunUntil(100000)
	if critAt < 0 || lineAt < 0 {
		t.Fatal("callbacks never fired")
	}
	// The whole point of the paper: the RLDRAM3 word arrives tens of
	// cycles before the LPDDR2 line.
	if lead := lineAt - critAt; lead < 40 {
		t.Fatalf("critical word lead = %d cycles, want tens of cycles", lead)
	}
}

func TestCWFBackendNeedsBothQueues(t *testing.T) {
	eng := &sim.Engine{}
	b := newCWF(eng, dram.LPDDR2Config(), dram.RLDRAM3WordConfig(), cwfOptions{})
	b.setSink(&testSink{})
	// Fill the critical sub-channel 0 queue (12 entries).
	n := 0
	for i := 0; b.critCtrl[0].CanAcceptRead(); i++ {
		if !b.IssueFill(&cache.Entry{LineAddr: uint64(i * Channels)}) {
			break
		}
		n++
	}
	if n == 0 {
		t.Fatal("no fills accepted")
	}
	if b.CanAcceptFill(0) {
		t.Fatal("CanAcceptFill true with crit queue full")
	}
	if b.IssueFill(&cache.Entry{LineAddr: uint64(n * Channels)}) {
		t.Fatal("fill accepted with crit queue full")
	}
	// Channel 1's pair is independent.
	if !b.CanAcceptFill(1) {
		t.Fatal("channel 1 blocked by channel 0 queue")
	}
}

func TestCWFBackendSharedCmdBusSerializes(t *testing.T) {
	eng := &sim.Engine{}
	b := newCWF(eng, dram.LPDDR2Config(), dram.RLDRAM3WordConfig(), cwfOptions{})
	// Four simultaneous fills, one per sub-channel: their critical
	// accesses share one command bus, so data starts serialize at one
	// command per bus cycle even though data buses are independent.
	var starts []sim.Cycle
	b.setSink(&testSink{
		onCritF: func(*cache.Entry) { starts = append(starts, eng.Now()) },
	})
	for ch := uint64(0); ch < Channels; ch++ {
		fill(t, b, ch)
	}
	eng.RunUntil(100000)
	if len(starts) != Channels {
		t.Fatalf("crit deliveries = %d", len(starts))
	}
	distinct := map[sim.Cycle]bool{}
	for _, s := range starts {
		distinct[s] = true
	}
	if len(distinct) < 2 {
		t.Fatal("command bus contention not visible in delivery times")
	}
	if b.sharedCmd.BusyCycles == 0 {
		t.Fatal("shared command bus unused")
	}
}

func TestCWFBackendWritebackGoesToBothChannels(t *testing.T) {
	eng := &sim.Engine{}
	b := newCWF(eng, dram.LPDDR2Config(), dram.RLDRAM3WordConfig(), cwfOptions{})
	if !b.IssueWriteback(3) {
		t.Fatal("writeback rejected")
	}
	eng.RunUntil(100000)
	if b.critChan[3].Stat.Writes != 1 {
		t.Fatalf("crit channel writes = %d", b.critChan[3].Stat.Writes)
	}
	if b.lineChan[3].Stat.Writes != 1 {
		t.Fatalf("line channel writes = %d", b.lineChan[3].Stat.Writes)
	}
}

func TestCWFBackendGroups(t *testing.T) {
	eng := &sim.Engine{}
	b := newCWF(eng, dram.LPDDR2Config(), dram.RLDRAM3WordConfig(), cwfOptions{})
	gs := b.Groups()
	if len(gs) != 2 {
		t.Fatalf("groups = %d", len(gs))
	}
	if gs[0].Kind != dram.LPDDR2 || gs[1].Kind != dram.RLDRAM3 {
		t.Fatal("group kinds wrong")
	}
	if gs[1].DevicesPerAccess != 1 {
		t.Fatal("critical access must activate a single x9 chip (§4.2.4)")
	}
	if gs[0].DevicesPerAccess != 8 {
		t.Fatal("line access must activate 8 LPDDR2 chips")
	}
}

func TestPagePlacedRouting(t *testing.T) {
	eng := &sim.Engine{}
	hot := map[uint64]bool{0: true}
	b := newPagePlaced(eng, dram.RLDRAM3Config(), 1, dram.LPDDR2Config(), Channels-1, hot, false)
	// Lines of hot page 0 go to channel 0 (RLDRAM3).
	if ch, _ := b.route(5); ch != 0 {
		t.Fatalf("hot line routed to channel %d", ch)
	}
	// Lines of cold pages go to channels 1-3.
	cold := map[int]bool{}
	for page := uint64(1); page < 10; page++ {
		ch, _ := b.route(page * 64)
		if ch == 0 {
			t.Fatalf("cold page %d routed to RLDRAM3 channel", page)
		}
		cold[ch] = true
	}
	if len(cold) != 3 {
		t.Fatalf("cold pages spread over %d channels, want 3", len(cold))
	}
	if b.Groups()[0].Kind != dram.RLDRAM3 {
		t.Fatal("hot channel kind wrong")
	}
}

func TestPrefetchHeadroomGate(t *testing.T) {
	eng := &sim.Engine{}
	b := newHomogeneous(eng, dram.DDR3Config(), Channels, false)
	if !b.CanAcceptPrefetch(0) {
		t.Fatal("empty queue rejects prefetch")
	}
	b.setSink(&testSink{})
	// Fill channel 0's read queue past half.
	limit := int(prefetchHeadroom * 48)
	for i := 0; i <= limit; i++ {
		b.IssueFill(&cache.Entry{LineAddr: uint64(i * Channels)})
	}
	if b.CanAcceptPrefetch(0) {
		t.Fatal("half-full queue still accepts prefetch")
	}
	if !b.CanAcceptFill(0) {
		t.Fatal("demand fill wrongly rejected")
	}
}

func TestCWFWideRankStructure(t *testing.T) {
	eng := &sim.Engine{}
	b := newCWF(eng, dram.LPDDR2Config(), dram.RLDRAM3WordConfig(),
		cwfOptions{wideRank: true})
	if len(b.critChan) != 1 {
		t.Fatalf("wide rank sub-channels = %d, want 1", len(b.critChan))
	}
	g := b.Groups()[1]
	if g.DevicesPerAccess != 4 || g.DevicesPerRank != 4 {
		t.Fatalf("wide rank devices = %d/%d, want 4/4", g.DevicesPerAccess, g.DevicesPerRank)
	}
	// The 36-bit bus moves the word in a single bus cycle.
	if got := g.Cfg.Timing.Burst; got != g.Cfg.Timing.BusCycle {
		t.Fatalf("wide burst = %d, want one bus cycle", got)
	}
	// Every line channel's fills route to the single sub-channel.
	for la := uint64(0); la < 4; la++ {
		ch, _ := b.split(la)
		if b.critSub(ch) != 0 {
			t.Fatal("wide rank routing broken")
		}
	}
	b.setSink(&testSink{})
	fill(t, b, 3)
	eng.RunUntil(100000)
	if b.critChan[0].Stat.Reads != 1 {
		t.Fatal("wide-rank read not issued")
	}
}

func TestCWFPrivateCmdBusesIndependent(t *testing.T) {
	eng := &sim.Engine{}
	b := newCWF(eng, dram.LPDDR2Config(), dram.RLDRAM3WordConfig(),
		cwfOptions{privateCmdBus: true})
	if b.critChan[0].Cmd == b.critChan[1].Cmd {
		t.Fatal("private command buses are shared")
	}
	// The shared-bus default aliases them.
	sb := newCWF(eng, dram.LPDDR2Config(), dram.RLDRAM3WordConfig(), cwfOptions{})
	if sb.critChan[0].Cmd != sb.critChan[1].Cmd {
		t.Fatal("default command bus not shared")
	}
}
