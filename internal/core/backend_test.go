package core

import (
	"fmt"
	"testing"

	"hetsim/internal/cache"
	"hetsim/internal/dram"
	"hetsim/internal/memctrl"
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
	if b.Groups()[1].Chans[0].Cmd.BusyCycles == 0 {
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
	gs := b.Groups()
	if gs[1].Chans[3].Stat.Writes != 1 {
		t.Fatalf("crit channel writes = %d", gs[1].Chans[3].Stat.Writes)
	}
	if gs[0].Chans[3].Stat.Writes != 1 {
		t.Fatalf("line channel writes = %d", gs[0].Chans[3].Stat.Writes)
	}
}

func TestCWFBackendGroups(t *testing.T) {
	eng := &sim.Engine{}
	b := newCWF(eng, dram.LPDDR2Config(), dram.RLDRAM3WordConfig(), cwfOptions{})
	gs := b.Groups()
	if len(gs) != 2 {
		t.Fatalf("groups = %d", len(gs))
	}
	if gs[0].Cfg.Kind != dram.LPDDR2 || gs[1].Cfg.Kind != dram.RLDRAM3 {
		t.Fatal("group kinds wrong")
	}
	if gs[1].Cfg.Geom.DevicesPerRank != 1 {
		t.Fatal("critical access must activate a single x9 chip (§4.2.4)")
	}
	if gs[0].Cfg.Geom.DevicesPerRank != 8 {
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
	if b.Groups()[0].Cfg.Kind != dram.RLDRAM3 {
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
	g := b.Groups()[1]
	if len(g.Chans) != 1 {
		t.Fatalf("wide rank sub-channels = %d, want 1", len(g.Chans))
	}
	if g.Cfg.Geom.DevicesPerRank != 4 {
		t.Fatalf("wide rank devices = %d, want 4", g.Cfg.Geom.DevicesPerRank)
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
	if g.Chans[0].Stat.Reads != 1 {
		t.Fatal("wide-rank read not issued")
	}
}

func TestCWFPrivateCmdBusesIndependent(t *testing.T) {
	eng := &sim.Engine{}
	b := newCWF(eng, dram.LPDDR2Config(), dram.RLDRAM3WordConfig(),
		cwfOptions{privateCmdBus: true})
	if crit := b.Groups()[1].Chans; crit[0].Cmd == crit[1].Cmd {
		t.Fatal("private command buses are shared")
	}
	// The shared-bus default aliases them.
	sb := newCWF(eng, dram.LPDDR2Config(), dram.RLDRAM3WordConfig(), cwfOptions{})
	if crit := sb.Groups()[1].Chans; crit[0].Cmd != crit[1].Cmd {
		t.Fatal("default command bus not shared")
	}
}

// TestFillDelivery drives one fill through every organization and
// checks what the sink sees: each of crit, requested word and line
// exactly once (no crit on a degraded split fill), the requested word
// on the line burst's first beat, and — on conventional channels — the
// crit on that same beat, delivered just before the requested word.
func TestFillDelivery(t *testing.T) {
	cases := []struct {
		name  string
		build func(*testing.T, *sim.Engine) backend
		line  uint64
		group int  // the group whose channel carries the line
		split bool // the crit word travels on its own channel
		crit  int  // crit deliveries expected
	}{
		{name: "homogeneous", line: 5, crit: 1, build: func(t *testing.T, eng *sim.Engine) backend {
			return newHomogeneous(eng, dram.DDR3Config(), Channels, false)
		}},
		{name: "page-placed", line: 5, crit: 1, build: func(t *testing.T, eng *sim.Engine) backend {
			return newPagePlaced(eng, dram.RLDRAM3Config(), 1, dram.LPDDR2Config(), Channels-1,
				map[uint64]bool{0: true}, false)
		}},
		{name: "dram-cache-miss", line: 7, group: 1, crit: 1, build: func(t *testing.T, eng *sim.Engine) backend {
			return newTestDRAMCache(eng)
		}},
		{name: "dram-cache-hit", line: 7, crit: 1, build: func(t *testing.T, eng *sim.Engine) backend {
			b := newTestDRAMCache(eng)
			b.setSink(&testSink{})
			fill(t, b, 7) // miss, then install
			eng.RunUntil(1_000_000)
			if !b.resident(7) {
				t.Fatal("line 7 not installed")
			}
			return b
		}},
		{name: "cwf", line: 7, split: true, crit: 1, build: func(t *testing.T, eng *sim.Engine) backend {
			return newCWF(eng, dram.LPDDR2Config(), dram.RLDRAM3WordConfig(), cwfOptions{})
		}},
		{name: "cwf-degraded", line: 7, split: true, build: func(t *testing.T, eng *sim.Engine) backend {
			b := newCWF(eng, dram.LPDDR2Config(), dram.RLDRAM3WordConfig(), cwfOptions{})
			b.DegradeCrit()
			return b
		}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			eng := &sim.Engine{}
			b := c.build(t, eng)
			type delivery struct {
				what string
				at   sim.Cycle
			}
			var got []delivery
			n := map[string]int{}
			at := map[string]sim.Cycle{}
			record := func(what string) func(*cache.Entry) {
				return func(*cache.Entry) {
					got = append(got, delivery{what, eng.Now()})
					n[what]++
					at[what] = eng.Now()
				}
			}
			b.setSink(&testSink{onCritF: record("crit"), onReqF: record("req"), onLineF: record("line")})
			fill(t, b, c.line)
			eng.RunUntil(eng.Now() + 1_000_000)

			if n["crit"] != c.crit || n["req"] != 1 || n["line"] != 1 {
				t.Fatalf("deliveries crit/req/line = %d/%d/%d, want %d/1/1 (%v)",
					n["crit"], n["req"], n["line"], c.crit, got)
			}
			tm := b.Groups()[c.group].Cfg.Timing
			if want := at["line"] - tm.Burst + max(tm.BusCycle/2, 1); at["req"] != want {
				t.Fatalf("requested word at %d, want the line's first beat %d", at["req"], want)
			}
			if c.split {
				return
			}
			for i, d := range got {
				if d.what == "crit" {
					if i+1 == len(got) || got[i+1] != (delivery{"req", d.at}) {
						t.Fatalf("crit at %d not followed by the requested word on the same beat: %v", d.at, got)
					}
				}
			}
		})
	}
}

// TestEveryControllerOwnsItsPool pins the request-pool policy: in every
// organization each controller recycles requests through a pool of its
// own.
func TestEveryControllerOwnsItsPool(t *testing.T) {
	eng := &sim.Engine{}
	cases := []struct {
		name string
		b    backend
	}{
		{"unified", newHomogeneous(eng, dram.DDR3Config(), Channels, false)},
		{"page", newPagePlaced(eng, dram.RLDRAM3Config(), 1, dram.LPDDR2Config(), Channels-1, nil, false)},
		{"cwf", newCWF(eng, dram.LPDDR2Config(), dram.RLDRAM3WordConfig(), cwfOptions{})},
		{"cwf-wide", newCWF(eng, dram.LPDDR2Config(), dram.RLDRAM3WordConfig(), cwfOptions{wideRank: true})},
		{"cwf-private-bus", newCWF(eng, dram.LPDDR2Config(), dram.RLDRAM3WordConfig(), cwfOptions{privateCmdBus: true})},
		{"dram-cache", newTestDRAMCache(eng)},
	}
	for _, c := range cases {
		owner := map[*memctrl.Pool]string{}
		for gi, g := range c.b.Groups() {
			for ci, ctrl := range g.Ctrls {
				name := fmt.Sprintf("g%d.c%d", gi, ci)
				if ctrl.Pool == nil {
					t.Errorf("%s: %s has no pool", c.name, name)
					continue
				}
				if prev, shared := owner[ctrl.Pool]; shared {
					t.Errorf("%s: %s shares its pool with %s", c.name, name, prev)
				}
				owner[ctrl.Pool] = name
			}
		}
	}
}
