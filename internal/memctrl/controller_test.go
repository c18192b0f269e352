package memctrl

import (
	"testing"
	"testing/quick"

	"hetsim/internal/dram"
	"hetsim/internal/sim"
)

func newCtrl(kind dram.Kind) (*sim.Engine, *Controller) {
	eng := &sim.Engine{}
	var cfg dram.Config
	switch kind {
	case dram.DDR3:
		cfg = dram.DDR3Config()
	case dram.LPDDR2:
		cfg = dram.LPDDR2Config()
	case dram.RLDRAM3:
		cfg = dram.RLDRAM3Config()
	}
	ch := dram.NewChannel(cfg, 1, nil)
	return eng, New(eng, ch, DefaultConfig(kind))
}

func TestMapperRoundTripProperty(t *testing.T) {
	m := OpenPageMapper{Geom: dram.DDR3Geometry(), Ranks: 1}
	cap64 := m.Geom.UnitsPerRank()
	f := func(a, b uint64) bool {
		a %= cap64
		b %= cap64
		if a == b {
			return true
		}
		return m.Map(a) != m.Map(b)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

func TestOpenPageMapperLocality(t *testing.T) {
	m := OpenPageMapper{Geom: dram.DDR3Geometry(), Ranks: 1}
	// Sequential unit addresses must stay in the same row until the
	// column range is exhausted (row-buffer locality).
	c0 := m.Map(0)
	for a := uint64(1); a < uint64(m.Geom.ColsPerRow); a++ {
		c := m.Map(a)
		if c.Row != c0.Row || c.Bank != c0.Bank {
			t.Fatalf("addr %d left row early: %v vs %v", a, c, c0)
		}
	}
	next := m.Map(uint64(m.Geom.ColsPerRow))
	if next.Bank == c0.Bank && next.Row == c0.Row {
		t.Fatal("column overflow did not advance bank")
	}
}

func TestClosePageMapperBankInterleave(t *testing.T) {
	m := ClosePageMapper{Geom: dram.RLDRAM3WordGeometry(), Ranks: 1}
	seen := map[int]bool{}
	for a := uint64(0); a < uint64(m.Geom.Banks); a++ {
		seen[m.Map(a).Bank] = true
	}
	if len(seen) != m.Geom.Banks {
		t.Fatalf("sequential addresses cover %d banks, want %d", len(seen), m.Geom.Banks)
	}
}

func TestSingleReadLatencyDDR3(t *testing.T) {
	eng, c := newCtrl(dram.DDR3)
	tm := c.Ch.Cfg.Timing
	var done *Request
	r := &Request{Addr: 0, OnComplete: func(r *Request) { done = r }}
	if !c.EnqueueRead(r) {
		t.Fatal("enqueue failed")
	}
	eng.RunUntil(100000)
	if done == nil {
		t.Fatal("read never completed")
	}
	want := tm.TRCD + tm.TRL + tm.Burst // ACT at 0, CAS at tRCD
	if done.DataEnd != want {
		t.Fatalf("DataEnd = %d, want %d", done.DataEnd, want)
	}
	if c.Stats.RowMisses != 1 || c.Stats.RowHits != 0 {
		t.Fatalf("hits=%d misses=%d", c.Stats.RowHits, c.Stats.RowMisses)
	}
}

func TestRowHitSecondRead(t *testing.T) {
	eng, c := newCtrl(dram.DDR3)
	var ends []sim.Cycle
	cb := func(r *Request) { ends = append(ends, r.DataEnd) }
	c.EnqueueRead(&Request{Addr: 0, OnComplete: cb})
	c.EnqueueRead(&Request{Addr: 1, OnComplete: cb}) // same row, next column
	eng.RunUntil(100000)
	if len(ends) != 2 {
		t.Fatalf("completed %d reads", len(ends))
	}
	if c.Stats.RowHits != 1 || c.Stats.RowMisses != 1 {
		t.Fatalf("hits=%d misses=%d", c.Stats.RowHits, c.Stats.RowMisses)
	}
	tm := c.Ch.Cfg.Timing
	// Second read is a row hit: it must complete one burst after the
	// first (back-to-back bursts at tCCD), not a full tRC later.
	if gap := ends[1] - ends[0]; gap != tm.TCCD {
		t.Fatalf("row-hit gap = %d, want %d", gap, tm.TCCD)
	}
}

// call adapts a closure to sim.EventHandler so tests can schedule
// inline bodies.
type call func()

func (f call) OnEvent(any) { f() }

func TestRLDRAMFasterThanDDR3UnderLoad(t *testing.T) {
	run := func(kind dram.Kind) float64 {
		eng, c := newCtrl(kind)
		remaining := 64
		rng := sim.NewRNG(42)
		var issue func()
		issue = func() {
			if remaining == 0 {
				return
			}
			remaining--
			addr := rng.Uint64() % (1 << 20)
			c.EnqueueRead(&Request{Addr: addr})
			eng.ScheduleEvent(20, call(issue), nil) // heavy arrival rate
		}
		issue()
		eng.RunUntil(10_000_000)
		return c.Stats.Reads.TotalMean()
	}
	d := run(dram.DDR3)
	r := run(dram.RLDRAM3)
	if r >= d {
		t.Fatalf("RLDRAM3 mean latency %v not below DDR3 %v", r, d)
	}
}

func TestLPDDR2SlowerThanDDR3(t *testing.T) {
	run := func(kind dram.Kind) float64 {
		eng, c := newCtrl(kind)
		rng := sim.NewRNG(7)
		for i := 0; i < 32; i++ {
			c.EnqueueRead(&Request{Addr: rng.Uint64() % (1 << 20)})
		}
		eng.RunUntil(10_000_000)
		return c.Stats.Reads.TotalMean()
	}
	if l, d := run(dram.LPDDR2), run(dram.DDR3); l <= d {
		t.Fatalf("LPDDR2 mean latency %v not above DDR3 %v", l, d)
	}
}

func TestWriteDrainWatermarks(t *testing.T) {
	eng, c := newCtrl(dram.DDR3)
	// Fill the write queue past the high watermark.
	for i := 0; i < c.Cfg.HighWatermark+4; i++ {
		if !c.EnqueueWrite(&Request{Addr: uint64(i)}) {
			t.Fatalf("write enqueue %d failed", i)
		}
	}
	eng.RunUntil(5_000_000)
	if c.Stats.Drains != 1 {
		t.Fatalf("drain entries = %d, want 1", c.Stats.Drains)
	}
	if c.Stats.WritesDone != uint64(c.Cfg.HighWatermark+4) {
		t.Fatalf("writes done = %d", c.Stats.WritesDone)
	}
}

func TestReadsPrioritizedOverWritesBelowWatermark(t *testing.T) {
	eng, c := newCtrl(dram.DDR3)
	var readEnd sim.Cycle
	// A few writes (below watermark) then a read: the read must not
	// wait behind all writes.
	for i := 0; i < 8; i++ {
		c.EnqueueWrite(&Request{Addr: uint64(i * 1000)})
	}
	c.EnqueueRead(&Request{Addr: 5, OnComplete: func(r *Request) { readEnd = r.DataEnd }})
	eng.RunUntil(5_000_000)
	if readEnd == 0 {
		t.Fatal("read never completed")
	}
	if readEnd > 1000 {
		t.Fatalf("read finished at %d; writes were not bypassed", readEnd)
	}
}

func TestPrefetchDeprioritized(t *testing.T) {
	eng, c := newCtrl(dram.DDR3)
	var demandEnd, prefEnd sim.Cycle
	// Prefetch arrives first, demand one cycle later, both to the same
	// row: once the row opens, the demand's CAS must issue first even
	// though the prefetch is older.
	pf := &Request{Addr: 2, Prefetch: true, OnComplete: func(r *Request) { prefEnd = r.DataEnd }}
	dm := &Request{Addr: 0, OnComplete: func(r *Request) { demandEnd = r.DataEnd }}
	c.EnqueueRead(pf)
	eng.ScheduleEvent(1, call(func() { c.EnqueueRead(dm) }), nil)
	eng.RunUntil(5_000_000)
	if demandEnd == 0 || prefEnd == 0 {
		t.Fatal("requests incomplete")
	}
	if demandEnd > prefEnd {
		t.Fatalf("demand (%d) finished after prefetch (%d)", demandEnd, prefEnd)
	}
}

func TestPrefetchAgePromotion(t *testing.T) {
	eng, c := newCtrl(dram.DDR3)
	c.Cfg.PrefetchAge = 100
	var prefEnd sim.Cycle
	pf := &Request{Addr: 1 << 12, Prefetch: true, OnComplete: func(r *Request) { prefEnd = r.DataEnd }}
	c.EnqueueRead(pf)
	// Stream of demands to a different bank arriving forever; the aged
	// prefetch must still complete reasonably soon.
	n := 0
	var feed func()
	feed = func() {
		if n > 50 {
			return
		}
		n++
		c.EnqueueRead(&Request{Addr: uint64(n)})
		eng.ScheduleEvent(30, call(feed), nil)
	}
	feed()
	eng.RunUntil(5_000_000)
	if prefEnd == 0 {
		t.Fatal("aged prefetch starved")
	}
}

func TestBackpressure(t *testing.T) {
	_, c := newCtrl(dram.DDR3)
	for i := 0; i < c.Cfg.ReadQueueSize; i++ {
		if !c.EnqueueRead(&Request{Addr: uint64(i)}) {
			t.Fatalf("enqueue %d rejected early", i)
		}
	}
	if c.EnqueueRead(&Request{Addr: 999}) {
		t.Fatal("overfull queue accepted a read")
	}
	if c.CanAcceptRead() {
		t.Fatal("CanAcceptRead true at capacity")
	}
}

func TestRefreshHappens(t *testing.T) {
	eng, c := newCtrl(dram.DDR3)
	c.Cfg.SleepAfter = 0 // keep rank awake to isolate refresh
	c.EnqueueRead(&Request{Addr: 0})
	tm := c.Ch.Cfg.Timing
	eng.RunUntil(tm.TREFI * 4)
	if c.Ch.Stat.Refreshes < 3 {
		t.Fatalf("refreshes = %d over 4 tREFI", c.Ch.Stat.Refreshes)
	}
}

func TestIdleLPDDR2Sleeps(t *testing.T) {
	eng, c := newCtrl(dram.LPDDR2)
	var end1 sim.Cycle
	c.EnqueueRead(&Request{Addr: 0, OnComplete: func(r *Request) { end1 = r.DataEnd }})
	// Run to a cycle clear of any refresh: the maintenance pass wakes
	// the rank exactly every tREFI, and re-entering power-down takes
	// SleepAfter idle cycles, so assert midway between two refreshes.
	eng.RunUntil(205_000)
	if end1 == 0 {
		t.Fatal("first read incomplete")
	}
	if c.Ch.PowerState(0) != dram.PSPowerDown {
		t.Fatalf("idle rank state = %v, want powerdown", c.Ch.PowerState(0))
	}
	// A new read must wake the rank and pay the exit latency.
	var end2 *Request
	eng.ScheduleEvent(0, call(func() {
		c.EnqueueRead(&Request{Addr: 1 << 16, OnComplete: func(r *Request) { end2 = r }})
	}), nil)
	start := eng.Now()
	eng.RunUntil(start + 200_000)
	if end2 == nil {
		t.Fatal("post-sleep read incomplete")
	}
	tm := c.Ch.Cfg.Timing
	minLatency := tm.TXP + tm.TRCD + tm.TRL + tm.Burst
	if got := end2.DataEnd - end2.Arrive; got < minLatency {
		t.Fatalf("post-sleep latency %d < %d (no wake penalty paid)", got, minLatency)
	}
	if c.Ch.Stat.WakeUps == 0 {
		t.Fatal("no wake recorded")
	}
}

func TestRLDRAMNeverSleeps(t *testing.T) {
	eng, c := newCtrl(dram.RLDRAM3)
	c.EnqueueRead(&Request{Addr: 0})
	eng.RunUntil(1_000_000)
	if c.Ch.PowerState(0) != dram.PSActive {
		t.Fatal("RLDRAM3 rank slept")
	}
	if c.Ch.Stat.SleepEntry != 0 {
		t.Fatal("RLDRAM3 sleep entries recorded")
	}
}

// Property: every enqueued read eventually completes exactly once, with
// monotone non-negative latency components.
func TestAllReadsCompleteProperty(t *testing.T) {
	f := func(addrs []uint32, kindSel bool) bool {
		kind := dram.DDR3
		if kindSel {
			kind = dram.RLDRAM3
		}
		if len(addrs) > 40 {
			addrs = addrs[:40]
		}
		eng, c := newCtrl(kind)
		completed := 0
		ok := true
		for i, a := range addrs {
			r := &Request{Addr: uint64(a), OnComplete: func(r *Request) {
				completed++
				if r.IssueAt < r.Arrive || r.DataStart < r.IssueAt || r.DataEnd <= r.DataStart {
					ok = false
				}
			}}
			delay := sim.Cycle(i * 3)
			eng.ScheduleEvent(delay, call(func() {
				for !c.EnqueueRead(r) {
					// queue full cannot happen with <=40 requests
					return
				}
			}), nil)
		}
		eng.RunUntil(50_000_000)
		return ok && completed == len(addrs)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestQueueLatencyGrowsWithLoad(t *testing.T) {
	run := func(n int) float64 {
		eng, c := newCtrl(dram.DDR3)
		rng := sim.NewRNG(3)
		for i := 0; i < n; i++ {
			c.EnqueueRead(&Request{Addr: rng.Uint64() % (1 << 22)})
		}
		eng.RunUntil(50_000_000)
		return c.Stats.Reads.Queue.Value()
	}
	light, heavy := run(2), run(40)
	if heavy <= light {
		t.Fatalf("queue latency light=%v heavy=%v", light, heavy)
	}
}

func TestXORMapperBijectiveProperty(t *testing.T) {
	m := XORMapper{Geom: dram.DDR3Geometry(), Ranks: 1}
	cap64 := m.Geom.UnitsPerRank()
	f := func(a, b uint64) bool {
		a %= cap64
		b %= cap64
		if a == b {
			return true
		}
		return m.Map(a) != m.Map(b)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

func TestXORMapperSpreadsPowerOfTwoStrides(t *testing.T) {
	open := OpenPageMapper{Geom: dram.DDR3Geometry(), Ranks: 1}
	xor := XORMapper{Geom: dram.DDR3Geometry(), Ranks: 1}
	// A large power-of-two stride camps on one bank under the plain
	// open-row mapping but spreads under the XOR permutation.
	stride := uint64(open.Geom.ColsPerRow * open.Geom.Banks)
	openBanks := map[int]bool{}
	xorBanks := map[int]bool{}
	for i := uint64(0); i < 64; i++ {
		openBanks[open.Map(i*stride).Bank] = true
		xorBanks[xor.Map(i*stride).Bank] = true
	}
	if len(openBanks) != 1 {
		t.Fatalf("open-row stride covered %d banks, want 1", len(openBanks))
	}
	if len(xorBanks) < 4 {
		t.Fatalf("xor stride covered only %d banks", len(xorBanks))
	}
}

func TestBankFirstMapperInterleaves(t *testing.T) {
	m := BankFirstMapper{Geom: dram.DDR3Geometry(), Ranks: 1}
	seen := map[int]bool{}
	for a := uint64(0); a < uint64(m.Geom.Banks); a++ {
		seen[m.Map(a).Bank] = true
	}
	if len(seen) != m.Geom.Banks {
		t.Fatalf("bank-first covered %d banks", len(seen))
	}
}
