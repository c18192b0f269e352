package memctrl

import (
	"testing"

	"hetsim/internal/dram"
	"hetsim/internal/sim"
)

// newMultiRank builds a 4-rank RLDRAM3 word channel like one critical
// sub-channel group sharing a command bus would use.
func newMultiRank(ranks int) (*sim.Engine, *Controller) {
	eng := &sim.Engine{}
	ch := dram.NewChannel(dram.RLDRAM3WordConfig(), ranks, nil)
	return eng, New(eng, ch, DefaultConfig(dram.RLDRAM3))
}

func TestClosePageMapperCoversRanks(t *testing.T) {
	m := ClosePageMapper{Geom: dram.RLDRAM3WordGeometry(), Ranks: 4}
	ranks := map[int]bool{}
	for a := uint64(0); a < 256; a++ {
		c := m.Map(a)
		ranks[c.Rank] = true
		if c.Rank < 0 || c.Rank >= 4 {
			t.Fatalf("rank %d out of range", c.Rank)
		}
	}
	if len(ranks) != 4 {
		t.Fatalf("sequential addresses cover %d ranks, want 4", len(ranks))
	}
}

func TestMultiRankParallelism(t *testing.T) {
	// Same-bank same-rank accesses serialize at tRC; spreading the same
	// load across ranks must finish sooner.
	run := func(ranks int) sim.Cycle {
		eng, c := newMultiRank(ranks)
		var last sim.Cycle
		n := 32
		done := 0
		for i := 0; i < n; i++ {
			// Addresses chosen to hit bank 0 of successive ranks.
			addr := uint64(i) * uint64(c.Ch.Cfg.Geom.Banks)
			c.EnqueueRead(&Request{Addr: addr, OnComplete: func(r *Request) {
				done++
				if r.DataEnd > last {
					last = r.DataEnd
				}
			}})
		}
		eng.RunUntil(10_000_000)
		if done != n {
			t.Fatalf("completed %d of %d", done, n)
		}
		return last
	}
	one, four := run(1), run(4)
	if four >= one {
		t.Fatalf("4 ranks (%d) not faster than 1 rank (%d)", four, one)
	}
}

func TestDDR3WordChannelClosePage(t *testing.T) {
	// The DL critical channel: DDR3 devices at word granularity run
	// close-page, so every access is an ACT + CAS-with-autoprecharge.
	eng := &sim.Engine{}
	ch := dram.NewChannel(dram.DDR3WordConfig(), 1, nil)
	c := New(eng, ch, DefaultConfig(dram.DDR3))
	done := 0
	for i := 0; i < 8; i++ {
		// Same row repeatedly: close-page still reopens each time.
		c.EnqueueRead(&Request{Addr: 0, OnComplete: func(*Request) { done++ }})
	}
	eng.RunUntil(10_000_000)
	if done != 8 {
		t.Fatalf("completed %d", done)
	}
	// Close-page means no row hits even for same-address accesses.
	if c.Stats.RowHits != 0 {
		t.Fatalf("row hits = %d under close-page", c.Stats.RowHits)
	}
	if ch.Stat.Acts != 8 {
		t.Fatalf("acts = %d, want 8 (one per access)", ch.Stat.Acts)
	}
}

func TestWriteThenReadSameAddress(t *testing.T) {
	// A read enqueued after a write to the same address must still
	// complete (no ordering deadlock), and the write must drain.
	eng, c := newCtrl(dram.DDR3)
	var readDone bool
	c.EnqueueWrite(&Request{Addr: 77})
	c.EnqueueRead(&Request{Addr: 77, OnComplete: func(*Request) { readDone = true }})
	eng.RunUntil(5_000_000)
	if !readDone {
		t.Fatal("read never completed")
	}
	if c.Stats.WritesDone != 1 {
		t.Fatal("write never drained")
	}
}

func TestRefreshAcrossRanksIndependent(t *testing.T) {
	eng := &sim.Engine{}
	ch := dram.NewChannel(dram.DDR3Config(), 2, nil)
	c := New(eng, ch, DefaultConfig(dram.DDR3))
	c.Cfg.SleepAfter = 0
	c.EnqueueRead(&Request{Addr: 0})
	tm := ch.Cfg.Timing
	eng.RunUntil(tm.TREFI * 3)
	// Both ranks must have refreshed at least twice.
	if ch.Stat.Refreshes < 4 {
		t.Fatalf("refreshes = %d over 3 tREFI with 2 ranks", ch.Stat.Refreshes)
	}
}

func TestPendingCount(t *testing.T) {
	_, c := newCtrl(dram.DDR3)
	if c.Pending() != 0 {
		t.Fatal("fresh controller pending != 0")
	}
	c.EnqueueRead(&Request{Addr: 1})
	c.EnqueueWrite(&Request{Addr: 2})
	if c.Pending() != 2 {
		t.Fatalf("pending = %d", c.Pending())
	}
}

func TestCoordString(t *testing.T) {
	c := Coord{Rank: 1, Bank: 2, Row: 3, Col: 4}
	if c.String() != "r1/b2/row3/col4" {
		t.Fatalf("Coord string %q", c.String())
	}
}

func TestFCFSDisablesRowHitPriority(t *testing.T) {
	// Under FCFS, an older row-miss request must be serviced before a
	// younger row-hit request; FR-FCFS does the opposite.
	run := func(fcfs bool) (first uint64) {
		eng, c := newCtrl(dram.DDR3)
		c.Cfg.FCFS = fcfs
		var order []uint64
		cb := func(r *Request) { order = append(order, r.Addr) }
		// Open a row via request A (addr 0, row 0).
		c.EnqueueRead(&Request{Addr: 0, OnComplete: cb})
		eng.RunUntil(500)
		// Older request to a different row; younger row hit.
		c.EnqueueRead(&Request{Addr: 1 << 12, OnComplete: cb}) // row miss
		c.EnqueueRead(&Request{Addr: 1, OnComplete: cb})       // row 0 hit
		eng.RunUntil(1_000_000)
		if len(order) != 3 {
			t.Fatalf("completed %d", len(order))
		}
		return order[1]
	}
	if got := run(false); got != 1 {
		t.Errorf("FR-FCFS served %d second, want the row hit (1)", got)
	}
	if got := run(true); got != 1<<12 {
		t.Errorf("FCFS served %d second, want the older miss (%d)", got, 1<<12)
	}
}

// TestManyBankClaiming runs a channel with more flat (rank, bank)
// indexes than the former fixed-size claim scratch could address
// (16 ranks x 8 banks = 128 > 64): the bank-conflict claiming pass must
// work at every index, and FR-FCFS must still serve the older of two
// row-conflicting requests first in every bank.
func TestManyBankClaiming(t *testing.T) {
	eng := &sim.Engine{}
	ch := dram.NewChannel(dram.DDR3Config(), 16, nil)
	ccfg := DefaultConfig(dram.DDR3)
	ccfg.ReadQueueSize = 512
	c := New(eng, ch, ccfg)
	c.Pool = &Pool{}

	g := ch.Cfg.Geom
	nBanks := ch.Ranks() * g.Banks
	if nBanks <= 64 {
		t.Fatalf("geometry too small to regress the claim scratch: %d banks", nBanks)
	}
	addr := func(row, rank, bank uint64) uint64 {
		return ((row*uint64(ch.Ranks())+rank)*uint64(g.Banks) + bank) * uint64(g.ColsPerRow)
	}
	// Two row-conflicting reads per bank, older rows enqueued first
	// across all banks. No open row matches, so every issue goes
	// through the claiming pass.
	firstDone := make([]int64, nBanks)
	order := 0
	for pass := 0; pass < 2; pass++ {
		for rk := 0; rk < ch.Ranks(); rk++ {
			for bk := 0; bk < g.Banks; bk++ {
				rk, bk := rk, bk
				r := c.Pool.Get()
				r.Addr = addr(uint64(100+pass), uint64(rk), uint64(bk))
				row := int64(100 + pass)
				r.OnComplete = func(req *Request) {
					bi := rk*g.Banks + bk
					if firstDone[bi] == 0 {
						firstDone[bi] = row
					}
					order++
				}
				if !c.EnqueueRead(r) {
					t.Fatalf("enqueue rejected at rank %d bank %d pass %d", rk, bk, pass)
				}
			}
		}
	}
	eng.RunUntil(4_000_000)
	if c.Pending() != 0 {
		t.Fatalf("%d requests still pending", c.Pending())
	}
	for bi, row := range firstDone {
		if row != 100 {
			t.Errorf("bank %d: first completed row %d, want the older row 100", bi, row)
		}
	}
}

// runDeepSleepScenario drives a 4-rank LPDDR2 channel with deep sleep
// through: initial activity on every rank, a long idle spanning several
// tREFI (ranks enter deep power-down and must still be woken for each
// overdue refresh), then a read per rank that pays the deep-exit
// latency. It returns the channel and the completion cycle of the
// post-sleep reads.
func runDeepSleepScenario(t *testing.T, perCycle bool) (*dram.Channel, []sim.Cycle) {
	t.Helper()
	eng := &sim.Engine{}
	ch := dram.NewChannel(dram.LPDDR2Config(), 4, nil)
	ccfg := DefaultConfig(dram.LPDDR2)
	ccfg.DeepSleep = true
	ccfg.PerCycle = perCycle
	c := New(eng, ch, ccfg)
	c.Pool = &Pool{}

	g := ch.Cfg.Geom
	rankAddr := func(rk, row uint64) uint64 {
		return (row*4 + rk) * uint64(g.Banks) * uint64(g.ColsPerRow)
	}
	for rk := uint64(0); rk < 4; rk++ {
		rk := rk
		eng.ScheduleEventAt(sim.Cycle(1+rk), call(func() {
			r := c.Pool.Get()
			r.Addr = rankAddr(rk, 7)
			r.OnComplete = func(*Request) {}
			if !c.EnqueueRead(r) {
				t.Error("initial enqueue rejected")
			}
		}), nil)
	}

	tm := ch.Cfg.Timing
	idleEnd := tm.TREFI*3 + tm.TREFI/2 // midway between the 3rd and 4th refresh
	eng.RunUntil(idleEnd)
	for rk := 0; rk < 4; rk++ {
		if st := ch.PowerState(rk); st != dram.PSDeepPowerDown {
			t.Errorf("perCycle=%v: rank %d at cycle %d: state %v, want deep-powerdown",
				perCycle, rk, idleEnd, st)
		}
	}
	// Every rank must have been woken for each of its 3 elapsed
	// refresh deadlines despite deep sleep.
	if ch.Stat.Refreshes < 12 {
		t.Errorf("perCycle=%v: %d refreshes over 3.5 tREFI x 4 ranks, want >= 12",
			perCycle, ch.Stat.Refreshes)
	}
	if ch.Stat.WakeUps < 12 {
		t.Errorf("perCycle=%v: %d wake-ups, want >= 12", perCycle, ch.Stat.WakeUps)
	}

	done := make([]sim.Cycle, 4)
	eng.ScheduleEvent(0, call(func() {
		for rk := uint64(0); rk < 4; rk++ {
			rk := rk
			r := c.Pool.Get()
			r.Addr = rankAddr(rk, 9)
			r.OnComplete = func(req *Request) { done[rk] = req.DataEnd }
			if !c.EnqueueRead(r) {
				t.Error("post-sleep enqueue rejected")
			}
		}
	}), nil)
	eng.RunUntil(idleEnd + 200_000)
	minLatency := tm.TXP*4 + tm.TRCD + tm.TRL
	for rk := 0; rk < 4; rk++ {
		if done[rk] == 0 {
			t.Fatalf("perCycle=%v: rank %d post-sleep read never completed", perCycle, rk)
		}
		if done[rk]-idleEnd < minLatency {
			t.Errorf("perCycle=%v: rank %d woke too fast: latency %d < deep-exit floor %d",
				perCycle, rk, done[rk]-idleEnd, minLatency)
		}
	}
	return ch, done
}

// TestDeepSleepOverdueRefresh checks multi-rank refresh and deep
// power-down under skip ticking: a parked controller must still wake
// every sleeping rank for each refresh deadline, return it to deep
// sleep, and serve post-idle reads with the full exit latency — all at
// exactly the cycles the per-cycle reference produces.
func TestDeepSleepOverdueRefresh(t *testing.T) {
	refCh, refDone := runDeepSleepScenario(t, true)
	gotCh, gotDone := runDeepSleepScenario(t, false)
	for rk := range refDone {
		if refDone[rk] != gotDone[rk] {
			t.Errorf("rank %d completion diverged: per-cycle %d, skip %d",
				rk, refDone[rk], gotDone[rk])
		}
	}
	if refCh.Stat != gotCh.Stat {
		t.Errorf("channel stats diverged:\nper-cycle %+v\nskip      %+v", refCh.Stat, gotCh.Stat)
	}
}
