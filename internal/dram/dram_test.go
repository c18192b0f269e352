package dram

import (
	"strings"
	"testing"
	"testing/quick"

	"hetsim/internal/sim"
)

func TestKindString(t *testing.T) {
	if DDR3.String() != "DDR3" || LPDDR2.String() != "LPDDR2" || RLDRAM3.String() != "RLDRAM3" {
		t.Fatal("kind names wrong")
	}
	if !strings.Contains(Kind(9).String(), "9") {
		t.Fatal("unknown kind must include number")
	}
}

func TestTimingPresetsMatchTable2(t *testing.T) {
	d := DDR3Timing()
	if d.TRC != 160 {
		t.Errorf("DDR3 tRC = %d, want 160 (50ns)", d.TRC)
	}
	if d.TRCD != 44 {
		t.Errorf("DDR3 tRCD = %d, want 44 (13.5ns)", d.TRCD)
	}
	if d.TFAW != 128 {
		t.Errorf("DDR3 tFAW = %d, want 128 (40ns)", d.TFAW)
	}
	r := RLDRAM3Timing()
	if r.TRC != 39 {
		t.Errorf("RLDRAM3 tRC = %d, want 39 (12ns)", r.TRC)
	}
	if r.TFAW != 0 || r.TWTR != 0 {
		t.Error("RLDRAM3 must have no FAW or WTR constraint")
	}
	l := LPDDR2Timing()
	if l.TRC != 192 {
		t.Errorf("LPDDR2 tRC = %d, want 192 (60ns)", l.TRC)
	}
	if l.BusCycle != 8 {
		t.Errorf("LPDDR2 bus cycle = %d, want 8 (400MHz)", l.BusCycle)
	}
	// LPDDR2 transfers the same 64B line over a half-speed bus: burst
	// occupancy must be double DDR3's.
	if l.Burst != 2*d.Burst {
		t.Errorf("LPDDR2 burst %d vs DDR3 %d", l.Burst, d.Burst)
	}
	// Both parts model power-down exit; DDR3 uses fast-exit (DLL-on)
	// power-down, paying with higher standby current (see power
	// package) rather than latency.
	if l.TXP <= 0 || d.TXP <= 0 {
		t.Error("power-down exit latencies must be modelled")
	}
}

func TestGeometryCapacity(t *testing.T) {
	g := DDR3Geometry()
	// One rank must hold 2GB of data = 2^25 64-byte lines.
	if g.UnitsPerRank() != 1<<25 {
		t.Errorf("DDR3 rank lines = %d, want %d", g.UnitsPerRank(), 1<<25)
	}
	w := RLDRAM3WordGeometry()
	// The x9 critical sub-channel must hold word-0 of every line of one
	// line channel: 2^25 words.
	if w.UnitsPerRank() != 1<<25 {
		t.Errorf("RLDRAM3 word rank units = %d, want %d", w.UnitsPerRank(), 1<<25)
	}
}

func TestTable2Render(t *testing.T) {
	out := Table2()
	for _, want := range []string{"tRC", "tFAW", "DDR3", "RLDRAM3", "LPDDR2", "160", "39", "192"} {
		if !strings.Contains(out, want) {
			t.Errorf("Table2 missing %q", want)
		}
	}
}

func newDDR3(t *testing.T) *Channel {
	t.Helper()
	return NewChannel(DDR3Config(), 1, nil)
}

func TestActivateReadPrechargeFlow(t *testing.T) {
	ch := newDDR3(t)
	tm := ch.Cfg.Timing
	if ch.OpenRow(0, 0) != -1 {
		t.Fatal("bank must start precharged")
	}
	// CAS to a closed row must fail.
	if _, ok := ch.TryCAS(0, 0, 0, 5, AccessRead, false); ok {
		t.Fatal("CAS succeeded on closed row")
	}
	if !actOK(ch, 0, 0, 0, 5) {
		t.Fatal("ACT failed on idle bank")
	}
	if ch.OpenRow(0, 0) != 5 {
		t.Fatalf("open row = %d, want 5", ch.OpenRow(0, 0))
	}
	// Second ACT to same bank must fail (row open).
	if actOK(ch, tm.TRC, 0, 0, 6) {
		t.Fatal("ACT succeeded with row open")
	}
	// CAS before tRCD must fail.
	if _, ok := ch.TryCAS(tm.TRCD-1, 0, 0, 5, AccessRead, false); ok {
		t.Fatal("read before tRCD")
	}
	ds, ok := ch.TryCAS(tm.TRCD, 0, 0, 5, AccessRead, false)
	if !ok {
		t.Fatal("read at tRCD failed")
	}
	if want := tm.TRCD + tm.TRL; ds != want {
		t.Fatalf("data start = %d, want %d", ds, want)
	}
	// Precharge before tRAS must fail.
	if preOK(ch, tm.TRAS-1, 0, 0) {
		t.Fatal("precharge before tRAS")
	}
	if !preOK(ch, tm.TRAS, 0, 0) {
		t.Fatal("precharge at tRAS failed")
	}
	if ch.OpenRow(0, 0) != -1 {
		t.Fatal("row still open after precharge")
	}
	// ACT after PRE must respect both tRP and tRC.
	earliest := tm.TRAS + tm.TRP
	if tm.TRC > earliest {
		earliest = tm.TRC
	}
	if actOK(ch, earliest-1, 0, 0, 7) {
		t.Fatal("ACT before tRP/tRC")
	}
	if !actOK(ch, earliest, 0, 0, 7) {
		t.Fatal("ACT after tRP failed")
	}
	if ch.Stat.Acts != 2 || ch.Stat.Reads != 1 {
		t.Fatalf("stats acts=%d reads=%d", ch.Stat.Acts, ch.Stat.Reads)
	}
}

func TestRowHitIsFasterThanRowMiss(t *testing.T) {
	ch := newDDR3(t)
	tm := ch.Cfg.Timing
	actOK(ch, 0, 0, 0, 1)
	if _, ok := ch.TryCAS(tm.TRCD, 0, 0, 1, AccessRead, false); !ok {
		t.Fatal("first read failed")
	}
	// A row hit: CAS directly, gated only by tCCD and the data bus.
	hitAt := tm.TRCD + tm.TCCD
	if _, ok := ch.TryCAS(hitAt, 0, 0, 1, AccessRead, false); !ok {
		t.Fatal("row-hit read failed at tCCD")
	}
}

func TestAutoPrechargeCloses(t *testing.T) {
	ch := NewChannel(DDR3WordConfig(), 1, nil)
	tm := ch.Cfg.Timing
	actOK(ch, 0, 0, 0, 3)
	if _, ok := ch.TryCAS(tm.TRCD, 0, 0, 3, AccessRead, true); !ok {
		t.Fatal("read with auto-precharge failed")
	}
	if ch.OpenRow(0, 0) != -1 {
		t.Fatal("auto-precharge left row open")
	}
}

func TestWriteThenReadEnforcesTWTR(t *testing.T) {
	ch := newDDR3(t)
	tm := ch.Cfg.Timing
	actOK(ch, 0, 0, 0, 1)
	ds, ok := ch.TryCAS(tm.TRCD, 0, 0, 1, AccessWrite, false)
	if !ok {
		t.Fatal("write failed")
	}
	wEnd := ds + tm.Burst
	// A read before write-data-end + tWTR must fail.
	if _, ok := ch.TryCAS(wEnd+tm.TWTR-1, 0, 0, 1, AccessRead, false); ok {
		t.Fatal("read violated tWTR")
	}
	if _, ok := ch.TryCAS(wEnd+tm.TWTR, 0, 0, 1, AccessRead, false); !ok {
		t.Fatal("read at tWTR boundary failed")
	}
}

func TestFourActivateWindow(t *testing.T) {
	ch := newDDR3(t)
	tm := ch.Cfg.Timing
	now := sim.Cycle(0)
	// Issue 4 ACTs to different banks, spaced by tRRD.
	for b := 0; b < 4; b++ {
		if !actOK(ch, now, 0, b, 1) {
			t.Fatalf("ACT %d failed at %d", b, now)
		}
		now += tm.TRRD
	}
	// Fifth ACT must wait for the FAW window from the first ACT.
	if actOK(ch, now, 0, 4, 1) {
		t.Fatal("fifth ACT violated tFAW")
	}
	if !actOK(ch, tm.TFAW, 0, 4, 1) {
		t.Fatal("fifth ACT at tFAW failed")
	}
}

func TestRLDRAMAccess(t *testing.T) {
	ch := NewChannel(RLDRAM3WordConfig(), 1, nil)
	tm := ch.Cfg.Timing
	ds, ok := ch.TryAccess(0, 0, 0, AccessRead)
	if !ok {
		t.Fatal("RLDRAM access failed")
	}
	if ds != tm.TRL {
		t.Fatalf("data start = %d, want %d", ds, tm.TRL)
	}
	// Same bank again before tRC must fail.
	if _, ok := ch.TryAccess(tm.TRC-1, 0, 0, AccessRead); ok {
		t.Fatal("second access violated tRC")
	}
	if _, ok := ch.TryAccess(tm.TRC, 0, 0, AccessRead); !ok {
		t.Fatal("access at tRC failed")
	}
	// Different bank: gated only by tCCD (data bus) not tRC.
	if _, ok := ch.TryAccess(tm.TRC+tm.TCCD, 0, 1, AccessRead); !ok {
		t.Fatal("different-bank access failed")
	}
}

func TestRLDRAMMuchLowerBankTurnaround(t *testing.T) {
	// The core claim of §3: RLDRAM3 tRC is ~4x lower than DDR3.
	if r, d := RLDRAM3Timing().TRC, DDR3Timing().TRC; r*4 > d {
		t.Errorf("RLDRAM3 tRC %d not <= 1/4 of DDR3 %d", r, d)
	}
}

func TestTryAccessPanicsOnNonRLDRAM(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("TryAccess on DDR3 did not panic")
		}
	}()
	newDDR3(t).TryAccess(0, 0, 0, AccessRead)
}

func TestSharedCmdBusContention(t *testing.T) {
	// Two sub-channels share a command bus: the second access in the
	// same bus cycle must stall even though its data bus is free.
	bus := &CmdBus{}
	a := NewChannel(RLDRAM3WordConfig(), 1, bus)
	b := NewChannel(RLDRAM3WordConfig(), 1, bus)
	if _, ok := a.TryAccess(0, 0, 0, AccessRead); !ok {
		t.Fatal("first access failed")
	}
	if _, ok := b.TryAccess(0, 0, 0, AccessRead); ok {
		t.Fatal("command bus double-booked")
	}
	if _, ok := b.TryAccess(a.Cfg.Timing.BusCycle, 0, 0, AccessRead); !ok {
		t.Fatal("access after bus freed failed")
	}
	if bus.BusyCycles != 2*a.Cfg.Timing.BusCycle {
		t.Fatalf("cmd busy = %d", bus.BusyCycles)
	}
}

func TestDataBusSerializesBursts(t *testing.T) {
	ch := newDDR3(t)
	tm := ch.Cfg.Timing
	actOK(ch, 0, 0, 0, 1)
	actOK(ch, tm.TRRD, 0, 1, 2)
	t0 := tm.TRCD + tm.TRRD
	if _, ok := ch.TryCAS(t0, 0, 0, 1, AccessRead, false); !ok {
		t.Fatal("first read failed")
	}
	// Second CAS at tCCD: data start must not overlap the first burst.
	ds2, ok := ch.TryCAS(t0+tm.TCCD, 0, 1, 2, AccessRead, false)
	if !ok {
		t.Fatal("second read failed")
	}
	firstEnd := t0 + tm.TRL + tm.Burst
	if ds2 < firstEnd {
		t.Fatalf("bursts overlap: second data %d < first end %d", ds2, firstEnd)
	}
}

func TestRefreshLifecycle(t *testing.T) {
	ch := newDDR3(t)
	tm := ch.Cfg.Timing
	if ch.RefreshDue(0, 0) {
		t.Fatal("refresh due at time 0")
	}
	if !ch.RefreshDue(tm.TREFI, 0) {
		t.Fatal("refresh not due at tREFI")
	}
	if !refOK(ch, tm.TREFI, 0) {
		t.Fatal("refresh failed on idle rank")
	}
	if ch.Stat.Refreshes != 1 {
		t.Fatal("refresh not counted")
	}
	// During tRFC the rank must reject commands.
	if actOK(ch, tm.TREFI+tm.TRFC-1, 0, 0, 1) {
		t.Fatal("ACT during refresh")
	}
	if !actOK(ch, tm.TREFI+tm.TRFC, 0, 0, 1) {
		t.Fatal("ACT after refresh failed")
	}
	// RLDRAM3 never owes refresh.
	rl := NewChannel(RLDRAM3WordConfig(), 1, nil)
	if rl.RefreshDue(1<<40, 0) {
		t.Fatal("RLDRAM3 refresh due")
	}
}

func TestRefreshBlockedByOpenRow(t *testing.T) {
	ch := newDDR3(t)
	tm := ch.Cfg.Timing
	actOK(ch, 0, 0, 0, 1)
	if refOK(ch, tm.TREFI, 0) {
		t.Fatal("refresh with open row")
	}
}

func TestPowerDownLifecycle(t *testing.T) {
	ch := newDDR3(t)
	tm := ch.Cfg.Timing
	if ch.PowerState(0) != PSActive {
		t.Fatal("rank must start active")
	}
	if !ch.Sleep(100, 0, false) {
		t.Fatal("sleep on idle rank failed")
	}
	if ch.PowerState(0) != PSPowerDown {
		t.Fatal("not in powerdown")
	}
	// Commands must be rejected while asleep.
	if actOK(ch, 150, 0, 0, 1) {
		t.Fatal("ACT while asleep")
	}
	wake := ch.Wake(200, 0)
	if wake != 200+tm.TXP {
		t.Fatalf("wake at %d, want %d", wake, 200+tm.TXP)
	}
	if actOK(ch, wake-1, 0, 0, 1) {
		t.Fatal("ACT before wake complete")
	}
	if !actOK(ch, wake, 0, 0, 1) {
		t.Fatal("ACT after wake failed")
	}
	ch.Finalize(1000)
	if got := ch.StateCycles(0, PSPowerDown); got != 100 {
		t.Fatalf("powerdown residency = %d, want 100", got)
	}
	if got := ch.StateCycles(0, PSActive); got != 900 {
		t.Fatalf("active residency = %d, want 900", got)
	}
}

func TestDeepSleepSlowerExit(t *testing.T) {
	ch := newDDR3(t)
	ch.Sleep(0, 0, true)
	if ch.PowerState(0) != PSDeepPowerDown {
		t.Fatal("not in deep powerdown")
	}
	wake := ch.Wake(10, 0)
	if wake != 10+4*ch.Cfg.Timing.TXP {
		t.Fatalf("deep wake at %d", wake)
	}
}

func TestSleepRefusedWithOpenRowOrTraffic(t *testing.T) {
	ch := newDDR3(t)
	tm := ch.Cfg.Timing
	actOK(ch, 0, 0, 0, 1)
	if ch.Sleep(10, 0, false) {
		t.Fatal("slept with open row")
	}
	if _, ok := ch.TryCAS(tm.TRCD, 0, 0, 1, AccessRead, false); !ok {
		t.Fatal("read failed")
	}
	// Row still open right after the CAS: sleep must refuse.
	if ch.Sleep(tm.TRCD+1, 0, false) {
		t.Fatal("slept with open row after CAS")
	}
	if !preOK(ch, tm.TRAS, 0, 0) {
		t.Fatal("precharge failed")
	}
	// Data burst (ends at tRCD+tRL+burst) still in flight at tRAS+1?
	dataEnd := tm.TRCD + tm.TRL + tm.Burst
	if tm.TRAS+1 < dataEnd && ch.Sleep(tm.TRAS+1, 0, false) {
		t.Fatal("slept with data in flight")
	}
	if !ch.Sleep(dataEnd+100, 0, false) {
		t.Fatal("sleep on quiesced rank failed")
	}
}

// TestUtilization pins the bus-occupancy accounting Results.BusUtil is
// computed from: one CAS adds exactly one burst to Stat.DataBusy.
func TestUtilization(t *testing.T) {
	ch := newDDR3(t)
	tm := ch.Cfg.Timing
	actOK(ch, 0, 0, 0, 1)
	if _, ok := ch.TryCAS(tm.TRCD, 0, 0, 1, AccessRead, false); !ok {
		t.Fatal("read at tRCD failed")
	}
	if ch.Stat.DataBusy != tm.Burst {
		t.Fatalf("DataBusy = %d after one CAS, want burst %d", ch.Stat.DataBusy, tm.Burst)
	}
}

func TestWakeIdempotent(t *testing.T) {
	ch := newDDR3(t)
	if got := ch.Wake(50, 0); got != 50 {
		t.Fatalf("waking an awake rank returned %d", got)
	}
	if ch.Stat.WakeUps != 0 {
		t.Fatal("no-op wake counted")
	}
}

// Property: whatever interleaving of commands is attempted, two data
// bursts never overlap on one channel.
func TestNoDataBusOverlapProperty(t *testing.T) {
	type op struct {
		Dt   uint8
		Bank uint8
		Row  uint8
		Wr   bool
	}
	f := func(ops []op) bool {
		ch := newDDR3(t)
		tm := ch.Cfg.Timing
		now := sim.Cycle(0)
		type burst struct{ start, end sim.Cycle }
		var bursts []burst
		for _, o := range ops {
			now += sim.Cycle(o.Dt)
			bk := int(o.Bank) % ch.Cfg.Geom.Banks
			row := int64(o.Row)
			kind := AccessRead
			if o.Wr {
				kind = AccessWrite
			}
			if open := ch.OpenRow(0, bk); open == -1 {
				actOK(ch, now, 0, bk, row)
			} else if open == row {
				if ds, ok := ch.TryCAS(now, 0, bk, row, kind, false); ok {
					bursts = append(bursts, burst{ds, ds + tm.Burst})
				}
			} else {
				preOK(ch, now, 0, bk)
			}
		}
		for i := 1; i < len(bursts); i++ {
			if bursts[i].start < bursts[i-1].end {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: RLDRAM same-bank accesses are always >= tRC apart.
func TestRLDRAMTRCProperty(t *testing.T) {
	f := func(gaps []uint8) bool {
		ch := NewChannel(RLDRAM3WordConfig(), 1, nil)
		tm := ch.Cfg.Timing
		now := sim.Cycle(0)
		var times []sim.Cycle
		for _, g := range gaps {
			now += sim.Cycle(g)
			if _, ok := ch.TryAccess(now, 0, 0, AccessRead); ok {
				times = append(times, now)
			}
		}
		for i := 1; i < len(times); i++ {
			if times[i]-times[i-1] < tm.TRC {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestNewChannelValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("zero-rank channel did not panic")
		}
	}()
	NewChannel(DDR3Config(), 0, nil)
}

func TestHMCPresets(t *testing.T) {
	f := HMCFastWordConfig()
	l := HMCLPLineConfig()
	if !f.Unified() || !l.Unified() {
		t.Fatal("HMC configs must use the unified packet interface")
	}
	if f.Kind.String() != "HMC-fast" || l.Kind.String() != "HMC-lp" {
		t.Fatalf("HMC kind names: %s / %s", f.Kind, l.Kind)
	}
	// The fast cube's links run at double rate.
	if f.Timing.BusCycle*2 != l.Timing.BusCycle {
		t.Fatalf("bus cycles %d vs %d", f.Timing.BusCycle, l.Timing.BusCycle)
	}
	// Unified access works on an HMC channel.
	ch := NewChannel(f, 1, nil)
	ds, ok := ch.TryAccess(0, 0, 0, AccessRead)
	if !ok || ds != f.Timing.TRL {
		t.Fatalf("HMC access ds=%d ok=%v", ds, ok)
	}
}

func TestUnifiedPredicate(t *testing.T) {
	if DDR3WordConfig().Unified() {
		t.Fatal("DDR3 word channel is not unified (needs ACT+CAS)")
	}
	if !RLDRAM3WordConfig().Unified() {
		t.Fatal("RLDRAM3 word channel must be unified")
	}
	if DDR3Config().Unified() {
		t.Fatal("open-page DDR3 is not unified")
	}
}

func TestTRRDBetweenBanks(t *testing.T) {
	ch := newDDR3(t)
	tm := ch.Cfg.Timing
	if !actOK(ch, 0, 0, 0, 1) {
		t.Fatal("first ACT failed")
	}
	// Second ACT to a different bank before tRRD must fail.
	if actOK(ch, tm.TRRD-1, 0, 1, 1) {
		t.Fatal("ACT violated tRRD")
	}
	if !actOK(ch, tm.TRRD, 0, 1, 1) {
		t.Fatal("ACT at tRRD failed")
	}
}

func TestDataBusDirectionSwitchPenalty(t *testing.T) {
	ch := newDDR3(t)
	tm := ch.Cfg.Timing
	actOK(ch, 0, 0, 0, 1)
	ds, ok := ch.TryCAS(tm.TRCD, 0, 0, 1, AccessRead, false)
	if !ok {
		t.Fatal("read failed")
	}
	readEnd := ds + tm.Burst
	// A write CAS whose data would land immediately after the read
	// burst must be rejected: the turnaround (tRTRS) applies.
	tooEarly := readEnd - tm.TWL
	if tooEarly > tm.TRCD+tm.TCCD {
		if _, ok := ch.TryCAS(tooEarly, 0, 0, 1, AccessWrite, false); ok {
			t.Fatal("write data overlapped read-to-write turnaround")
		}
	}
	// After the turnaround it must succeed.
	lateEnough := readEnd + tm.TRTRS - tm.TWL
	if lateEnough < tm.TRCD+tm.TCCD {
		lateEnough = tm.TRCD + tm.TCCD
	}
	if _, ok := ch.TryCAS(lateEnough, 0, 0, 1, AccessWrite, false); !ok {
		t.Fatal("write after turnaround failed")
	}
}

func TestRefreshReanchorsWhenOverdue(t *testing.T) {
	ch := newDDR3(t)
	tm := ch.Cfg.Timing
	// Let many intervals pass without refreshing, then refresh once:
	// the next deadline must re-anchor to now+tREFI instead of
	// unleashing a storm of back-to-back refreshes.
	late := tm.TREFI * 10
	if !refOK(ch, late, 0) {
		t.Fatal("overdue refresh failed")
	}
	if ch.RefreshDue(late+tm.TRFC, 0) {
		t.Fatal("refresh due immediately after re-anchor")
	}
	if !ch.RefreshDue(late+tm.TREFI, 0) {
		t.Fatal("refresh not due one interval after re-anchor")
	}
}

func TestRankToRankSwitch(t *testing.T) {
	// Two ranks on one channel: back-to-back reads from different
	// ranks must leave a tRTRS bubble on the data bus.
	ch := NewChannel(DDR3Config(), 2, nil)
	tm := ch.Cfg.Timing
	actOK(ch, 0, 0, 0, 1)
	actOK(ch, tm.TRRD, 1, 0, 1)
	t0 := tm.TRCD + tm.TRRD
	ds1, ok := ch.TryCAS(t0, 0, 0, 1, AccessRead, false)
	if !ok {
		t.Fatal("rank 0 read failed")
	}
	// The controller retries each bus cycle; emulate that here.
	var ds2 sim.Cycle
	ok = false
	for t := t0 + tm.TCCD; t < t0+1000 && !ok; t += tm.BusCycle {
		ds2, ok = ch.TryCAS(t, 1, 0, 1, AccessRead, false)
	}
	if !ok {
		t.Fatal("rank 1 read never issued")
	}
	if gap := ds2 - (ds1 + tm.Burst); gap < tm.TRTRS {
		t.Fatalf("rank switch gap %d < tRTRS %d", gap, tm.TRTRS)
	}
}

func TestSleepWhileAsleepRefused(t *testing.T) {
	ch := newDDR3(t)
	if !ch.Sleep(10, 0, false) {
		t.Fatal("first sleep failed")
	}
	if ch.Sleep(20, 0, false) {
		t.Fatal("double sleep accepted")
	}
}

// actOK, preOK, refOK adapt the (next, ok) probe signatures back to the
// boolean form most timing tests assert on.
func actOK(ch *Channel, t sim.Cycle, rk, bk int, row int64) bool {
	_, ok := ch.TryActivate(t, rk, bk, row)
	return ok
}

func preOK(ch *Channel, t sim.Cycle, rk, bk int) bool {
	_, ok := ch.TryPrecharge(t, rk, bk)
	return ok
}

func refOK(ch *Channel, t sim.Cycle, rk int) bool {
	_, ok := ch.TryRefresh(t, rk)
	return ok
}

// TestHintExactness: every failed Try* probe returns the earliest cycle
// the same probe could succeed. For each blocked scenario the probe must
// still fail one cycle before its hint and succeed exactly at it — this
// is what lets the controller arm its next tick at the hint without ever
// issuing late (or early).
func TestHintExactness(t *testing.T) {
	exact := func(t *testing.T, name string, next sim.Cycle, probe func(sim.Cycle) bool) {
		t.Helper()
		if next <= 0 || next >= Never {
			t.Fatalf("%s: hint %d not a finite future cycle", name, next)
		}
		if probe(next - 1) {
			t.Fatalf("%s: probe succeeded at hint-1 (%d)", name, next-1)
		}
		if !probe(next) {
			t.Fatalf("%s: probe failed at its own hint (%d)", name, next)
		}
	}

	t.Run("cas-trcd", func(t *testing.T) {
		ch := newDDR3(t)
		mustAct(t, ch, 0, 0, 0, 5)
		next, ok := ch.TryCAS(1, 0, 0, 5, AccessRead, false)
		if ok {
			t.Fatal("CAS legal 1 cycle after ACT")
		}
		exact(t, "cas-trcd", next, func(at sim.Cycle) bool {
			_, ok := ch.TryCAS(at, 0, 0, 5, AccessRead, false)
			return ok
		})
	})

	t.Run("precharge-tras", func(t *testing.T) {
		ch := newDDR3(t)
		mustAct(t, ch, 0, 0, 0, 5)
		next, ok := ch.TryPrecharge(1, 0, 0)
		if ok {
			t.Fatal("PRE legal 1 cycle after ACT")
		}
		exact(t, "precharge-tras", next, func(at sim.Cycle) bool {
			_, ok := ch.TryPrecharge(at, 0, 0)
			return ok
		})
	})

	t.Run("activate-trp-trc", func(t *testing.T) {
		ch := newDDR3(t)
		tm := ch.Cfg.Timing
		mustAct(t, ch, 0, 0, 0, 5)
		if !preOK(ch, tm.TRAS, 0, 0) {
			t.Fatal("precharge at tRAS failed")
		}
		next, ok := ch.TryActivate(tm.TRAS+1, 0, 0, 6)
		if ok {
			t.Fatal("ACT legal right after PRE")
		}
		exact(t, "activate-trp-trc", next, func(at sim.Cycle) bool {
			_, ok := ch.TryActivate(at, 0, 0, 6)
			return ok
		})
	})

	t.Run("activate-trrd", func(t *testing.T) {
		ch := newDDR3(t)
		mustAct(t, ch, 0, 0, 0, 5)
		next, ok := ch.TryActivate(1, 0, 1, 5)
		if ok {
			t.Fatal("second ACT inside tRRD")
		}
		exact(t, "activate-trrd", next, func(at sim.Cycle) bool {
			_, ok := ch.TryActivate(at, 0, 1, 5)
			return ok
		})
	})

	t.Run("activate-tfaw", func(t *testing.T) {
		ch := newDDR3(t)
		tm := ch.Cfg.Timing
		at := sim.Cycle(0)
		for bk := 0; bk < 4; bk++ {
			for {
				if _, ok := ch.TryActivate(at, 0, bk, 5); ok {
					break
				}
				at++
			}
		}
		next, ok := ch.TryActivate(at+tm.TRRD, 0, 4, 5)
		if ok {
			t.Fatal("fifth ACT inside tFAW window")
		}
		exact(t, "activate-tfaw", next, func(c sim.Cycle) bool {
			_, ok := ch.TryActivate(c, 0, 4, 5)
			return ok
		})
	})

	t.Run("cas-twtr", func(t *testing.T) {
		ch := newDDR3(t)
		tm := ch.Cfg.Timing
		mustAct(t, ch, 0, 0, 0, 5)
		if _, ok := ch.TryCAS(tm.TRCD, 0, 0, 5, AccessWrite, false); !ok {
			t.Fatal("write at tRCD failed")
		}
		next, ok := ch.TryCAS(tm.TRCD+tm.BusCycle, 0, 0, 5, AccessRead, false)
		if ok {
			t.Fatal("read legal immediately after write burst start")
		}
		exact(t, "cas-twtr", next, func(at sim.Cycle) bool {
			_, ok := ch.TryCAS(at, 0, 0, 5, AccessRead, false)
			return ok
		})
	})

	t.Run("cas-tccd", func(t *testing.T) {
		// Every preset has tCCD equal to the burst, so the data bus
		// alone would give the same hint; a longer tCCD isolates it.
		cfg := DDR3Config()
		cfg.Timing.TCCD = 2 * cfg.Timing.Burst
		ch := NewChannel(cfg, 1, nil)
		tm := ch.Cfg.Timing
		mustAct(t, ch, 0, 0, 0, 5)
		if _, ok := ch.TryCAS(tm.TRCD, 0, 0, 5, AccessRead, false); !ok {
			t.Fatal("read at tRCD failed")
		}
		next, ok := ch.TryCAS(tm.TRCD+1, 0, 0, 5, AccessRead, false)
		if ok {
			t.Fatal("second read legal inside tCCD")
		}
		if want := tm.TRCD + tm.TCCD; next != want {
			t.Fatalf("hint %d, want tRCD+tCCD %d", next, want)
		}
		exact(t, "cas-tccd", next, func(at sim.Cycle) bool {
			_, ok := ch.TryCAS(at, 0, 0, 5, AccessRead, false)
			return ok
		})
	})

	t.Run("cas-trtrs", func(t *testing.T) {
		ch := NewChannel(DDR3Config(), 2, nil)
		tm := ch.Cfg.Timing
		mustAct(t, ch, 0, 0, 0, 5)
		mustAct(t, ch, tm.BusCycle, 1, 0, 5)
		t0 := tm.BusCycle + tm.TRCD
		ds, ok := ch.TryCAS(t0, 0, 0, 5, AccessRead, false)
		if !ok {
			t.Fatal("rank 0 read failed")
		}
		next, ok := ch.TryCAS(t0+1, 1, 0, 5, AccessRead, false)
		if ok {
			t.Fatal("rank 1 read legal right after a rank 0 read")
		}
		// The rank switch, not tCCD (per rank), is what binds here.
		if want := ds + tm.Burst + tm.TRTRS - tm.TRL; next != want {
			t.Fatalf("hint %d, want burst end + tRTRS - tRL = %d", next, want)
		}
		exact(t, "cas-trtrs", next, func(at sim.Cycle) bool {
			_, ok := ch.TryCAS(at, 1, 0, 5, AccessRead, false)
			return ok
		})
	})

	t.Run("access-trc", func(t *testing.T) {
		ch := NewChannel(RLDRAM3WordConfig(), 1, nil)
		tm := ch.Cfg.Timing
		if _, ok := ch.TryAccess(0, 0, 0, AccessRead); !ok {
			t.Fatal("first access failed")
		}
		next, ok := ch.TryAccess(1, 0, 0, AccessRead)
		if ok {
			t.Fatal("same-bank access legal inside tRC")
		}
		if next != tm.TRC {
			t.Fatalf("hint %d, want tRC %d", next, tm.TRC)
		}
		exact(t, "access-trc", next, func(at sim.Cycle) bool {
			_, ok := ch.TryAccess(at, 0, 0, AccessRead)
			return ok
		})
	})

	t.Run("activate-trfc", func(t *testing.T) {
		ch := newDDR3(t)
		tm := ch.Cfg.Timing
		due := ch.NextRefreshDue(0)
		if !refOK(ch, due, 0) {
			t.Fatal("refresh failed at its due cycle on an idle rank")
		}
		next, ok := ch.TryActivate(due+1, 0, 0, 5)
		if ok {
			t.Fatal("ACT legal during refresh")
		}
		if want := due + tm.TRFC; next != want {
			t.Fatalf("hint %d, want refresh end %d", next, want)
		}
		exact(t, "activate-trfc", next, func(at sim.Cycle) bool {
			_, ok := ch.TryActivate(at, 0, 0, 5)
			return ok
		})
	})

	t.Run("refresh-after-precharge", func(t *testing.T) {
		ch := newDDR3(t)
		tm := ch.Cfg.Timing
		mustAct(t, ch, 0, 0, 0, 5)
		if !preOK(ch, tm.TRAS, 0, 0) {
			t.Fatal("precharge at tRAS failed")
		}
		next, ok := ch.TryRefresh(tm.TRAS+1, 0)
		if ok {
			t.Fatal("refresh legal before tRP settles")
		}
		exact(t, "refresh-after-precharge", next, func(at sim.Cycle) bool {
			_, ok := ch.TryRefresh(at, 0)
			return ok
		})
	})

	t.Run("wake-latency", func(t *testing.T) {
		ch := newDDR3(t)
		if !ch.Sleep(10, 0, false) {
			t.Fatal("sleep refused")
		}
		wake := ch.Wake(20, 0)
		next, ok := ch.TryActivate(21, 0, 0, 5)
		if ok {
			t.Fatal("ACT legal during power-down exit")
		}
		if next != wake {
			t.Fatalf("hint %d, want wake completion %d", next, wake)
		}
		exact(t, "wake-latency", next, func(at sim.Cycle) bool {
			_, ok := ch.TryActivate(at, 0, 0, 5)
			return ok
		})
	})

	t.Run("next-refresh-due", func(t *testing.T) {
		ch := newDDR3(t)
		tm := ch.Cfg.Timing
		due := ch.NextRefreshDue(0)
		if due != tm.TREFI {
			t.Fatalf("first refresh due at %d, want tREFI %d", due, tm.TREFI)
		}
		if ch.RefreshDue(due-1, 0) {
			t.Fatal("refresh due one cycle early")
		}
		if !ch.RefreshDue(due, 0) {
			t.Fatal("refresh not due at NextRefreshDue")
		}
		if _, ok := ch.TryRefresh(due, 0); !ok {
			t.Fatal("refresh failed at its due cycle on an idle rank")
		}
		if got := ch.NextRefreshDue(0); got != due+tm.TREFI {
			t.Fatalf("next due %d after refresh, want %d", got, due+tm.TREFI)
		}
	})
}

// mustAct activates (rk, bk, row) at t or fails the test.
func mustAct(t *testing.T, ch *Channel, at sim.Cycle, rk, bk int, row int64) {
	t.Helper()
	if !actOK(ch, at, rk, bk, row) {
		t.Fatalf("ACT r%d b%d row%d at %d failed", rk, bk, row, at)
	}
}
