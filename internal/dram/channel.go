package dram

import "hetsim/internal/sim"

// CmdBus is an address/command bus. Normally each channel owns one
// privately, but the aggregated critical-word channel of §4.2.4 shares a
// single double-pumped command bus between four x9 data sub-channels;
// those sub-channels are modelled as four Channels holding the same
// *CmdBus. One command occupies the bus for one bus cycle.
type CmdBus struct {
	freeAt     sim.Cycle
	BusyCycles sim.Cycle
}

// reserve claims the bus for width cycles starting at t.
func (c *CmdBus) reserve(t, width sim.Cycle) {
	c.freeAt = t + width
	c.BusyCycles += width
}

// Never is the next-ready value of a command blocked on something other
// than time: a bank that must be precharged first, a rank that needs an
// external Wake, a device without refresh. Waiting until Never is never
// correct — the blocking condition is cleared by another command or an
// external call, both of which re-probe.
const Never = sim.Cycle(1<<62 - 1)

// maxc is the saturating max used to fold constraint deadlines.
func maxc(a, b sim.Cycle) sim.Cycle {
	if b > a {
		return b
	}
	return a
}

// Stats aggregates the activity counters the power model consumes.
type Stats struct {
	Acts       uint64
	Reads      uint64
	Writes     uint64
	Refreshes  uint64
	DataBusy   sim.Cycle
	WakeUps    uint64
	SleepEntry uint64
}

// AccessKind distinguishes reads from writes at the channel interface.
type AccessKind int

// Channel access kinds.
const (
	AccessRead AccessKind = iota
	AccessWrite
)

// Channel is one DRAM data channel: a set of ranks behind one data bus
// and (usually) one command bus. All methods take the current time; Try*
// methods check every timing constraint and either apply the command's
// side effects and return true, or change nothing and return false.
type Channel struct {
	Cfg Config
	Cmd *CmdBus

	// ranks is a value slice, and every rank's banks are carved from the
	// single bankArena allocation below, so the whole channel's timing
	// state is one contiguous block: the issue loop's bank scans stride
	// through adjacent cache lines instead of chasing per-rank pointers.
	ranks     []rank
	bankArena []bank

	dataFreeAt    sim.Cycle
	lastDataRank  int
	lastDataWrite bool

	Stat Stats
}

// NewChannel builds a channel with nRanks ranks of cfg devices. A nil
// shared command bus gives the channel a private one.
func NewChannel(cfg Config, nRanks int, shared *CmdBus) *Channel {
	if nRanks <= 0 {
		panic("dram: channel needs at least one rank")
	}
	if shared == nil {
		shared = &CmdBus{}
	}
	ch := &Channel{Cfg: cfg, Cmd: shared, lastDataRank: -1}
	ch.ranks = make([]rank, nRanks)
	ch.bankArena = make([]bank, nRanks*cfg.Geom.Banks)
	for i := range ch.ranks {
		banks := ch.bankArena[i*cfg.Geom.Banks : (i+1)*cfg.Geom.Banks : (i+1)*cfg.Geom.Banks]
		ch.ranks[i].init(banks, &ch.Cfg.Timing)
	}
	return ch
}

// Ranks reports the number of ranks.
func (ch *Channel) Ranks() int { return len(ch.ranks) }

// OpenRow returns the open row of a bank, or -1 if precharged.
func (ch *Channel) OpenRow(rk, bk int) int64 {
	return ch.ranks[rk].banks[bk].openRow
}

// claimData reserves the data bus for one burst starting at start.
func (ch *Channel) claimData(start sim.Cycle, rk int, write bool) {
	ch.dataFreeAt = start + ch.Cfg.Timing.Burst
	ch.lastDataRank = rk
	ch.lastDataWrite = write
	ch.Stat.DataBusy += ch.Cfg.Timing.Burst
	r := &ch.ranks[rk]
	if ch.dataFreeAt > r.busyUntil {
		r.busyUntil = ch.dataFreeAt
	}
}

// casFloor returns the earliest CAS command time the data bus permits
// for an access of the given direction on rank rk: the end of the last
// burst, plus tRTRS on a rank or direction switch, less CAS latency.
func (ch *Channel) casFloor(rk int, write bool) sim.Cycle {
	tm := &ch.Cfg.Timing
	free := ch.dataFreeAt
	if ch.lastDataRank >= 0 && (rk != ch.lastDataRank || write != ch.lastDataWrite) {
		free += tm.TRTRS
	}
	if write {
		return free - tm.TWL
	}
	return free - tm.TRL
}

// TryActivate issues ACT(row) to a bank. On failure nothing changes and
// next reports the earliest cycle the same ACT could succeed (Never when
// it is blocked on bank state rather than time: the row buffer holds
// another row and must be precharged first).
func (ch *Channel) TryActivate(t sim.Cycle, rk, bk int, row int64) (next sim.Cycle, ok bool) {
	tm := &ch.Cfg.Timing
	r := &ch.ranks[rk]
	b := &r.banks[bk]
	next = maxc(t, r.awakeAt())
	next = maxc(next, r.nextActAt)
	next = maxc(next, r.fawReadyAt(tm.TFAW))
	next = maxc(next, ch.Cmd.freeAt)
	next = maxc(next, b.canActAt)
	if b.openRow != -1 {
		next = Never
	}
	if next > t {
		return next, false
	}
	ch.Cmd.reserve(t, tm.BusCycle)
	b.activate(t, tm, row)
	r.recordAct(t)
	r.nextActAt = t + tm.TRRD
	ch.Stat.Acts++
	return 0, true
}

// TryPrecharge issues PRE to a bank; next follows the TryActivate
// contract (Never = the bank is already precharged).
func (ch *Channel) TryPrecharge(t sim.Cycle, rk, bk int) (next sim.Cycle, ok bool) {
	r := &ch.ranks[rk]
	b := &r.banks[bk]
	next = maxc(t, r.awakeAt())
	next = maxc(next, ch.Cmd.freeAt)
	next = maxc(next, b.canPreAt)
	if b.openRow == -1 {
		next = Never
	}
	if next > t {
		return next, false
	}
	ch.Cmd.reserve(t, ch.Cfg.Timing.BusCycle)
	b.precharge(t, &ch.Cfg.Timing)
	return 0, true
}

// TryCAS issues a column read or write to an open row. autoPre applies
// the close-page auto-precharge. On success the first return value is
// the cycle the first data beat appears on the bus; on failure it is the
// earliest retry cycle (Never when the open row does not match — a
// precharge/activate sequence must run first).
func (ch *Channel) TryCAS(t sim.Cycle, rk, bk int, row int64, kind AccessKind, autoPre bool) (dataStart sim.Cycle, ok bool) {
	tm := &ch.Cfg.Timing
	r := &ch.ranks[rk]
	b := &r.banks[bk]
	write := kind == AccessWrite
	next := maxc(t, r.awakeAt())
	next = maxc(next, r.nextCASAt)
	if !write {
		next = maxc(next, r.lastWriteDataEnd+tm.TWTR)
		next = maxc(next, b.canReadAt)
	}
	next = maxc(next, ch.Cmd.freeAt)
	// The data bus frees independently of the command time: a CAS at t'
	// puts data on the bus at t'+lat, so t' ≥ earliest-lat.
	next = maxc(next, ch.casFloor(rk, write))
	if b.openRow != row {
		next = Never
	}
	if next > t {
		return next, false
	}
	lat := tm.TRL
	if write {
		lat = tm.TWL
	}
	dataStart = t + lat
	ch.Cmd.reserve(t, tm.BusCycle)
	r.nextCASAt = t + tm.TCCD
	ch.claimData(dataStart, rk, write)
	dataEnd := dataStart + tm.Burst
	if write {
		r.lastWriteDataEnd = dataEnd
		if dataEnd+tm.TWR > b.canPreAt {
			b.canPreAt = dataEnd + tm.TWR
		}
		ch.Stat.Writes++
	} else {
		if t+tm.TRTP > b.canPreAt {
			b.canPreAt = t + tm.TRTP
		}
		ch.Stat.Reads++
	}
	if autoPre {
		pre := b.canPreAt
		if pre < t {
			pre = t
		}
		b.openRow = -1
		if pre+tm.TRP > b.canActAt {
			b.canActAt = pre + tm.TRP
		}
	}
	return dataStart, true
}

// TryAccess issues an RLDRAM3-style unified access: the single command
// carries the whole address, the array access and implicit precharge are
// gated only by tRC. Valid only for RLDRAM3 channels. The first return
// value follows the TryCAS contract (data start on success, earliest
// retry cycle on failure).
func (ch *Channel) TryAccess(t sim.Cycle, rk, bk int, kind AccessKind) (dataStart sim.Cycle, ok bool) {
	if !ch.Cfg.Unified() {
		panic("dram: TryAccess on non-unified channel " + ch.Cfg.Kind.String())
	}
	tm := &ch.Cfg.Timing
	r := &ch.ranks[rk]
	b := &r.banks[bk]
	write := kind == AccessWrite
	next := maxc(t, r.awakeAt())
	next = maxc(next, r.nextCASAt)
	next = maxc(next, b.canActAt)
	next = maxc(next, ch.Cmd.freeAt)
	next = maxc(next, ch.casFloor(rk, write))
	if next > t {
		return next, false
	}
	lat := tm.TRL
	if write {
		lat = tm.TWL
	}
	dataStart = t + lat
	ch.Cmd.reserve(t, tm.BusCycle)
	b.canActAt = t + tm.TRC
	r.nextCASAt = t + tm.TCCD
	ch.claimData(dataStart, rk, write)
	if write {
		ch.Stat.Writes++
	} else {
		ch.Stat.Reads++
	}
	ch.Stat.Acts++ // every RLDRAM access activates its small array
	return dataStart, true
}

// RefreshDue reports whether rank rk owes a refresh at time t. Channels
// whose devices have no modelled refresh (RLDRAM3) never owe one.
func (ch *Channel) RefreshDue(t sim.Cycle, rk int) bool {
	if ch.Cfg.Timing.TREFI == 0 {
		return false
	}
	return t >= ch.ranks[rk].refreshDueAt
}

// NextRefreshDue reports the exact cycle rank rk's next refresh falls
// due (Never for devices without modelled refresh). Unlike the RefreshDue
// predicate this lets callers arm a wakeup on the real deadline instead
// of polling one tREFI out.
func (ch *Channel) NextRefreshDue(rk int) sim.Cycle {
	if ch.Cfg.Timing.TREFI == 0 {
		return Never
	}
	return ch.ranks[rk].refreshDueAt
}

// TryRefresh issues an all-bank refresh. All banks must be precharged.
// On failure next covers only the *timing* constraints (power-state
// wake, command bus, tRP settling); a next ≤ t means the refresh is
// blocked on open banks, which the caller must precharge first.
func (ch *Channel) TryRefresh(t sim.Cycle, rk int) (next sim.Cycle, ok bool) {
	tm := &ch.Cfg.Timing
	r := &ch.ranks[rk]
	if tm.TREFI == 0 {
		return Never, false
	}
	next = maxc(t, r.awakeAt())
	next = maxc(next, ch.Cmd.freeAt)
	idle := true
	for i := range r.banks {
		if r.banks[i].openRow != -1 {
			idle = false
			continue
		}
		next = maxc(next, r.banks[i].canActAt) // recent precharge must settle (tRP)
	}
	if !idle || next > t {
		return next, false
	}
	ch.Cmd.reserve(t, tm.BusCycle)
	r.refreshUntil = t + tm.TRFC
	r.refreshDueAt += tm.TREFI
	if r.refreshDueAt <= t { // badly overdue: re-anchor to avoid a refresh storm
		r.refreshDueAt = t + tm.TREFI
	}
	for i := range r.banks {
		if r.refreshUntil > r.banks[i].canActAt {
			r.banks[i].canActAt = r.refreshUntil
		}
	}
	ch.Stat.Refreshes++
	return 0, true
}

// PowerState reports rank rk's current power mode.
func (ch *Channel) PowerState(rk int) PowerState { return ch.ranks[rk].power }

// Sleep moves an idle rank into power-down (deep selects the
// self-refresh-class mode of §7.2). It reports whether the transition
// happened; a rank with open rows or in-flight data refuses.
func (ch *Channel) Sleep(t sim.Cycle, rk int, deep bool) bool {
	r := &ch.ranks[rk]
	if r.power != PSActive || !r.allBanksIdle() || t < r.busyUntil || t < r.wakeAt {
		return false
	}
	st := PSPowerDown
	if deep {
		st = PSDeepPowerDown
	}
	r.transition(t, st)
	ch.Stat.SleepEntry++
	return true
}

// Wake begins power-down exit; commands become legal at the returned
// cycle. Waking an awake rank is a no-op returning t.
func (ch *Channel) Wake(t sim.Cycle, rk int) sim.Cycle {
	r := &ch.ranks[rk]
	if r.power == PSActive {
		if r.wakeAt > t {
			return r.wakeAt
		}
		return t
	}
	exit := ch.Cfg.Timing.TXP
	if r.power == PSDeepPowerDown {
		exit *= 4
	}
	r.transition(t, PSActive)
	r.wakeAt = t + exit
	ch.Stat.WakeUps++
	return r.wakeAt
}

// Finalize flushes power-state residency accounting at end of run.
func (ch *Channel) Finalize(t sim.Cycle) {
	for i := range ch.ranks {
		ch.ranks[i].finalize(t)
	}
}

// StateCycles reports cycles rank rk spent in state s (after Finalize).
func (ch *Channel) StateCycles(rk int, s PowerState) sim.Cycle {
	return ch.ranks[rk].stateCycles[s]
}
