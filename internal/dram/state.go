package dram

import "hetsim/internal/sim"

// PowerState is the coarse power mode of a rank, tracked for the energy
// model. Active covers both active- and precharge-standby; PowerDown is
// the fast-exit precharge power-down mode; DeepPowerDown is the
// self-refresh-class deep sleep used by the Malladi-style LPDRAM variant
// of §7.2.
type PowerState int

// Rank power modes.
const (
	PSActive PowerState = iota
	PSPowerDown
	PSDeepPowerDown
	numPowerStates
)

// String names the power state.
func (p PowerState) String() string {
	switch p {
	case PSActive:
		return "active"
	case PSPowerDown:
		return "powerdown"
	case PSDeepPowerDown:
		return "deep-powerdown"
	default:
		return "unknown"
	}
}

// bank is the per-bank row-buffer state machine.
type bank struct {
	openRow   int64 // -1 when precharged
	canActAt  sim.Cycle
	canReadAt sim.Cycle
	canPreAt  sim.Cycle
}

func (b *bank) reset() { b.openRow = -1 }

// activate opens row at time t.
func (b *bank) activate(t sim.Cycle, tm *Timing, row int64) {
	b.openRow = row
	b.canReadAt = t + tm.TRCD
	b.canPreAt = t + tm.TRAS
	b.canActAt = t + tm.TRC
}

// precharge closes the open row at time t.
func (b *bank) precharge(t sim.Cycle, tm *Timing) {
	b.openRow = -1
	if t+tm.TRP > b.canActAt {
		b.canActAt = t + tm.TRP
	}
}

// rank aggregates the banks sharing FAW/tRRD/tCCD constraints plus the
// power-state machine and refresh bookkeeping.
type rank struct {
	banks []bank

	fawRing [4]sim.Cycle
	fawIdx  int

	nextCASAt        sim.Cycle // tCCD
	nextActAt        sim.Cycle // tRRD
	lastWriteDataEnd sim.Cycle // for tWTR
	busyUntil        sim.Cycle // latest in-flight data end, gates sleep

	power      PowerState
	stateSince sim.Cycle
	wakeAt     sim.Cycle // when exiting power-down completes

	refreshDueAt sim.Cycle
	refreshUntil sim.Cycle

	stateCycles [numPowerStates]sim.Cycle
}

// init prepares a zero rank in place. banks is this rank's slice of the
// channel's shared bank arena (see Channel.bankArena).
func (r *rank) init(banks []bank, tm *Timing) {
	r.banks = banks
	for i := range r.banks {
		r.banks[i].reset()
	}
	for i := range r.fawRing {
		r.fawRing[i] = -1 << 60 // no activates in the window yet
	}
	r.refreshDueAt = tm.TREFI // 0 tREFI means refresh never due (checked by caller)
}

// awakeAt returns the earliest cycle commands may issue to this rank:
// the later of power-down exit and refresh completion, or Never while
// the rank is powered down (leaving needs an external Wake call, which
// every enqueue and refresh pass performs).
func (r *rank) awakeAt() sim.Cycle {
	if r.power != PSActive {
		return Never
	}
	return maxc(r.wakeAt, r.refreshUntil)
}

// fawReadyAt returns the earliest cycle a fourth-activate window permits
// another ACT (zero when tFAW is unmodelled).
func (r *rank) fawReadyAt(tFAW sim.Cycle) sim.Cycle {
	if tFAW == 0 {
		return 0
	}
	return r.fawRing[r.fawIdx] + tFAW
}

// transition moves the rank to power state s at time t, accumulating
// residency in the previous state.
func (r *rank) transition(t sim.Cycle, s PowerState) {
	if t > r.stateSince {
		r.stateCycles[r.power] += t - r.stateSince
	}
	r.power = s
	r.stateSince = t
}

// finalize flushes residency accounting at the end of simulation.
func (r *rank) finalize(t sim.Cycle) {
	if t > r.stateSince {
		r.stateCycles[r.power] += t - r.stateSince
		r.stateSince = t
	}
}

// recordAct pushes an ACT time into the FAW ring.
func (r *rank) recordAct(t sim.Cycle) {
	r.fawRing[r.fawIdx] = t
	r.fawIdx = (r.fawIdx + 1) % len(r.fawRing)
}

// allBanksIdle reports whether every bank is precharged (needed for
// refresh and power-down entry).
func (r *rank) allBanksIdle() bool {
	for i := range r.banks {
		if r.banks[i].openRow != -1 {
			return false
		}
	}
	return true
}
