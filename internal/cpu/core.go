// Package cpu models the out-of-order cores of Table 1 as ROB-occupancy
// limit studies: a 64-entry reorder buffer with 4-wide fetch/dispatch/
// retire, single-cycle ALU operations, posted stores, and loads that
// resolve through a cache/memory port. What the model captures — and
// what the paper's mechanism needs — is exactly when the ROB head stalls
// on a missing load and when the returning (critical) word un-stalls it,
// including pointer-chase serialization where the next load's address
// depends on the previous load's data.
package cpu

import (
	"fmt"

	"hetsim/internal/sim"
	"hetsim/internal/telemetry"
)

// MemOp is one memory instruction in a workload trace, preceded by Gap
// plain ALU instructions.
type MemOp struct {
	Gap     int
	Addr    uint64
	Store   bool
	DepPrev bool // address depends on the previous load (pointer chase)
}

// Trace is an infinite instruction stream.
type Trace interface {
	Next() MemOp
}

// AccessStatus classifies a port access.
type AccessStatus int

// Access outcomes.
const (
	AccessL1Hit AccessStatus = iota
	AccessL2Hit
	AccessMiss  // wake() will fire when the needed word arrives
	AccessRetry // structural hazard (MSHR/queue full): try again later
)

// Port is the cache hierarchy as seen by one core. For AccessMiss the
// port must eventually call wake (from engine context). Stores never
// take a wake callback (they are posted).
type Port interface {
	Access(coreID int, addr uint64, store bool, wake func()) AccessStatus
}

// Config sizes the core (Table 1 defaults via DefaultConfig).
type Config struct {
	ROBSize   int
	Width     int
	L1Latency sim.Cycle
	L2Latency sim.Cycle
}

// DefaultConfig is the Table 1 core: 64-entry ROB, 4-wide, 1-cycle L1,
// 10-cycle L2.
func DefaultConfig() Config {
	return Config{ROBSize: 64, Width: 4, L1Latency: 1, L2Latency: 10}
}

// Validate rejects core parameters New would refuse, as a clean error
// callers can surface before construction.
func (c Config) Validate() error {
	if c.ROBSize <= 0 {
		return fmt.Errorf("cpu: non-positive ROB size %d", c.ROBSize)
	}
	if c.Width <= 0 {
		return fmt.Errorf("cpu: non-positive dispatch width %d", c.Width)
	}
	if c.L1Latency < 0 || c.L2Latency < 0 {
		return fmt.Errorf("cpu: negative cache latency (l1=%d l2=%d)", c.L1Latency, c.L2Latency)
	}
	return nil
}

// WaitForever is the wake time reported by a core that can make no
// progress until a memory response arrives.
const WaitForever = sim.Cycle(1<<62 - 1)

// ROB entry flag bits, one byte per slot in the robFlags column.
const (
	robLoad     uint8 = 1 << iota // the entry is a load
	robWaiting                    // load miss outstanding
	robResolved                   // load data availability known
)

// loadRef identifies a load by ROB slot and generation. A generation
// mismatch means the referenced load has retired and its slot was
// recycled — its data has long been available.
type loadRef struct {
	slot int32
	gen  uint64
}

// noLoad is the empty reference (before any load has dispatched).
var noLoad = loadRef{slot: -1}

// Stats aggregates per-core performance counters.
type Stats struct {
	Retired     uint64
	Loads       uint64
	Stores      uint64
	LoadMisses  uint64 // LLC misses (port returned AccessMiss)
	RetryStalls uint64
	DepStalls   uint64
}

// Core is one simulated core. Drive it with Step; the return value is
// the next cycle the core needs stepping (WaitForever = wake me on a
// memory response). WakePending reports an intervening wake, and
// Sync(t) brings Stat to cycle t before anything reads it.
type Core struct {
	ID   int
	Cfg  Config
	Port Port

	trace Trace

	// The ROB is stored as parallel arrays (SoA) indexed by slot. Every
	// stepped cycle retire and dispatch walk the ring sequentially, so
	// splitting the columns keeps those walks dense: one cache line of
	// robComplete covers eight consecutive slots where the old 40-byte
	// struct-per-entry layout spanned lines. robFlags holds the
	// robLoad/robWaiting/robResolved bits; robComplete is when the entry
	// finishes executing (valid while robWaiting is clear); robReady is
	// when a load's data becomes usable by dependents; robGen is bumped
	// when a load retires, so loadRefs to it read as retired. A retiring
	// load's flags are cleared, so a free slot never holds load bits and
	// a plain entry dispatched into it writes only robComplete.
	robFlags    []uint8
	robComplete []sim.Cycle
	robReady    []sim.Cycle
	robGen      []uint64
	head        int
	count       int

	// loadQ holds the ROB slots of the loadsInROB loads, oldest first,
	// as a ring from loadQHead: the in-flight stretch visits loads, not
	// every entry.
	loadQ     []int32
	loadQHead int

	// resumeAt is the cycle after the last in-flight stretch. A re-step
	// before it (a wake System.drive delivers mid-stretch) changes no
	// state: it only re-answers when the stretch's last cycle would
	// want the next step, now that the wake has resolved a load.
	// credited is the first stretch cycle whose retirements Stat does
	// not count yet; Sync moves it towards resumeAt.
	resumeAt sim.Cycle
	credited sim.Cycle

	pendingGap int
	nextOp     MemOp
	haveOp     bool

	lastLoad loadRef

	// wakeFns holds one preallocated wake closure per ROB slot so that
	// issuing a load performs no allocation.
	wakeFns []func()

	wakePending bool

	// WakeHook, when set, is invoked on every memory-response wake, so
	// a driver folding many cores can notice "some core woke" without
	// polling each one. Wakes arrive only from engine dispatch context.
	WakeHook func()

	// waitingMisses counts loads with a memory response outstanding —
	// the watchdog's view of whether a silent hang is a lost wake.
	waitingMisses int

	// loadsInROB counts load entries currently between head and tail,
	// which is loadQ's length: the loads an in-flight stretch checks.
	loadsInROB int

	// exact disables the in-flight stretch so every cycle is stepped
	// individually. Tests set it to build the per-cycle reference of
	// the batching differentials; production code never does.
	exact bool

	// Steps counts the Step calls that did work (re-steps inside an
	// in-flight stretch are not counted): the core model's exact
	// host-work counter. It is a plain field, outside Stat and the
	// metric registry, so removing steps moves no simulated byte.
	Steps uint64

	Stat Stats
}

// New builds a core reading trace through port.
func New(id int, cfg Config, trace Trace, port Port) *Core {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	c := &Core{ID: id, Cfg: cfg, Port: port, trace: trace,
		robFlags:    make([]uint8, cfg.ROBSize),
		robComplete: make([]sim.Cycle, cfg.ROBSize),
		robReady:    make([]sim.Cycle, cfg.ROBSize),
		robGen:      make([]uint64, cfg.ROBSize),
		loadQ:       make([]int32, cfg.ROBSize),
		lastLoad:    noLoad}
	c.wakeFns = make([]func(), cfg.ROBSize)
	for i := range c.wakeFns {
		slot := i
		c.wakeFns[i] = func() { c.wakeSlot(slot) }
	}
	return c
}

// loadReady reports whether the referenced load's data is usable at now.
func (c *Core) loadReady(ref loadRef, now sim.Cycle) bool {
	if ref.slot < 0 {
		return true
	}
	if c.robGen[ref.slot] != ref.gen {
		return true // the load retired; its slot was recycled
	}
	return c.robFlags[ref.slot]&robResolved != 0 && now >= c.robReady[ref.slot]
}

// loadResolved reports whether the referenced load's completion time is
// known (even if still in the future).
func (c *Core) loadResolved(ref loadRef) bool {
	if ref.slot < 0 {
		return true
	}
	return c.robGen[ref.slot] != ref.gen || c.robFlags[ref.slot]&robResolved != 0
}

// WakePending reports (and clears) whether a memory response arrived
// since the last Step, requiring an immediate re-step.
func (c *Core) WakePending() bool {
	w := c.wakePending
	c.wakePending = false
	return w
}

// slotOf maps the i-th oldest ROB position to its slot index. A compare
// instead of a modulo: i is always < the ROB size, so one wrap suffices,
// and integer division is too slow for a loop this hot.
func (c *Core) slotOf(i int) int {
	s := c.head + i
	if s >= len(c.robFlags) {
		s -= len(c.robFlags)
	}
	return s
}

// position is a ROB slot's distance from the head (0 = oldest).
func (c *Core) position(slot int) int {
	p := slot - c.head
	if p < 0 {
		p += len(c.robFlags)
	}
	return p
}

// Step advances the core from cycle now and returns the next cycle the
// core wants stepping. An in-flight stretch's retirements reach
// Stat.Retired through Sync, so a reader of Stat syncs first.
func (c *Core) Step(now sim.Cycle) sim.Cycle {
	if now < c.resumeAt {
		return c.nextWake(c.resumeAt - 1)
	}
	c.Sync(now)
	c.Steps++
	if k := c.inFlight(now); k > 0 {
		return c.stretch(now, k)
	}
	c.retire(now)
	c.dispatch(now)
	return c.nextWake(now)
}

// Sync credits Stat.Retired with the Width entries each stretch cycle
// before t retires, so Stat reads what a core stepped every cycle
// before t would.
func (c *Core) Sync(t sim.Cycle) {
	t = min(t, c.resumeAt)
	if t > c.credited {
		c.Stat.Retired += uint64(t-c.credited) * uint64(c.Cfg.Width)
		c.credited = t
	}
}

// inFlight returns the length k of the in-flight stretch starting at
// now: k cycles that each retire exactly Width entries and dispatch
// exactly Width plain ones, so occupancy holds while the window slides,
// over loads still in the ROB or over none. Zero means step exactly. k
// is bounded two ways:
//   - it stops when the gap runs out, so the memory op behind the gap
//     is fetched, dispatched and dependence-checked by exact steps;
//   - the stretch stops at the cycle the first load that is waiting,
//     or that completes too late, would reach the retire window, so a
//     wake landing inside the stretch changes nothing it computed.
//
// Only the oldest Width entries can be too young to retire: an entry at
// position p retires in stretch cycle p/Width, and any plain entry
// completes by now+1. The rest of the check visits loads only.
func (c *Core) inFlight(now sim.Cycle) int {
	w := c.Cfg.Width
	k := c.pendingGap / w
	// Fewer than Width entries cannot retire Width a cycle.
	if c.exact || c.count < w || k == 0 {
		return 0
	}
	for i := 0; i < w; i++ {
		s := c.slotOf(i)
		if c.robFlags[s]&robWaiting != 0 || c.robComplete[s] > now {
			return 0
		}
	}
	q := c.loadQHead
	for i := 0; i < c.loadsInROB; i++ {
		s := int(c.loadQ[q])
		j := c.position(s) / w
		if j >= k {
			return k
		}
		if c.robFlags[s]&robWaiting != 0 || c.robComplete[s] > now+sim.Cycle(j) {
			return j
		}
		if q++; q == len(c.loadQ) {
			q = 0
		}
	}
	return k
}

// stretch applies an in-flight stretch of k cycles from now: it retires
// the loads among the k·Width oldest entries and slides the window,
// leaving the refilled slots untouched (free slots hold no load bits,
// and a slot's stale robComplete is never later than the cycle its new
// plain entry could retire). Its retirements are left for Sync to
// credit. It returns what exact stepping's last cycle would.
func (c *Core) stretch(now sim.Cycle, k int) sim.Cycle {
	n := k * c.Cfg.Width
	for c.loadsInROB > 0 {
		s := int(c.loadQ[c.loadQHead])
		if c.position(s) >= n {
			break
		}
		c.retireLoad(s)
	}
	c.head = (c.head + n) % len(c.robFlags)
	c.pendingGap -= n
	c.credited, c.resumeAt = now, now+sim.Cycle(k)
	return c.nextWake(c.resumeAt - 1)
}

// retireLoad frees a retiring load's slot and pops it off loadQ.
func (c *Core) retireLoad(slot int) {
	c.robFlags[slot] = 0
	c.robGen[slot]++
	c.loadsInROB--
	if c.loadQHead++; c.loadQHead == len(c.loadQ) {
		c.loadQHead = 0
	}
}

// retire commits up to Width completed instructions in order.
func (c *Core) retire(now sim.Cycle) {
	for n := 0; n < c.Cfg.Width && c.count > 0; n++ {
		h := c.head
		if c.robFlags[h]&robWaiting != 0 || now < c.robComplete[h] {
			return
		}
		if c.robFlags[h]&robLoad != 0 {
			c.retireLoad(h)
		}
		c.head++
		if c.head == len(c.robFlags) {
			c.head = 0
		}
		c.count--
		c.Stat.Retired++
	}
}

// dispatch brings up to Width new instructions into the ROB.
func (c *Core) dispatch(now sim.Cycle) {
	for n := 0; n < c.Cfg.Width; n++ {
		if c.count == len(c.robFlags) {
			return
		}
		if c.pendingGap == 0 && !c.haveOp {
			c.nextOp = c.trace.Next()
			c.haveOp = true
			c.pendingGap = c.nextOp.Gap
		}
		if c.pendingGap > 0 {
			c.pushPlain(now)
			c.pendingGap--
			continue
		}
		// A memory op is at the front.
		op := c.nextOp
		if op.DepPrev && !c.loadReady(c.lastLoad, now) {
			c.Stat.DepStalls++
			return
		}
		if !c.issueMem(now, op) {
			c.Stat.RetryStalls++
			return
		}
		c.haveOp = false
	}
}

// pushPlain dispatches one ALU instruction (1-cycle execute).
func (c *Core) pushPlain(now sim.Cycle) {
	c.robComplete[c.slotOf(c.count)] = now + 1
	c.count++
}

// issueMem dispatches a load or store; false means a structural hazard
// blocked it (retry next cycle).
func (c *Core) issueMem(now sim.Cycle, op MemOp) bool {
	slot := c.slotOf(c.count)
	if op.Store {
		status := c.Port.Access(c.ID, op.Addr, true, nil)
		if status == AccessRetry {
			return false
		}
		// Posted: the store buffer hides everything beyond dispatch.
		c.robComplete[slot] = now + 1
		c.count++
		c.Stat.Stores++
		return true
	}

	c.robFlags[slot] = robLoad
	c.robComplete[slot] = 0
	status := c.Port.Access(c.ID, op.Addr, false, c.wakeFns[slot])
	switch status {
	case AccessRetry:
		c.robFlags[slot] = 0 // entry not admitted; slot stays logically free
		return false
	case AccessL1Hit:
		c.robComplete[slot] = now + c.Cfg.L1Latency
	case AccessL2Hit:
		c.robComplete[slot] = now + c.Cfg.L2Latency
	case AccessMiss:
		c.robFlags[slot] |= robWaiting
		c.waitingMisses++
		c.Stat.LoadMisses++
	default:
		panic(fmt.Sprintf("cpu: unknown access status %d", status))
	}
	if c.robFlags[slot]&robWaiting == 0 {
		c.robFlags[slot] |= robResolved
		c.robReady[slot] = c.robComplete[slot]
	}
	c.count++
	c.Stat.Loads++
	q := c.loadQHead + c.loadsInROB
	if q >= len(c.loadQ) {
		q -= len(c.loadQ)
	}
	c.loadQ[q] = int32(slot)
	c.loadsInROB++
	c.lastLoad = loadRef{slot: int32(slot), gen: c.robGen[slot]}
	return true
}

// wakeSlot is invoked by the port when a missing load's word arrives.
func (c *Core) wakeSlot(slot int) {
	f := c.robFlags[slot]
	if f&robLoad == 0 || f&robWaiting == 0 {
		// The entry was recycled (should not happen: entries stay in
		// the ROB until retire, and retire requires completion).
		panic("cpu: wake for a recycled ROB entry")
	}
	c.robFlags[slot] = (f &^ robWaiting) | robResolved
	c.robComplete[slot] = 0 // data is here; retire eligibility is immediate
	c.robReady[slot] = 0
	c.waitingMisses--
	c.wakePending = true
	if c.WakeHook != nil {
		c.WakeHook()
	}
}

// OutstandingMisses reports how many of this core's loads are waiting
// on a memory response (diagnostic surface for the deadlock watchdog).
func (c *Core) OutstandingMisses() int { return c.waitingMisses }

// nextWake computes when the core next needs stepping.
func (c *Core) nextWake(now sim.Cycle) sim.Cycle {
	if c.count == 0 {
		return now + 1
	}
	// If the head is a pending miss and the ROB is full (or dispatch is
	// dependency-blocked on an unresolved load), nothing changes until
	// a wake.
	headWaiting := c.robFlags[c.head]&robWaiting != 0
	dispatchBlocked := c.count == len(c.robFlags) ||
		(c.haveOp && c.pendingGap == 0 && c.nextOp.DepPrev && !c.loadResolved(c.lastLoad))
	if headWaiting && dispatchBlocked {
		// Any non-waiting entry behind the head still finishes on its
		// own, but nothing retires or dispatches until the wake.
		return WaitForever
	}
	return now + 1
}

// ResetStats zeroes the performance counters (used after cache warmup).
// Sync first: stretch cycles not yet credited count after the reset.
func (c *Core) ResetStats() { c.Stat = Stats{} }

// RegisterMetrics registers this core's counters under prefix (e.g.
// "cpu0."). The registry holds references into Stat, so ResetStats —
// which replaces the struct's values, not the struct — stays visible
// to later snapshots.
func (c *Core) RegisterMetrics(reg *telemetry.Registry, prefix string) {
	st := &c.Stat
	reg.CounterRate(prefix+"ipc", &st.Retired)
	reg.Counter(prefix+"retired", &st.Retired)
	reg.Counter(prefix+"loads", &st.Loads)
	reg.Counter(prefix+"stores", &st.Stores)
	reg.Counter(prefix+"load_misses", &st.LoadMisses)
	reg.Counter(prefix+"retry_stalls", &st.RetryStalls)
	reg.Counter(prefix+"dep_stalls", &st.DepStalls)
	reg.Gauge(prefix+"outstanding", func() float64 { return float64(c.waitingMisses) })
}
