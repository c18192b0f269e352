package memctrl

import (
	"fmt"

	"hetsim/internal/dram"
	"hetsim/internal/sim"
	"hetsim/internal/stats"
	"hetsim/internal/telemetry"
)

// Request is one DRAM transaction. Reads invoke OnComplete when the last
// data beat leaves the bus; FirstBeat is when the critical beat arrived
// (conventional burst-reorder critical-word-first puts the requested
// word on the first beat). Writes are posted: they complete (from the
// producer's view) on enqueue and drain later.
type Request struct {
	Addr     uint64 // channel-local unit address
	Kind     dram.AccessKind
	Prefetch bool

	Coord Coord

	Arrive    sim.Cycle
	IssueAt   sim.Cycle
	DataStart sim.Cycle
	FirstBeat sim.Cycle // first data beat on the pins: one DDR beat after DataStart
	DataEnd   sim.Cycle

	openedRow bool // this request triggered its own ACT (row miss)

	// Intrusive per-(rank,bank) queue links, owned by the controller
	// while the request is queued (see queue.go). seqNo is the
	// controller-local arrival serial used to restore exact age order
	// when candidates are gathered bank-by-bank.
	bankNext, bankPrev *Request
	seqNo              uint64

	// OnIssue fires synchronously when the column access issues, with
	// DataStart, FirstBeat and DataEnd filled in: the hook the cache
	// hierarchy uses to schedule first-beat (critical-word) delivery.
	//
	// Hot callers assign a preallocated func value (built once at
	// construction) rather than a fresh closure, and pass per-request
	// context through Ctx.
	OnIssue func(*Request)
	// OnComplete fires (via the engine) at DataEnd for reads.
	OnComplete func(*Request)

	// Ctx carries opaque caller context (e.g. the MSHR entry) so the
	// callbacks above can be shared, already-allocated func values
	// instead of per-request closures.
	Ctx any
}

// Config tunes one controller.
type Config struct {
	ReadQueueSize  int
	WriteQueueSize int
	HighWatermark  int // enter write drain at or above
	LowWatermark   int // leave write drain at or below

	// FCFS disables the row-hit classes: requests are served strictly
	// oldest-first (row hits get no priority). Comparison policy for
	// the FR-FCFS default of §5.
	FCFS bool

	// PrefetchAge promotes a prefetch to demand priority once it has
	// waited this long. At zero every prefetch is promoted on arrival;
	// DefaultConfig sets the Table 1 value.
	PrefetchAge sim.Cycle

	// SleepAfter idles before power-down entry; 0 disables power-down
	// (RLDRAM3 has no power-down modes).
	SleepAfter sim.Cycle
	DeepSleep  bool // §7.2 Malladi-style deep sleep instead of fast PD

	// PerCycle disables timing-directed tick skipping: the controller
	// re-arms its scheduling tick every bus cycle while work is queued,
	// exactly like the pre-skip implementation. Scheduling decisions
	// are identical either way (the differential tests assert it); the
	// per-cycle mode exists as the reference for those tests and as a
	// diagnostic escape hatch.
	PerCycle bool
}

// DefaultConfig returns the Table 1 controller parameters for a channel
// of the given device kind.
func DefaultConfig(kind dram.Kind) Config {
	c := Config{
		ReadQueueSize:  48,
		WriteQueueSize: 48,
		HighWatermark:  32,
		LowWatermark:   16,
		PrefetchAge:    2000,
	}
	switch kind {
	case dram.DDR3:
		c.SleepAfter = 1200 // slow-exit power-down: sleep conservatively
	case dram.LPDDR2:
		c.SleepAfter = 320 // fast-exit: the aggressive sleep policy of §4.1
	case dram.RLDRAM3:
		c.SleepAfter = 0 // no power-down modes (§3: high background power)
	case dram.HMCFast:
		c.SleepAfter = 0 // links stay trained for latency
	case dram.HMCLP:
		c.SleepAfter = 2000 // link power states have slow exits
	}
	return c
}

// Stat aggregates controller-level statistics.
type Stat struct {
	Reads       stats.LatencyBreakdown
	RowHits     uint64
	RowMisses   uint64
	WritesDone  uint64
	ReadsQueued uint64
	Drains      uint64 // write-drain mode entries
}

// Controller owns one channel. It is driven by the shared engine; all
// methods must be called from engine context (single-threaded).
type Controller struct {
	Eng *sim.Engine
	Ch  *dram.Channel
	Map AddressMapper
	Cfg Config

	// Pool, when set, receives dead requests for reuse (posted writes at
	// issue, reads after their completion callback). Leave nil to keep
	// requests alive for the caller (tests).
	Pool *Pool

	// CmdTrace, when set, observes every DRAM command the controller
	// issues: 'A' activate, 'P' precharge, 'R'/'W' column access,
	// 'U' unified (RLDRAM-style) access, 'F' refresh. Debug/test hook;
	// nil in production.
	CmdTrace func(op byte, at sim.Cycle, rank, bank int, row int64)

	rdq reqQueue
	wrq reqQueue

	draining     bool
	ticking      bool
	maintArmed   bool
	sleepArmed   bool
	lastActivity sim.Cycle

	// Tick-skipping session state. A session starts at kick() and ends
	// when the controller parks. anchor is the session's first tick:
	// all session ticks land on the grid anchor+k*busCycle, mirroring
	// the cycles the per-cycle reference would tick at. tickT is the
	// engine timer that holds the session's next tick; sessPhase orders
	// it against other controllers' same-cycle ticks.
	anchor    sim.Cycle
	tickT     sim.Timer
	sessPhase uint64

	// Scan scratch. nextReady accumulates the minimum next-actionable
	// cycle reported by failed timing probes during one tick; scanNow
	// is that tick's timestamp (hints at or before it are ignored);
	// cands is the reusable candidate buffer, sized to rank*bank count;
	// seqCtr feeds Request.seqNo.
	nextReady sim.Cycle
	scanNow   sim.Cycle
	cands     []*Request
	seqCtr    uint64
	geomBanks int

	// Device policy, fixed at construction: unified is the RLDRAM-style
	// single-command access, closePage auto-precharges every CAS.
	unified   bool
	closePage bool

	// Preallocated event handlers: every recurring engine event the
	// controller schedules dispatches on one of these instead of a fresh
	// closure. The tick runs from tickT instead.
	maintH maintDispatch
	sleepH sleepDispatch
	compH  completeDispatch

	Stats Stat
}

// tickDispatch runs the scheduling step from the tick timer.
type tickDispatch struct{ c *Controller }

func (d tickDispatch) OnEvent(any) { d.c.tick() }

// maintDispatch runs the deferred refresh-maintenance check.
type maintDispatch struct{ c *Controller }

func (d maintDispatch) OnEvent(any) { d.c.maintTick() }

// sleepDispatch runs the deferred power-down re-check.
type sleepDispatch struct{ c *Controller }

func (d sleepDispatch) OnEvent(any) { d.c.sleepTick() }

// completeDispatch fires a read's completion callback at DataEnd and
// releases the request.
type completeDispatch struct{ c *Controller }

func (d completeDispatch) OnEvent(arg any) {
	r := arg.(*Request)
	if r.OnComplete != nil {
		r.OnComplete(r)
	}
	if d.c.Pool != nil {
		d.c.Pool.Put(r)
	}
}

// Validate rejects controller parameters that would wedge the queueing
// model (empty queues that can never accept, or drain watermarks the
// write queue can never reach).
func (c Config) Validate() error {
	if c.ReadQueueSize <= 0 || c.WriteQueueSize <= 0 {
		return fmt.Errorf("memctrl: non-positive queue size (read=%d write=%d)",
			c.ReadQueueSize, c.WriteQueueSize)
	}
	if c.HighWatermark <= 0 || c.LowWatermark < 0 ||
		c.LowWatermark >= c.HighWatermark || c.HighWatermark > c.WriteQueueSize {
		return fmt.Errorf("memctrl: bad write-drain watermarks low=%d high=%d (write queue %d)",
			c.LowWatermark, c.HighWatermark, c.WriteQueueSize)
	}
	return nil
}

// New builds a controller over ch.
func New(eng *sim.Engine, ch *dram.Channel, cfg Config) *Controller {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	nBanks := ch.Ranks() * ch.Cfg.Geom.Banks
	c := &Controller{
		Eng: eng, Ch: ch, Cfg: cfg,
		Map:       MapperFor(ch.Cfg, ch.Ranks()),
		geomBanks: ch.Cfg.Geom.Banks,
		cands:     make([]*Request, 0, nBanks),
		unified:   ch.Cfg.Unified(),
		closePage: ch.Cfg.Policy == dram.ClosePage,
	}
	c.rdq.init(nBanks)
	c.wrq.init(nBanks)
	c.tickT = eng.NewTimer(tickDispatch{c})
	c.maintH = maintDispatch{c}
	c.sleepH = sleepDispatch{c}
	c.compH = completeDispatch{c}
	return c
}

// bankIndex flattens a coordinate to the per-bank queue index.
func (c *Controller) bankIndex(co Coord) int { return co.Rank*c.geomBanks + co.Bank }

// CanAcceptRead reports whether the read queue has space.
func (c *Controller) CanAcceptRead() bool { return c.rdq.n < c.Cfg.ReadQueueSize }

// CanAcceptWrite reports whether the write queue has space.
func (c *Controller) CanAcceptWrite() bool { return c.wrq.n < c.Cfg.WriteQueueSize }

// QueueDepths reports current occupancy (reads, writes).
func (c *Controller) QueueDepths() (int, int) { return c.rdq.n, c.wrq.n }

// RegisterMetrics registers this controller's counters, latency
// breakdown, and live queue depths under prefix (e.g. "mem.g0.c1.").
func (c *Controller) RegisterMetrics(reg *telemetry.Registry, prefix string) {
	st := &c.Stats
	reg.Mean(prefix+"queue_lat", &st.Reads.Queue)
	reg.Mean(prefix+"core_lat", &st.Reads.Core)
	reg.Mean(prefix+"xfer_lat", &st.Reads.Xfer)
	reg.Counter(prefix+"row_hits", &st.RowHits)
	reg.Counter(prefix+"row_misses", &st.RowMisses)
	reg.Counter(prefix+"writes_done", &st.WritesDone)
	reg.Counter(prefix+"reads_queued", &st.ReadsQueued)
	reg.Counter(prefix+"drains", &st.Drains)
	reg.Gauge(prefix+"read_q", func() float64 { return float64(c.rdq.n) })
	reg.Gauge(prefix+"write_q", func() float64 { return float64(c.wrq.n) })
}

// EnqueueRead queues a read. It returns false, leaving the request
// untouched, when the queue is full; the caller must retry (MSHR-level
// backpressure).
func (c *Controller) EnqueueRead(r *Request) bool {
	if !c.CanAcceptRead() {
		return false
	}
	r.Kind = dram.AccessRead
	r.Arrive = c.Eng.Now()
	r.Coord = c.Map.Map(r.Addr)
	r.seqNo = c.seqCtr
	c.seqCtr++
	c.rdq.push(r, c.bankIndex(r.Coord))
	c.Stats.ReadsQueued++
	c.wakeRank(r.Coord.Rank)
	c.kick()
	return true
}

// EnqueueWrite queues a posted write.
func (c *Controller) EnqueueWrite(r *Request) bool {
	if !c.CanAcceptWrite() {
		return false
	}
	r.Kind = dram.AccessWrite
	r.Arrive = c.Eng.Now()
	r.Coord = c.Map.Map(r.Addr)
	r.seqNo = c.seqCtr
	c.seqCtr++
	c.wrq.push(r, c.bankIndex(r.Coord))
	c.wakeRank(r.Coord.Rank)
	c.kick()
	return true
}

// wakeRank begins power-down exit if needed.
func (c *Controller) wakeRank(rk int) {
	if c.Ch.PowerState(rk) != dram.PSActive {
		c.Ch.Wake(c.Eng.Now(), rk)
	}
}

// kick makes sure a scheduling tick will observe the enqueue that
// triggered it. With no session running it starts one at the current
// cycle. With a session already ticking, it pulls the next tick back to
// the first grid cycle at which the new request is architecturally
// visible — the same cycle the per-cycle reference would first act on
// it: a request enqueued from event context (write-back drains, ECC
// completions) is seen by that cycle's own tick, because every such
// producer event was scheduled more than a bus cycle ahead and so runs
// before the tick; one enqueued from core-step context is only seen
// from the next grid cycle on, because the current cycle's tick already
// fired before the cores stepped.
func (c *Controller) kick() {
	now := c.Eng.Now()
	if c.ticking {
		var g sim.Cycle
		if c.Eng.InDispatch() {
			g = c.gridUp(now)
		} else {
			g = c.gridUp(now + 1)
		}
		if at, _ := c.Eng.TimerAt(c.tickT); g < at {
			c.armTick(g)
		}
		return
	}
	c.ticking = true
	c.sessPhase = c.Eng.NewPhase()
	c.anchor = now
	c.armTick(now)
}

// busCycle returns the scheduling quantum.
func (c *Controller) busCycle() sim.Cycle { return c.Ch.Cfg.Timing.BusCycle }

// gridUp returns the smallest session-grid cycle at or after t.
func (c *Controller) gridUp(t sim.Cycle) sim.Cycle {
	bus := c.busCycle()
	d := t - c.anchor
	if rem := d % bus; rem != 0 {
		d += bus - rem
	}
	return c.anchor + d
}

// armTick moves the session's tick to cycle at (a grid cycle). A tick
// that parks the session re-arms nothing, which leaves the timer unarmed.
func (c *Controller) armTick(at sim.Cycle) {
	c.Eng.ArmTimer(c.tickT, at, c.sessPhase)
}

// hint folds a next-actionable-cycle report from a failed timing probe
// into the tick's minimum. Hints at or before the current tick carry no
// information (the command is blocked on controller action, e.g. a
// refresh waiting for precharges, which this same tick performs).
func (c *Controller) hint(at sim.Cycle) {
	if at > c.scanNow && at < c.nextReady {
		c.nextReady = at
	}
}

// tick is one scheduling step: refresh first, then at most one data
// command. In skipping mode the next tick is armed at the earliest
// cycle anything can change — one bus cycle after an issue, or the
// minimum next-actionable hint gathered from the failed probes — so
// timing-blocked windows cost one event instead of thousands. Under
// PerCycle the next tick is always one bus cycle later.
func (c *Controller) tick() {
	now := c.Eng.Now()
	c.scanNow = now
	c.nextReady = dram.Never

	issued := c.doRefresh(now)
	if !issued {
		issued = c.schedule(now)
	}
	if issued {
		c.lastActivity = now
	}

	if c.rdq.n > 0 || c.wrq.n > 0 || c.refreshPending(now) {
		next := now + c.busCycle()
		if !issued && !c.Cfg.PerCycle {
			c.promoteHints(now, &c.rdq)
			c.promoteHints(now, &c.wrq)
			if c.nextReady < dram.Never {
				next = c.gridUp(c.nextReady)
			}
			// A blocked scan always yields a hint; if none surfaced,
			// fall back to per-cycle polling, which is always sound.
		}
		c.armTick(next)
		return
	}
	// Idle: consider power-down, then park the tick loop. A maintenance
	// tick is left behind for refresh if the device needs it.
	c.maybeSleep(now)
	c.ticking = false
	if c.Ch.Cfg.Timing.TREFI > 0 {
		c.scheduleMaintenance(now)
	}
}

// promoteHints folds the prefetch-promotion deadlines of q into the
// tick's next-actionable minimum: a promotion changes class priorities
// (and therefore what the scan may issue) without any DRAM state
// change, so a blocked controller must wake when one occurs. Bank
// lists are in arrival order, so each bank's first unaged prefetch
// holds that bank's earliest deadline.
func (c *Controller) promoteHints(now sim.Cycle, q *reqQueue) {
	if q.nPrefetch == 0 {
		return
	}
	for _, bi := range q.active {
		bq := &q.banks[bi]
		if bq.nDemand == bq.n {
			continue
		}
		for r := bq.head; r != nil; r = r.bankNext {
			if r.Prefetch && now-r.Arrive < c.Cfg.PrefetchAge {
				c.hint(r.Arrive + c.Cfg.PrefetchAge)
				break
			}
		}
	}
}

// refreshPending reports whether any rank owes a refresh right now (the
// tick loop must keep running until it is serviced, e.g. while the rank
// finishes waking from power-down).
func (c *Controller) refreshPending(now sim.Cycle) bool {
	for rk := 0; rk < c.Ch.Ranks(); rk++ {
		if c.Ch.RefreshDue(now, rk) {
			return true
		}
	}
	return false
}

// scheduleMaintenance arms a wake-up at the next refresh deadline. At
// most one maintenance event is in flight at a time.
func (c *Controller) scheduleMaintenance(now sim.Cycle) {
	if c.maintArmed {
		return
	}
	c.maintArmed = true
	next := dram.Never
	for rk := 0; rk < c.Ch.Ranks(); rk++ {
		if due := c.Ch.NextRefreshDue(rk); due < next {
			next = due
		}
	}
	if next == dram.Never {
		// Refresh unmodelled (TREFI 0): nothing to maintain.
		c.maintArmed = false
		return
	}
	at := next
	if at < now {
		at = now
	}
	c.Eng.ScheduleEventAt(at, c.maintH, nil)
}

// maintTick is the deferred maintenance check armed by scheduleMaintenance.
func (c *Controller) maintTick() {
	c.maintArmed = false
	if c.ticking {
		return
	}
	anyDue := false
	for rk := 0; rk < c.Ch.Ranks(); rk++ {
		if c.Ch.RefreshDue(c.Eng.Now(), rk) {
			anyDue = true
			c.wakeRank(rk)
		}
	}
	if anyDue {
		c.kick()
	} else if c.Ch.Cfg.Timing.TREFI > 0 {
		c.scheduleMaintenance(c.Eng.Now())
	}
}

// doRefresh services overdue refreshes with priority over data traffic.
// Open banks are precharged first. Returns true if a command issued.
func (c *Controller) doRefresh(now sim.Cycle) bool {
	if c.Ch.Cfg.Timing.TREFI == 0 {
		return false
	}
	for rk := 0; rk < c.Ch.Ranks(); rk++ {
		if !c.Ch.RefreshDue(now, rk) {
			// The session must wake when this rank next falls due even
			// if the data path stays blocked past that point.
			c.hint(c.Ch.NextRefreshDue(rk))
			continue
		}
		c.wakeRank(rk)
		if next, ok := c.Ch.TryRefresh(now, rk); ok {
			c.traceCmd('F', now, rk, -1, -1)
			return true
		} else {
			c.hint(next)
		}
		// Precharge any open bank so refresh can proceed.
		for bk := 0; bk < c.geomBanks; bk++ {
			if c.Ch.OpenRow(rk, bk) != -1 {
				if next, ok := c.Ch.TryPrecharge(now, rk, bk); ok {
					c.traceCmd('P', now, rk, bk, -1)
					return true
				} else {
					c.hint(next)
				}
			}
		}
	}
	return false
}

// maybeSleep puts idle ranks into power-down per policy.
func (c *Controller) maybeSleep(now sim.Cycle) {
	if c.Cfg.SleepAfter == 0 {
		return
	}
	if now-c.lastActivity < c.Cfg.SleepAfter {
		// Re-check once the idle threshold could be met.
		c.armSleepCheck(c.Cfg.SleepAfter - (now - c.lastActivity))
		return
	}
	retry := false
	for rk := 0; rk < c.Ch.Ranks(); rk++ {
		if c.Ch.PowerState(rk) != dram.PSActive {
			continue
		}
		if !c.closeAllBanks(now, rk) {
			retry = true
			continue
		}
		if !c.Ch.Sleep(now, rk, c.Cfg.DeepSleep) {
			retry = true // data in flight or waking: try again shortly
		}
	}
	if retry {
		c.armSleepCheck(c.busCycle() * 8)
	}
}

// armSleepCheck schedules at most one pending sleep re-check.
func (c *Controller) armSleepCheck(delay sim.Cycle) {
	if c.sleepArmed {
		return
	}
	c.sleepArmed = true
	c.Eng.ScheduleEvent(delay, c.sleepH, nil)
}

// sleepTick is the deferred power-down re-check armed by armSleepCheck.
func (c *Controller) sleepTick() {
	c.sleepArmed = false
	if !c.ticking && c.rdq.n == 0 && c.wrq.n == 0 {
		c.maybeSleep(c.Eng.Now())
	}
}

// closeAllBanks precharges every open bank; returns true if all idle.
func (c *Controller) closeAllBanks(now sim.Cycle, rk int) bool {
	all := true
	for bk := 0; bk < c.geomBanks; bk++ {
		if c.Ch.OpenRow(rk, bk) != -1 {
			if _, ok := c.Ch.TryPrecharge(now, rk, bk); ok {
				c.traceCmd('P', now, rk, bk, -1)
			} else {
				all = false
			}
		}
	}
	return all
}

// schedule issues at most one command following FR-FCFS. Returns true if
// a command issued.
func (c *Controller) schedule(now sim.Cycle) bool {
	// Write drain hysteresis (high/low watermark, Table 1) plus
	// opportunistic draining when there are no reads at all.
	if c.draining {
		if c.wrq.n <= c.Cfg.LowWatermark {
			c.draining = false
		}
	} else if c.wrq.n >= c.Cfg.HighWatermark {
		c.draining = true
		c.Stats.Drains++
	}
	// The other queue goes second: reads while writes drain but are
	// blocked, otherwise an opportunistic write while reads are blocked.
	first, second := &c.rdq, &c.wrq
	if c.draining || c.rdq.n == 0 {
		first, second = second, first
	}
	return c.issueFrom(now, first) || c.issueFrom(now, second)
}

// The FR-FCFS candidate classes, in priority order. Each yields at most
// one request per active bank.
const (
	classHit         = iota // oldest promoted request to the bank's open row
	classHitPrefetch        // oldest unaged prefetch to the open row
	classClaim              // the bank's oldest promoted request
	classHead               // the head of a bank with nothing promoted
)

// promoted reports whether r competes at demand priority: demands
// always, prefetches once they age past the promotion threshold.
func (c *Controller) promoted(r *Request, now sim.Cycle) bool {
	return !r.Prefetch || now-r.Arrive >= c.Cfg.PrefetchAge
}

// addCand inserts r into the candidate buffer keeping arrival (seqNo)
// order, so probes fire oldest-first exactly as a scan of the whole
// queue would.
func (c *Controller) addCand(r *Request) {
	cs := append(c.cands, r)
	for i := len(cs) - 1; i > 0 && cs[i-1].seqNo > r.seqNo; i-- {
		cs[i], cs[i-1] = cs[i-1], cs[i]
	}
	c.cands = cs
}

// rowHitIn returns the oldest request in bq to the open row whose
// promotion matches want. One candidate per bank suffices: a queue
// holds a single access kind, so all same-bank same-row requests see an
// identical TryCAS constraint set and the oldest fails only if all
// would.
func (c *Controller) rowHitIn(bq *bankList, open int64, want bool, now sim.Cycle) *Request {
	for r := bq.head; r != nil; r = r.bankNext {
		if r.Coord.Row == open && c.promoted(r, now) == want {
			return r
		}
	}
	return nil
}

// oldestPromoted returns bq's oldest demand-priority request, or nil.
func (c *Controller) oldestPromoted(bq *bankList, now sim.Cycle) *Request {
	for r := bq.head; r != nil; r = r.bankNext {
		if c.promoted(r, now) {
			return r
		}
		if bq.nDemand == 0 {
			// The oldest prefetch is unaged, so every younger one is
			// too, and the bank holds no demands: nothing is promoted.
			return nil
		}
	}
	return nil
}

// issueFrom applies FR-FCFS to one queue, class by class in priority
// order: row hits (demand, then prefetch), then each bank's oldest
// promoted request, then the heads of banks with nothing promoted. A
// bank is driven by one request per class, so younger requests never
// thrash its row, while other banks proceed in the same scan — that
// bank-level parallelism keeps queue delay near zero at low load. A
// class's candidates are probed in arrival order, which reproduces the
// exact issue decisions of an oldest-first scan of the whole queue.
// RLDRAM has no open rows and plain FCFS gives row hits no priority, so
// both start at classClaim.
func (c *Controller) issueFrom(now sim.Cycle, q *reqQueue) bool {
	cl := classHit
	if c.unified || c.Cfg.FCFS {
		cl = classClaim
	}
	for ; cl <= classHead; cl++ {
		if q.nPrefetch == 0 && (cl == classHitPrefetch || cl == classHead) {
			continue // no prefetch, so nothing is unpromoted
		}
		c.cands = c.cands[:0]
		for _, bi := range q.active {
			bq := &q.banks[bi]
			var r *Request
			switch cl {
			case classHit, classHitPrefetch:
				if open := c.Ch.OpenRow(int(bi)/c.geomBanks, int(bi)%c.geomBanks); open != -1 {
					r = c.rowHitIn(bq, open, cl == classHit, now)
				}
			case classClaim:
				r = c.oldestPromoted(bq, now)
			case classHead:
				if bq.nDemand == 0 && !c.promoted(bq.head, now) {
					r = bq.head
				}
			}
			if r != nil {
				c.addCand(r)
			}
		}
		for _, r := range c.cands {
			if c.try(now, r) {
				return true
			}
		}
	}
	return false
}

// try probes r's next command — the unified access, or ACT, PRE or CAS
// by the state of its bank's row buffer — and issues it if timing
// allows. A failed probe folds its retry cycle into the tick's hint.
func (c *Controller) try(now sim.Cycle, r *Request) bool {
	co := r.Coord
	var next sim.Cycle
	var ok bool
	switch {
	case c.unified:
		if next, ok = c.Ch.TryAccess(now, co.Rank, co.Bank, r.Kind); ok {
			r.openedRow = true // close-page: every access opens its row
			c.finishIssue(r, now, next)
		}
	case c.Ch.OpenRow(co.Rank, co.Bank) == -1:
		if next, ok = c.Ch.TryActivate(now, co.Rank, co.Bank, co.Row); ok {
			r.openedRow = true
			c.traceCmd('A', now, co.Rank, co.Bank, co.Row)
		}
	case c.Ch.OpenRow(co.Rank, co.Bank) != co.Row:
		if next, ok = c.Ch.TryPrecharge(now, co.Rank, co.Bank); ok {
			c.traceCmd('P', now, co.Rank, co.Bank, -1)
		}
	default:
		if next, ok = c.Ch.TryCAS(now, co.Rank, co.Bank, co.Row, r.Kind, c.closePage); ok {
			c.finishIssue(r, now, next)
		}
	}
	if !ok {
		c.hint(next)
	}
	return ok
}

// traceCmd reports an issued command to the CmdTrace hook, if any.
func (c *Controller) traceCmd(op byte, at sim.Cycle, rk, bk int, row int64) {
	if c.CmdTrace != nil {
		c.CmdTrace(op, at, rk, bk, row)
	}
}

// finishIssue records stats, removes r from its queue and schedules the
// completion callback.
func (c *Controller) finishIssue(r *Request, now, dataStart sim.Cycle) {
	r.IssueAt = now
	r.DataStart = dataStart
	r.FirstBeat = dataStart + max(c.Ch.Cfg.Timing.BusCycle/2, 1)
	r.DataEnd = dataStart + c.Ch.Cfg.Timing.Burst
	if r.Kind == dram.AccessWrite {
		c.wrq.unlink(r, c.bankIndex(r.Coord))
		c.traceCmd('W', now, r.Coord.Rank, r.Coord.Bank, r.Coord.Row)
		c.Stats.WritesDone++
		// Posted writes are dead once issued.
		if c.Pool != nil {
			c.Pool.Put(r)
		}
		return
	}
	c.rdq.unlink(r, c.bankIndex(r.Coord))
	c.traceCmd('R', now, r.Coord.Rank, r.Coord.Bank, r.Coord.Row)
	if r.openedRow {
		c.Stats.RowMisses++
	} else {
		c.Stats.RowHits++
	}
	c.Stats.Reads.Add(float64(r.IssueAt-r.Arrive), float64(r.DataStart-r.IssueAt), float64(c.Ch.Cfg.Timing.Burst))
	if r.OnIssue != nil {
		r.OnIssue(r)
	}
	if r.OnComplete != nil || c.Pool != nil {
		c.Eng.ScheduleEventAt(r.DataEnd, c.compH, r)
	}
}

// Pending reports the number of queued requests (reads + writes).
func (c *Controller) Pending() int { return c.rdq.n + c.wrq.n }
