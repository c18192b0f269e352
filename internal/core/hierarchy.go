package core

import (
	"fmt"

	"hetsim/internal/cache"
	"hetsim/internal/cpu"
	"hetsim/internal/faults"
	"hetsim/internal/prefetch"
	"hetsim/internal/sim"
	"hetsim/internal/stats"
	"hetsim/internal/telemetry"
	"hetsim/internal/topology"
	"hetsim/internal/trace"
)

// HierStats aggregates the memory-side statistics the evaluation
// figures are built from.
type HierStats struct {
	DemandFills   uint64
	StoreFills    uint64
	PrefetchFills uint64
	MergedMisses  uint64
	Writebacks    uint64

	// CritWordHist counts demand load misses by requested word index —
	// the Figure 4 distribution measured at the DRAM level.
	CritWordHist [8]uint64

	// CritServedFast counts demand load misses whose requested word was
	// the placed word (served by the critical channel, Figure 8).
	CritServedFast uint64

	// CritLatency is the requested-critical-word latency (Figure 7):
	// MSHR allocation to arrival of the word the CPU asked for.
	CritLatency stats.Mean

	// EarlyWakeGap is the CWF head start: cycles between a usable
	// critical word arriving (the early wake) and the rest of its line
	// landing. Demand fills only; parity-held words never woke early.
	EarlyWakeGap stats.Mean

	// ReuseGaps is the §6.1.1 census: cycles between a line's fill
	// request and its next access to a different word.
	ReuseGaps *stats.Histogram

	ParityErrors uint64
	WBOverflow   uint64

	// Fault-injection outcomes (internal/faults, §4.2.3 extended).
	FaultHeld       uint64 // critical words withheld on injected dirty parity
	FaultEscaped    uint64 // corruptions that evaded per-byte parity
	SECDEDCorrected uint64 // line fills delayed by SECDED correction
	Reconstructions uint64 // line fills rebuilt via the chipkill parity chip
	DegradedFills   uint64 // fills issued line-only after the crit DIMM died
}

// fillRec supports the reuse-gap census.
type fillRec struct {
	born sim.Cycle
	word int
}

// Hierarchy is the full cache/memory hierarchy: private L1s, the shared
// L2/LLC, the MSHR file, per-core stride prefetchers, and a DRAM
// backend. It implements cpu.Port.
type Hierarchy struct {
	eng *sim.Engine
	cfg SystemConfig

	// split reports whether the topology is the CWF split organization,
	// which enables the placement, parity, crit-fault and adaptive
	// re-placement paths.
	split bool

	l1s  []*cache.Cache
	l2   *cache.Cache
	mshr *cache.MSHR
	pf   []*prefetch.Prefetcher
	mem  backend

	// sharedSpace enables L1 invalidation coherence (multithreaded
	// workloads share one address space).
	sharedSpace bool

	// placed is the DRAM-side layout tag: which word of each line the
	// critical channel stores (§4.2.5). Lines absent default to word 0.
	placed map[uint64]uint8

	rng *sim.RNG

	// inj is the fault-injection engine (nil when the config injects
	// nothing, which makes the whole layer one pointer test per event).
	inj *faults.Injector
	// degraded latches once the critical-word DIMM is declared dead:
	// the backend has switched to line-only service.
	degraded bool

	wbQueue []uint64
	wbArmed bool

	wbH wbDrainDispatch
	lrH lineReadyDispatch

	recent     map[uint64]fillRec
	recentRing []uint64
	recentPos  int

	perLine map[uint64]*[8]uint32

	Stat HierStats
}

const (
	wbQueueLimit    = 128
	reuseTrackCap   = 4096
	perLineTrackCap = 200_000
)

// newLLC builds the shared 4MB 8-way L2/LLC (Table 1).
func newLLC() *cache.Cache { return cache.New(4*1024*1024, 8) }

func newHierarchy(eng *sim.Engine, cfg SystemConfig, mem backend, shared bool) *Hierarchy {
	h := &Hierarchy{
		eng: eng, cfg: cfg, mem: mem, sharedSpace: shared,
		split:  cfg.Topology.Shape() == topology.ShapeCWF,
		l2:     newLLC(),
		mshr:   cache.NewMSHR(MSHRCapacity),
		placed: make(map[uint64]uint8),
		rng:    sim.NewRNG(cfg.Seed ^ 0xec5),
		inj:    faults.New(cfg.Faults, lineChannels(cfg.Topology)),
		recent: make(map[uint64]fillRec, reuseTrackCap),
	}
	h.recentRing = make([]uint64, reuseTrackCap)
	h.Stat.ReuseGaps = stats.NewHistogram(256, 16) // 16-cycle buckets to 4096+
	for i := 0; i < cfg.NCores; i++ {
		h.l1s = append(h.l1s, cache.New(32*1024, 2))
		pcfg := prefetch.DefaultConfig()
		if !cfg.Prefetch {
			pcfg = prefetch.Config{}
		}
		h.pf = append(h.pf, prefetch.New(pcfg))
	}
	if cfg.TrackPerLine {
		h.perLine = make(map[uint64]*[8]uint32)
	}
	h.wbH = wbDrainDispatch{h}
	h.lrH = lineReadyDispatch{h}
	mem.setSink(h)
	return h
}

// lineReadyDispatch is the preallocated event handler completing a line
// fill after an ECC correction/reconstruction delay.
type lineReadyDispatch struct{ h *Hierarchy }

func (d lineReadyDispatch) OnEvent(arg any) { d.h.lineReady(arg.(*cache.Entry)) }

// wbDrainDispatch is the preallocated event handler for write-back
// drain retries.
type wbDrainDispatch struct{ h *Hierarchy }

func (d wbDrainDispatch) OnEvent(any) { d.h.drainWB() }

// placedWord reports which word of a line the fast path stores.
func (h *Hierarchy) placedWord(lineAddr uint64, reqWord int) int {
	if !h.split {
		// Conventional systems burst-reorder around the requested word.
		return reqWord
	}
	switch h.cfg.Placement {
	case PlaceStatic:
		return 0
	case PlaceOracle:
		return reqWord
	case PlaceRandom:
		return int(hashLine(lineAddr) & 7)
	case PlaceAdaptive:
		return int(h.placed[lineAddr]) // zero value = word 0 initial layout
	default:
		return 0
	}
}

// Prediction metadata layout in L2 line meta bytes: bit 7 = prediction
// valid, bits 0-2 = predicted critical word. Prefetch-installed lines
// start invalid; the first demand touch sets the prediction (§4.2.5).
const (
	metaValid = 0x80
	metaWord  = 0x07
)

func hashLine(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	return x ^ (x >> 31)
}

// Access implements cpu.Port.
func (h *Hierarchy) Access(coreID int, addr uint64, store bool, wake func()) cpu.AccessStatus {
	la := cache.LineAddr(addr)
	word := cache.WordIndex(addr)

	if h.l1s[coreID].Lookup(la, store) {
		if store && h.sharedSpace {
			h.invalidateOthers(coreID, la)
		}
		return cpu.AccessL1Hit
	}

	if h.l2.Lookup(la, false) {
		if m, ok := h.l2.Meta(la); ok && m&metaValid == 0 {
			// First demand touch of a prefetched line defines its
			// predicted critical word.
			h.l2.SetMeta(la, metaValid|uint8(word))
		}
		h.sampleReuse(la, word)
		h.fillL1(coreID, la, store)
		if store && h.sharedSpace {
			h.invalidateOthers(coreID, la)
		}
		return cpu.AccessL2Hit
	}

	// LLC miss: merge into an in-flight fill if one exists.
	if e, ok := h.mshr.Lookup(la); ok {
		h.Stat.MergedMisses++
		h.sampleReuse(la, word)
		if store {
			e.Store = true
			return cpu.AccessMiss // posted; core ignores non-retry status
		}
		if h.wordAvailable(e, word) {
			return cpu.AccessL2Hit // data is sitting in the MSHR buffer
		}
		if e.Prefetch && !store {
			// A demand miss promotes the still-unserved prefetch: from
			// here it is accounted as a demand fill born now.
			e.Prefetch = false
			e.MissWord = word
			e.Core = coreID
			e.Born = int64(h.eng.Now())
			if h.Stat.PrefetchFills > 0 {
				h.Stat.PrefetchFills--
			}
			h.Stat.DemandFills++
			h.Stat.CritWordHist[word]++
			h.trackPerLine(la, word)
		}
		h.mshr.Merge(e, cache.Waiter{Core: coreID, Word: word, Wake: wake})
		return cpu.AccessMiss
	}

	// New fill required. If the fault layer has declared the critical
	// DIMM dead since the last fill, degrade the backend first so the
	// capacity checks below see the line-only organization.
	if h.inj != nil && h.split && !h.degraded && h.inj.CritDead(h.eng.Now()) {
		h.degraded = true
		h.mem.DegradeCrit()
	}
	if h.mshr.Full() || !h.mem.CanAcceptFill(la) || len(h.wbQueue) >= wbQueueLimit {
		return cpu.AccessRetry
	}
	crit := h.placedWord(la, word)
	e := h.mshr.Alloc(la, store, false, word, crit)
	e.Core = coreID
	e.Born = int64(h.eng.Now())
	if store {
		h.Stat.StoreFills++
	} else {
		h.Stat.DemandFills++
		h.Stat.CritWordHist[word]++
		h.trackPerLine(la, word)
		h.trackReuse(la, word)
		h.mshr.Merge(e, cache.Waiter{Core: coreID, Word: word, Wake: wake})
	}
	if !h.issue(e) {
		panic("core: backend refused fill after capacity check")
	}
	h.train(coreID, la)
	if store && h.sharedSpace {
		h.invalidateOthers(coreID, la)
	}
	return cpu.AccessMiss
}

// issue launches the DRAM transactions for an MSHR entry. The backend
// delivers arrival events to h's fillSink methods with e as argument —
// no per-fill closures.
func (h *Hierarchy) issue(e *cache.Entry) bool {
	if h.degraded {
		// The crit DIMM is dead: this fill has a line part only, and the
		// requested word is served by conventional burst-reorder.
		e.NoCrit = true
	}
	if !h.mem.IssueFill(e) {
		return false
	}
	if e.NoCrit {
		h.Stat.DegradedFills++
	}
	return true
}

// wordAvailable reports whether a given word of an in-flight fill has
// already arrived.
func (h *Hierarchy) wordAvailable(e *cache.Entry, word int) bool {
	if e.LineArrived {
		return true
	}
	return e.CritArrived && !e.ParityHeld && word == e.CritWord
}

// onCrit handles arrival of the placed word from the fast path.
func (h *Hierarchy) onCrit(e *cache.Entry) {
	e.CritArrived = true
	e.CritAt = int64(h.eng.Now())
	if h.split && h.cfg.CritParityErrorRate > 0 && h.rng.Bool(h.cfg.CritParityErrorRate) {
		// §4.2.3: parity error — withhold the word until SECDED over
		// the full line can correct it.
		e.ParityHeld = true
		h.Stat.ParityErrors++
		h.maybeFinish(e)
		return
	}
	if h.inj != nil && h.split {
		switch h.inj.CritRead(h.eng.Now(), e.LineAddr) {
		case faults.CritHeld:
			// Injected corruption dirtied the per-byte parity: withhold
			// the early word; consumers wait for line + SECDED.
			e.ParityHeld = true
			h.Stat.ParityErrors++
			h.Stat.FaultHeld++
			h.maybeFinish(e)
			return
		case faults.CritEscaped:
			// The corruption passed parity — the early word goes out
			// wrong and SECDED flags it when the full line lands.
			e.CritEscaped = true
			h.Stat.FaultEscaped++
		}
	}
	h.wakeWaiters(e, func(w cache.Waiter) bool { return w.Word == e.CritWord })
	h.maybeFinish(e)
}

// onReqWord handles the first beat of the line part: the burst is
// reordered so the miss-triggering word leads.
// When the miss word IS the placed word it does not travel in the
// line part at all (the critical channel carries it), so nothing is
// deliverable here.
func (h *Hierarchy) onReqWord(e *cache.Entry) {
	if e.MissWord == e.CritWord && !e.NoCrit {
		// Served by the critical channel — unless this is a degraded
		// line-only fill, where the line part carries every word.
		return
	}
	if !e.Store && !e.Prefetch {
		h.Stat.CritLatency.Add(float64(int64(h.eng.Now()) - e.Born))
	}
	h.wakeWaiters(e, func(w cache.Waiter) bool { return w.Word == e.MissWord })
}

// onLine handles completion of the line part. With fault injection
// active the line may need ECC work before it is usable: a SECDED
// correction or a chipkill reconstruction delays readiness by the
// modeled penalty.
func (h *Hierarchy) onLine(e *cache.Entry) {
	if h.inj != nil {
		delay, out := h.inj.LineRead(h.eng.Now(), e.LineAddr, h.mem.lineChannel(e.LineAddr))
		if delay > 0 {
			switch out {
			case faults.LineCorrected:
				h.Stat.SECDEDCorrected++
			case faults.LineReconstructed:
				h.Stat.Reconstructions++
			}
			h.eng.ScheduleEvent(delay, h.lrH, e)
			return
		}
	}
	h.lineReady(e)
}

// lineReady completes the line part once its data is usable (directly
// from the bus, or after ECC correction/reconstruction).
func (h *Hierarchy) lineReady(e *cache.Entry) {
	e.LineArrived = true
	if e.ParityHeld && !e.Store && !e.Prefetch && e.MissWord == e.CritWord {
		// The withheld critical word is only usable now, after SECDED.
		h.Stat.CritLatency.Add(float64(int64(h.eng.Now()) - e.Born))
	}
	if e.CritArrived && !e.ParityHeld && !e.Store && !e.Prefetch {
		h.Stat.EarlyWakeGap.Add(float64(int64(h.eng.Now()) - e.CritAt))
	}
	h.wakeWaiters(e, func(cache.Waiter) bool { return true })
	h.maybeFinish(e)
}

// wakeWaiters wakes and removes waiters matching the predicate.
func (h *Hierarchy) wakeWaiters(e *cache.Entry, match func(cache.Waiter) bool) {
	kept := e.Waiters[:0]
	for _, w := range e.Waiters {
		if match(w) {
			if w.Wake != nil {
				w.Wake()
			}
			continue
		}
		kept = append(kept, w)
	}
	e.Waiters = kept
}

// maybeFinish installs the line once both parts have arrived.
func (h *Hierarchy) maybeFinish(e *cache.Entry) {
	if !e.Done() {
		return
	}
	// Decide served-fast now that both arrival cycles are known: the
	// fast path must strictly lead the full line. A refresh (or any
	// other channel stall) can delay the critical word until — or past
	// — the cycle the line lands, in which case the word was already
	// deliverable from the line and the fast path gained nothing.
	if e.CritArrived && !e.ParityHeld && !e.Store && !e.Prefetch &&
		e.MissWord == e.CritWord {
		now := int64(h.eng.Now())
		if e.CritAt < now {
			h.Stat.CritServedFast++
			h.Stat.CritLatency.Add(float64(e.CritAt - e.Born))
		} else {
			h.Stat.CritLatency.Add(float64(now - e.Born))
		}
	}
	if h.cfg.TraceFn != nil {
		h.cfg.TraceFn(trace.Record{
			Born: e.Born, Done: int64(h.eng.Now()), CritAt: e.CritAt,
			LineAddr: e.LineAddr, MissWord: e.MissWord, CritWord: e.CritWord,
			Store: e.Store, Prefetch: e.Prefetch, Parity: e.ParityHeld,
		})
	}
	// Install into the LLC; metadata records the predicted critical
	// word (§4.2.5: the word that missed on this fetch). Pure prefetch
	// fills carry no prediction until a demand touch.
	meta := uint8(0)
	if !e.Prefetch {
		meta = metaValid | uint8(e.MissWord)
	}
	ev, evicted := h.l2.Insert(e.LineAddr, e.Store, meta)
	if evicted {
		h.handleL2Eviction(ev)
	}
	if !e.Prefetch && !e.Store {
		h.fillL1(e.Core, e.LineAddr, false)
	}
	h.mshr.Free(e.LineAddr)
}

// fillL1 installs a line into one core's L1, folding any dirty victim
// back into the LLC.
func (h *Hierarchy) fillL1(coreID int, la uint64, dirty bool) {
	ev, evicted := h.l1s[coreID].Insert(la, dirty, 0)
	if evicted && ev.Dirty {
		if !h.l2.MarkDirty(ev.LineAddr) {
			// Inclusion means this cannot happen; if it does, the
			// write-back goes straight to memory.
			h.queueWriteback(ev.LineAddr)
		}
	}
}

// invalidateOthers models MESI-style invalidation on a shared-space
// store: other cores' L1 copies are dropped (their dirtiness folds into
// the LLC). The timing cost of the snoop itself is not modelled.
func (h *Hierarchy) invalidateOthers(coreID int, la uint64) {
	for i, l1 := range h.l1s {
		if i == coreID {
			continue
		}
		if present, dirty := l1.Invalidate(la); present && dirty {
			h.l2.MarkDirty(la)
		}
	}
}

// handleL2Eviction maintains inclusion and writes dirty victims back.
func (h *Hierarchy) handleL2Eviction(ev cache.Eviction) {
	dirty := ev.Dirty
	for _, l1 := range h.l1s {
		if present, d := l1.Invalidate(ev.LineAddr); present && d {
			dirty = true
		}
	}
	if !dirty {
		return
	}
	h.Stat.Writebacks++
	h.relayout(ev)
	h.queueWriteback(ev.LineAddr)
}

// adaptive reports whether the DRAM layout follows adaptive placement
// (§4.2.5), which only a split organization has.
func (h *Hierarchy) adaptive() bool { return h.split && h.cfg.Placement == PlaceAdaptive }

// relayout applies adaptive placement's re-organization of a line on
// its way to DRAM (see relayoutInto).
func (h *Hierarchy) relayout(ev cache.Eviction) {
	if h.adaptive() {
		relayoutInto(h.placed, ev)
	}
}

// relayoutInto re-organizes a written-back line in the layout placed
// (§4.2.5): the predicted critical word becomes the placed word. Lines
// without a valid prediction keep their current layout.
func relayoutInto(placed map[uint64]uint8, ev cache.Eviction) {
	if ev.Meta&metaValid == 0 {
		return
	}
	if w := ev.Meta & metaWord; w == 0 {
		delete(placed, ev.LineAddr)
	} else {
		placed[ev.LineAddr] = w
	}
}

// queueWriteback sends a write to the backend, buffering on queue-full.
func (h *Hierarchy) queueWriteback(la uint64) {
	if len(h.wbQueue) == 0 && h.mem.CanAcceptWriteback(la) && h.mem.IssueWriteback(la) {
		return
	}
	h.wbQueue = append(h.wbQueue, la)
	h.Stat.WBOverflow++
	h.armWBDrain()
}

// armWBDrain schedules (at most one) retry of buffered write-backs.
func (h *Hierarchy) armWBDrain() {
	if h.wbArmed {
		return
	}
	h.wbArmed = true
	h.eng.ScheduleEvent(200, h.wbH, nil)
}

// drainWB retries buffered write-backs in order, re-arming if blocked.
func (h *Hierarchy) drainWB() {
	h.wbArmed = false
	n := 0
	for n < len(h.wbQueue) {
		la := h.wbQueue[n]
		if !h.mem.CanAcceptWriteback(la) || !h.mem.IssueWriteback(la) {
			break
		}
		n++
	}
	h.wbQueue = h.wbQueue[n:]
	if len(h.wbQueue) > 0 {
		h.armWBDrain()
	}
}

// train feeds the prefetcher on a demand LLC miss and issues covered
// prefetch fills.
func (h *Hierarchy) train(coreID int, la uint64) {
	for _, cand := range h.pf[coreID].OnMiss(la) {
		if h.mshr.Full() {
			return
		}
		if h.l2.Contains(cand) {
			continue
		}
		if _, inflight := h.mshr.Lookup(cand); inflight {
			continue
		}
		if !h.mem.CanAcceptPrefetch(cand) {
			return
		}
		crit := h.placedWord(cand, 0)
		e := h.mshr.Alloc(cand, false, true, 0, crit)
		e.Core = coreID
		e.Born = int64(h.eng.Now())
		h.Stat.PrefetchFills++
		if !h.issue(e) {
			panic("core: backend refused prefetch after capacity check")
		}
	}
}

// trackReuse records a fill for the §6.1.1 reuse-gap census.
func (h *Hierarchy) trackReuse(la uint64, word int) {
	// Ring slots store la+1 so that line 0 is distinguishable from an
	// empty slot.
	if old := h.recentRing[h.recentPos]; old != 0 {
		delete(h.recent, old-1)
	}
	h.recentRing[h.recentPos] = la + 1
	h.recentPos = (h.recentPos + 1) % len(h.recentRing)
	h.recent[la] = fillRec{born: h.eng.Now(), word: word}
}

// sampleReuse emits a gap sample when a tracked line is touched at a
// different word.
func (h *Hierarchy) sampleReuse(la uint64, word int) {
	if rec, ok := h.recent[la]; ok && rec.word != word {
		h.Stat.ReuseGaps.Add(float64(h.eng.Now() - rec.born))
		delete(h.recent, la)
	}
}

// trackPerLine maintains the Figure 3 per-line census.
func (h *Hierarchy) trackPerLine(la uint64, word int) {
	if h.perLine == nil {
		return
	}
	rec := h.perLine[la]
	if rec == nil {
		if len(h.perLine) >= perLineTrackCap {
			return
		}
		rec = new([8]uint32)
		h.perLine[la] = rec
	}
	rec[word]++
}

// PerLineCensus returns the per-line critical word counts (Figure 3).
func (h *Hierarchy) PerLineCensus() map[uint64]*[8]uint32 { return h.perLine }

// MSHROccupancy reports current outstanding fills.
func (h *Hierarchy) MSHROccupancy() int { return h.mshr.Occupancy() }

// registerMetrics publishes the hierarchy's counters, latency means,
// live occupancy gauges, and (when armed) the fault injector's
// counters. System.collect reads the measured window back out of these
// same probes, so the "hier." names below are load-bearing.
func (h *Hierarchy) registerMetrics(reg *telemetry.Registry) {
	st := &h.Stat
	reg.Counter("hier.demand_fills", &st.DemandFills)
	reg.Counter("hier.store_fills", &st.StoreFills)
	reg.Counter("hier.prefetch_fills", &st.PrefetchFills)
	reg.Counter("hier.merged_misses", &st.MergedMisses)
	reg.Counter("hier.writebacks", &st.Writebacks)
	reg.Counter("hier.crit_served_fast", &st.CritServedFast)
	for w := 0; w < 8; w++ {
		reg.Counter(fmt.Sprintf("hier.crit_word_%d", w), &st.CritWordHist[w])
	}
	reg.Mean("hier.crit_latency", &st.CritLatency)
	reg.Mean("hier.early_wake_gap", &st.EarlyWakeGap)
	reg.Histogram("hier.reuse_gap", st.ReuseGaps)
	reg.Counter("hier.parity_errors", &st.ParityErrors)
	reg.Counter("hier.wb_overflow", &st.WBOverflow)
	reg.Counter("hier.fault_held", &st.FaultHeld)
	reg.Counter("hier.fault_escaped", &st.FaultEscaped)
	reg.Counter("hier.secded_corrected", &st.SECDEDCorrected)
	reg.Counter("hier.reconstructions", &st.Reconstructions)
	reg.Counter("hier.degraded_fills", &st.DegradedFills)
	reg.Gauge("hier.mshr_occupancy", func() float64 { return float64(h.mshr.Occupancy()) })
	reg.Gauge("hier.wb_queue", func() float64 { return float64(len(h.wbQueue)) })
	h.inj.RegisterMetrics(reg, "faults.")
}

var _ cpu.Port = (*Hierarchy)(nil)
