package core

import (
	"hetsim/internal/cache"
	"hetsim/internal/dram"
	"hetsim/internal/memctrl"
	"hetsim/internal/sim"
)

// dramCacheBackend is the cache-tier/far-tier organization: a fast
// direct-mapped DRAM cache of full lines fronting a slow far memory.
// The controller model follows the Alloy-cache school of the DRAM-cache
// literature: tags are stored with the data ("TAD"), so a hit costs
// exactly one cache-tier access (the tag check rides the data burst)
// and the tag array itself is a simulator-side lookup, not extra DRAM
// traffic. Misses read the far tier and install the line into its set
// on completion via one insertion write; the store is write-through
// from the hierarchy's perspective (write-backs always reach the far
// tier, plus the cache tier when the line is resident), so evictions
// never generate dirty traffic.
type dramCacheBackend struct {
	eng       *sim.Engine
	cacheCtrl []*memctrl.Controller
	cacheChan []*dram.Channel
	farCtrl   []*memctrl.Controller
	farChan   []*dram.Channel
	groups    []ChannelGroup

	// tags holds lineAddr+1 per set (0 = invalid). Sets interleave
	// across the cache channels the way lines interleave across line
	// channels. Preallocated: the steady state allocates nothing.
	tags []uint64

	sink fillSink

	hitIssuedFn func(*memctrl.Request)
	hitDoneFn   func(*memctrl.Request)
	farIssuedFn func(*memctrl.Request)
	farDoneFn   func(*memctrl.Request)
	critH       dcCritDispatch
	reqWordH    dcReqWordDispatch
}

// dcCritDispatch delivers the burst-reordered critical beat.
type dcCritDispatch struct{ b *dramCacheBackend }

func (d dcCritDispatch) OnEvent(arg any) {
	d.b.sink.onCrit(entryOf(arg.(*memctrl.Request)))
}

// dcReqWordDispatch delivers the requested word on the same beat.
type dcReqWordDispatch struct{ b *dramCacheBackend }

func (d dcReqWordDispatch) OnEvent(arg any) {
	d.b.sink.onReqWord(entryOf(arg.(*memctrl.Request)))
}

// newDRAMCache builds nCache cache channels of cacheCfg holding capMB
// MB of line cache each, and nFar far channels of farCfg.
func newDRAMCache(eng *sim.Engine, cacheCfg dram.Config, nCache, capMB int, farCfg dram.Config, nFar int, deepSleep bool) *dramCacheBackend {
	b := &dramCacheBackend{eng: eng}
	b.hitIssuedFn = b.hitIssued
	b.hitDoneFn = b.hitDone
	b.farIssuedFn = b.farIssued
	b.farDoneFn = b.farDone
	b.critH = dcCritDispatch{b}
	b.reqWordH = dcReqWordDispatch{b}
	b.tags = make([]uint64, uint64(capMB)<<20/cache.LineSize*uint64(nCache))
	for i := 0; i < nCache; i++ {
		ch := dram.NewChannel(cacheCfg, 1, nil)
		mc := memctrl.DefaultConfig(cacheCfg.Kind)
		mc.DeepSleep = deepSleep
		ctrl := memctrl.New(eng, ch, mc)
		// Per-controller pools, as in newCWF.
		ctrl.Pool = new(memctrl.Pool)
		b.cacheChan = append(b.cacheChan, ch)
		b.cacheCtrl = append(b.cacheCtrl, ctrl)
	}
	for i := 0; i < nFar; i++ {
		ch := dram.NewChannel(farCfg, 1, nil)
		mc := memctrl.DefaultConfig(farCfg.Kind)
		mc.DeepSleep = deepSleep
		ctrl := memctrl.New(eng, ch, mc)
		ctrl.Pool = new(memctrl.Pool)
		b.farChan = append(b.farChan, ch)
		b.farCtrl = append(b.farCtrl, ctrl)
	}
	b.groups = []ChannelGroup{
		{Kind: cacheCfg.Kind, Cfg: cacheCfg, Chans: b.cacheChan, Ctrls: b.cacheCtrl,
			DevicesPerAccess: cacheCfg.Geom.DevicesPerRank, DevicesPerRank: cacheCfg.Geom.DevicesPerRank},
		{Kind: farCfg.Kind, Cfg: farCfg, Chans: b.farChan, Ctrls: b.farCtrl,
			DevicesPerAccess: farCfg.Geom.DevicesPerRank, DevicesPerRank: farCfg.Geom.DevicesPerRank},
	}
	return b
}

func (b *dramCacheBackend) setSink(s fillSink) { b.sink = s }

// set maps a line address to its direct-mapped set, the cache channel
// holding that set, and the channel-local address.
func (b *dramCacheBackend) set(lineAddr uint64) (set uint64, ch int, local uint64) {
	set = lineAddr % uint64(len(b.tags))
	n := uint64(len(b.cacheChan))
	return set, int(set % n), set / n
}

// resident reports whether the line currently owns its set.
func (b *dramCacheBackend) resident(lineAddr uint64) bool {
	set, _, _ := b.set(lineAddr)
	return b.tags[set] == lineAddr+1
}

// far maps a line address to its far channel and local address.
func (b *dramCacheBackend) far(lineAddr uint64) (int, uint64) {
	n := uint64(len(b.farChan))
	return int(lineAddr % n), lineAddr / n
}

func (b *dramCacheBackend) CanAcceptFill(lineAddr uint64) bool {
	if b.resident(lineAddr) {
		_, ch, _ := b.set(lineAddr)
		return b.cacheCtrl[ch].CanAcceptRead()
	}
	ch, _ := b.far(lineAddr)
	return b.farCtrl[ch].CanAcceptRead()
}

func (b *dramCacheBackend) CanAcceptPrefetch(lineAddr uint64) bool {
	var ctrl *memctrl.Controller
	if b.resident(lineAddr) {
		_, ch, _ := b.set(lineAddr)
		ctrl = b.cacheCtrl[ch]
	} else {
		ch, _ := b.far(lineAddr)
		ctrl = b.farCtrl[ch]
	}
	rq, _ := ctrl.QueueDepths()
	return float64(rq) < prefetchHeadroom*float64(ctrl.Cfg.ReadQueueSize)
}

// hitIssued schedules critical-beat delivery of a cache-tier read: the
// burst is reordered so the requested word leads, as on any
// conventional line channel.
func (b *dramCacheBackend) hitIssued(r *memctrl.Request) {
	beat := firstBeat(r, b.cacheChan[r.Tag])
	b.eng.ScheduleEventAt(beat, b.critH, r)
	b.eng.ScheduleEventAt(beat, b.reqWordH, r)
}

func (b *dramCacheBackend) hitDone(r *memctrl.Request) {
	b.sink.onLine(entryOf(r))
}

// farIssued schedules critical-beat delivery of a far-tier read.
func (b *dramCacheBackend) farIssued(r *memctrl.Request) {
	beat := firstBeat(r, b.farChan[r.Tag])
	b.eng.ScheduleEventAt(beat, b.critH, r)
	b.eng.ScheduleEventAt(beat, b.reqWordH, r)
}

// farDone installs the missed line into its set (claiming it from
// whatever line owned it — direct-mapped eviction is a tag overwrite,
// with no dirty traffic under the write-through policy) and delivers
// it. The insertion write is best-effort: if the cache controller's
// write queue is full the install is skipped and the set keeps its old
// owner, keeping admission deterministic without retry state.
func (b *dramCacheBackend) farDone(r *memctrl.Request) {
	e := entryOf(r)
	set, ch, local := b.set(e.LineAddr)
	if b.cacheCtrl[ch].CanAcceptWrite() {
		w := b.cacheCtrl[ch].Pool.Get()
		w.Addr = local
		if b.cacheCtrl[ch].EnqueueWrite(w) {
			b.tags[set] = e.LineAddr + 1
		} else {
			b.cacheCtrl[ch].Pool.Put(w)
		}
	}
	b.sink.onLine(e)
}

func (b *dramCacheBackend) IssueFill(e *cache.Entry) bool {
	if b.resident(e.LineAddr) {
		_, ch, local := b.set(e.LineAddr)
		req := b.cacheCtrl[ch].Pool.Get()
		req.Prefetch = e.Prefetch
		req.Ctx = e
		req.Addr = local
		req.Tag = ch
		req.OnIssue = b.hitIssuedFn
		req.OnComplete = b.hitDoneFn
		if !b.cacheCtrl[ch].EnqueueRead(req) {
			b.cacheCtrl[ch].Pool.Put(req)
			return false
		}
		return true
	}
	ch, local := b.far(e.LineAddr)
	req := b.farCtrl[ch].Pool.Get()
	req.Prefetch = e.Prefetch
	req.Ctx = e
	req.Addr = local
	req.Tag = ch
	req.OnIssue = b.farIssuedFn
	req.OnComplete = b.farDoneFn
	if !b.farCtrl[ch].EnqueueRead(req) {
		b.farCtrl[ch].Pool.Put(req)
		return false
	}
	return true
}

func (b *dramCacheBackend) CanAcceptWriteback(lineAddr uint64) bool {
	ch, _ := b.far(lineAddr)
	if !b.farCtrl[ch].CanAcceptWrite() {
		return false
	}
	if b.resident(lineAddr) {
		_, cch, _ := b.set(lineAddr)
		return b.cacheCtrl[cch].CanAcceptWrite()
	}
	return true
}

// IssueWriteback writes through: the far tier always takes the line,
// and a resident copy in the cache tier is updated in place.
func (b *dramCacheBackend) IssueWriteback(lineAddr uint64) bool {
	if !b.CanAcceptWriteback(lineAddr) {
		return false
	}
	if b.resident(lineAddr) {
		_, ch, local := b.set(lineAddr)
		w := b.cacheCtrl[ch].Pool.Get()
		w.Addr = local
		if !b.cacheCtrl[ch].EnqueueWrite(w) {
			panic("core: cache-tier write enqueue failed after capacity check")
		}
	}
	ch, local := b.far(lineAddr)
	req := b.farCtrl[ch].Pool.Get()
	req.Addr = local
	if !b.farCtrl[ch].EnqueueWrite(req) {
		panic("core: far-tier write enqueue failed after capacity check")
	}
	return true
}

// DegradeCrit is a no-op: the organization has no critical-word store.
func (b *dramCacheBackend) DegradeCrit() {}

func (b *dramCacheBackend) Groups() []ChannelGroup { return b.groups }

// lineChannel is the far channel backing the line: the cache tier holds
// only copies.
func (b *dramCacheBackend) lineChannel(lineAddr uint64) int {
	ch, _ := b.far(lineAddr)
	return ch
}
