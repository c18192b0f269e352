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
	fillPath
	cacheCtrl []*memctrl.Controller
	farCtrl   []*memctrl.Controller
	groups    []ChannelGroup

	// tags holds lineAddr+1 per set (0 = invalid). Sets interleave
	// across the cache channels the way lines interleave across line
	// channels. Preallocated: the steady state allocates nothing.
	tags []uint64

	farDoneFn func(*memctrl.Request)
}

// newDRAMCache builds nCache cache channels of cacheCfg holding capMB
// MB of line cache each, and nFar far channels of farCfg.
func newDRAMCache(eng *sim.Engine, cacheCfg dram.Config, nCache, capMB int, farCfg dram.Config, nFar int, deepSleep bool) *dramCacheBackend {
	cacheG := newGroup(eng, cacheCfg, nCache, ctrlConfig(cacheCfg.Kind, deepSleep), nil)
	farG := newGroup(eng, farCfg, nFar, ctrlConfig(farCfg.Kind, deepSleep), nil)
	b := &dramCacheBackend{
		cacheCtrl: cacheG.Ctrls,
		farCtrl:   farG.Ctrls,
		groups:    []ChannelGroup{cacheG, farG},
		tags:      make([]uint64, uint64(capMB)<<20/cache.LineSize*uint64(nCache)),
	}
	b.init(eng)
	b.farDoneFn = b.farDone
	return b
}

// set maps a line address to its direct-mapped set, the cache channel
// holding that set, and the channel-local address.
func (b *dramCacheBackend) set(lineAddr uint64) (set uint64, ch int, local uint64) {
	set = lineAddr % uint64(len(b.tags))
	n := uint64(len(b.cacheCtrl))
	return set, int(set % n), set / n
}

// resident reports whether the line currently owns its set.
func (b *dramCacheBackend) resident(lineAddr uint64) bool {
	set, _, _ := b.set(lineAddr)
	return b.tags[set] == lineAddr+1
}

// far maps a line address to its far channel and local address.
func (b *dramCacheBackend) far(lineAddr uint64) (int, uint64) {
	n := uint64(len(b.farCtrl))
	return int(lineAddr % n), lineAddr / n
}

// source is the controller and local address serving a fill of the
// line: the cache tier when it is resident (hit), the far tier
// otherwise.
func (b *dramCacheBackend) source(lineAddr uint64) (ctrl *memctrl.Controller, local uint64, hit bool) {
	if b.resident(lineAddr) {
		_, ch, local := b.set(lineAddr)
		return b.cacheCtrl[ch], local, true
	}
	ch, local := b.far(lineAddr)
	return b.farCtrl[ch], local, false
}

func (b *dramCacheBackend) CanAcceptFill(lineAddr uint64) bool {
	ctrl, _, _ := b.source(lineAddr)
	return ctrl.CanAcceptRead()
}

func (b *dramCacheBackend) CanAcceptPrefetch(lineAddr uint64) bool {
	ctrl, _, _ := b.source(lineAddr)
	return prefetchRoom(ctrl)
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
	if write(b.cacheCtrl[ch], local) {
		b.tags[set] = e.LineAddr + 1
	}
	b.sink.onLine(e)
}

// IssueFill reads the line from its source; either tier's burst is
// reordered so the requested word leads, as on any conventional line
// channel.
func (b *dramCacheBackend) IssueFill(e *cache.Entry) bool {
	ctrl, local, hit := b.source(e.LineAddr)
	done := b.farDoneFn
	if hit {
		done = b.lineDoneFn
	}
	return read(ctrl, local, e, b.beatFn, done)
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
		if !write(b.cacheCtrl[ch], local) {
			panic("core: cache-tier write enqueue failed after capacity check")
		}
	}
	ch, local := b.far(lineAddr)
	if !write(b.farCtrl[ch], local) {
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
