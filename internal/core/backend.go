package core

import (
	"hetsim/internal/cache"
	"hetsim/internal/dram"
	"hetsim/internal/memctrl"
	"hetsim/internal/sim"
)

// fillSink receives the delivery events of line fills. onCrit fires when
// the word stored on the fast path arrives; onReqWord fires when the
// requested word arrives via the line part (burst-reordered to the first
// beat — meaningful when the requested word is not the placed one);
// onLine fires when the whole line (and its ECC) has arrived.
//
// The Hierarchy is the production sink; passing the in-flight MSHR entry
// as the argument (instead of capturing it in per-fill closures) keeps
// fill issue allocation-free.
type fillSink interface {
	onCrit(e *cache.Entry)
	onReqWord(e *cache.Entry)
	onLine(e *cache.Entry)
}

// ChannelGroup is one set of like channels, each behind its own
// controller, exposed for stats and energy.
type ChannelGroup struct {
	Cfg   dram.Config
	Chans []*dram.Channel
	Ctrls []*memctrl.Controller
}

// newGroup builds n channels of cfg, each behind its own controller
// (tuned by mc) with its own request pool: a channel's in-flight
// requests stay packed in its own slabs, which its queue walks scan, and
// a request always returns to the pool of the controller that issued
// it. A nil bus gives each channel a private address/command bus; a
// non-nil one is shared by all n.
func newGroup(eng *sim.Engine, cfg dram.Config, n int, mc memctrl.Config, bus *dram.CmdBus) ChannelGroup {
	g := ChannelGroup{Cfg: cfg}
	for i := 0; i < n; i++ {
		ch := dram.NewChannel(cfg, 1, bus)
		ctrl := memctrl.New(eng, ch, mc)
		ctrl.Pool = new(memctrl.Pool)
		g.Chans = append(g.Chans, ch)
		g.Ctrls = append(g.Ctrls, ctrl)
	}
	return g
}

// ctrlConfig is the controller default for a channel kind, with the
// given sleep variant.
func ctrlConfig(kind dram.Kind, deepSleep bool) memctrl.Config {
	mc := memctrl.DefaultConfig(kind)
	mc.DeepSleep = deepSleep
	return mc
}

// backend is a main-memory organization: it turns line fills and
// write-backs into DRAM transactions. Delivery events go to the sink
// registered with setSink (exactly one per backend).
type backend interface {
	setSink(s fillSink)
	CanAcceptFill(lineAddr uint64) bool
	// CanAcceptPrefetch additionally requires headroom in the target
	// read queue: prefetches are dropped rather than allowed to build
	// queue pressure that would delay demand traffic.
	CanAcceptPrefetch(lineAddr uint64) bool
	// IssueFill launches the DRAM transactions for MSHR entry e (keyed
	// by e.LineAddr; e.Prefetch selects prefetch priority).
	IssueFill(e *cache.Entry) bool
	CanAcceptWriteback(lineAddr uint64) bool
	IssueWriteback(lineAddr uint64) bool
	// DegradeCrit declares the critical-word store dead (fault layer,
	// §4.2.3 extended): from here on fills and write-backs use the line
	// channels only. A no-op for organizations without one.
	DegradeCrit()
	Groups() []ChannelGroup
	// lineChannel is the index, among the lineChannels of the
	// organization's topology, of the channel holding a line's full
	// copy: the fault layer charges line faults to it.
	lineChannel(lineAddr uint64) int
}

// prefetchHeadroom is the queue-occupancy ceiling for accepting new
// prefetches (fraction of the read queue).
const prefetchHeadroom = 0.5

// prefetchRoom reports whether ctrl's read queue is below the prefetch
// headroom ceiling.
func prefetchRoom(ctrl *memctrl.Controller) bool {
	rq, _ := ctrl.QueueDepths()
	return float64(rq) < prefetchHeadroom*float64(ctrl.Cfg.ReadQueueSize)
}

// read queues a read of the channel-local address addr on ctrl for MSHR
// entry e, with the given hooks. The request comes from ctrl's pool and
// goes back to it if the queue refuses it.
func read(ctrl *memctrl.Controller, addr uint64, e *cache.Entry, onIssue, onComplete func(*memctrl.Request)) bool {
	r := ctrl.Pool.Get()
	r.Addr = addr
	r.Prefetch = e.Prefetch
	r.Ctx = e
	r.OnIssue = onIssue
	r.OnComplete = onComplete
	if !ctrl.EnqueueRead(r) {
		ctrl.Pool.Put(r)
		return false
	}
	return true
}

// write posts a write of the channel-local address addr on ctrl.
func write(ctrl *memctrl.Controller, addr uint64) bool {
	r := ctrl.Pool.Get()
	r.Addr = addr
	if !ctrl.EnqueueWrite(r) {
		ctrl.Pool.Put(r)
		return false
	}
	return true
}

// entryOf recovers the MSHR entry a fill request is serving.
func entryOf(r *memctrl.Request) *cache.Entry { return r.Ctx.(*cache.Entry) }

// fillPath is the delivery plumbing every backend embeds: the sink, and
// the preallocated request hooks and event handlers that turn controller
// callbacks into sink deliveries. Fills reuse these func/handler values
// instead of allocating closures per request.
type fillPath struct {
	eng  *sim.Engine
	sink fillSink

	// OnIssue hooks, delivering on the burst's first (reordered) beat:
	// beatFn the critical and requested words of a conventional line,
	// reqWordFn the requested word only (the line part of a split fill).
	beatFn    func(*memctrl.Request)
	reqWordFn func(*memctrl.Request)
	// OnComplete hooks: the fast-path word, and the whole line.
	critDoneFn func(*memctrl.Request)
	lineDoneFn func(*memctrl.Request)

	beatH    beatDispatch
	reqWordH reqWordDispatch
}

// init wires the hooks; p must not move afterwards.
func (p *fillPath) init(eng *sim.Engine) {
	p.eng = eng
	p.beatH = beatDispatch{p}
	p.reqWordH = reqWordDispatch{p}
	p.beatFn = func(r *memctrl.Request) { p.eng.ScheduleEventAt(r.FirstBeat, p.beatH, r) }
	p.reqWordFn = func(r *memctrl.Request) { p.eng.ScheduleEventAt(r.FirstBeat, p.reqWordH, r) }
	p.critDoneFn = func(r *memctrl.Request) { p.sink.onCrit(entryOf(r)) }
	p.lineDoneFn = func(r *memctrl.Request) { p.sink.onLine(entryOf(r)) }
}

func (p *fillPath) setSink(s fillSink) { p.sink = s }

// beatDispatch delivers a conventional first beat. Burst reordering puts
// the requested word there, and it is also the line's critical word, so
// one event delivers both: crit, then requested word.
type beatDispatch struct{ p *fillPath }

func (d beatDispatch) OnEvent(arg any) {
	e := entryOf(arg.(*memctrl.Request))
	d.p.sink.onCrit(e)
	d.p.sink.onReqWord(e)
}

// reqWordDispatch delivers the leading (requested) word of a line part
// whose critical word travels separately.
type reqWordDispatch struct{ p *fillPath }

func (d reqWordDispatch) OnEvent(arg any) {
	d.p.sink.onReqWord(entryOf(arg.(*memctrl.Request)))
}

// lineBackend is the conventional organization (Figure 5a): full lines
// on homogeneous channels, with conventional burst-reorder CWF. route
// maps a line address to (channel, channel-local line address), the
// channel indexing the groups' controllers in order.
type lineBackend struct {
	fillPath
	ctrls  []*memctrl.Controller
	route  func(lineAddr uint64) (int, uint64)
	groups []ChannelGroup
}

// newLineBackend composes a lineBackend from its channel groups.
func newLineBackend(eng *sim.Engine, groups ...ChannelGroup) *lineBackend {
	b := &lineBackend{groups: groups}
	b.init(eng)
	for _, g := range groups {
		b.ctrls = append(b.ctrls, g.Ctrls...)
	}
	return b
}

// newHomogeneous builds nCh channels of cfg.
func newHomogeneous(eng *sim.Engine, cfg dram.Config, nCh int, deepSleep bool) *lineBackend {
	b := newLineBackend(eng, newGroup(eng, cfg, nCh, ctrlConfig(cfg.Kind, deepSleep), nil))
	b.route = func(la uint64) (int, uint64) {
		return int(la % uint64(nCh)), la / uint64(nCh)
	}
	return b
}

// newPagePlaced builds the §7.1 comparison: nHot full-line channels of
// hotCfg hold the profiled hot pages, nFar channels of farCfg every
// other page. Lines of a page stay on one channel.
func newPagePlaced(eng *sim.Engine, hotCfg dram.Config, nHot int, farCfg dram.Config, nFar int,
	hot map[uint64]bool, deepSleep bool) *lineBackend {
	b := newLineBackend(eng,
		newGroup(eng, hotCfg, nHot, ctrlConfig(hotCfg.Kind, deepSleep), nil),
		newGroup(eng, farCfg, nFar, ctrlConfig(farCfg.Kind, deepSleep), nil))
	const linesPerPage = 64
	b.route = func(la uint64) (int, uint64) {
		page := la / linesPerPage
		if hot[page] {
			return int(page % uint64(nHot)), la
		}
		return nHot + int(page%uint64(nFar)), la
	}
	return b
}

func (b *lineBackend) CanAcceptFill(lineAddr uint64) bool {
	ch, _ := b.route(lineAddr)
	return b.ctrls[ch].CanAcceptRead()
}

func (b *lineBackend) CanAcceptPrefetch(lineAddr uint64) bool {
	ch, _ := b.route(lineAddr)
	return prefetchRoom(b.ctrls[ch])
}

func (b *lineBackend) IssueFill(e *cache.Entry) bool {
	ch, local := b.route(e.LineAddr)
	return read(b.ctrls[ch], local, e, b.beatFn, b.lineDoneFn)
}

func (b *lineBackend) CanAcceptWriteback(lineAddr uint64) bool {
	ch, _ := b.route(lineAddr)
	return b.ctrls[ch].CanAcceptWrite()
}

func (b *lineBackend) IssueWriteback(lineAddr uint64) bool {
	ch, local := b.route(lineAddr)
	return write(b.ctrls[ch], local)
}

// DegradeCrit is a no-op: homogeneous organizations have no separate
// critical-word store to lose.
func (b *lineBackend) DegradeCrit() {}

func (b *lineBackend) Groups() []ChannelGroup { return b.groups }

func (b *lineBackend) lineChannel(lineAddr uint64) int {
	ch, _ := b.route(lineAddr)
	return ch
}

// cwfBackend is the split organization of Figure 5c: four line channels
// carrying words 1-7 + ECC, and four x9 critical-word sub-channels (one
// rank each) behind a single shared double-pumped address/command bus.
// Line addresses interleave over the line channels; the crit
// sub-channel index folds onto len(critCtrl).
type cwfBackend struct {
	fillPath
	lineCtrl []*memctrl.Controller
	critCtrl []*memctrl.Controller
	groups   []ChannelGroup

	// critDead is set by DegradeCrit: the RLDRAM DIMM is lost and the
	// organization serves everything from the line channels (no early
	// word, conventional burst-reorder only).
	critDead bool
}

// cwfOptions tune the split organization: channel counts per role
// (from the topology's crit and line groups) and the §4.2.4 ablations.
type cwfOptions struct {
	lineChans     int // full-line channels (0 = the Table 1 default of 4)
	critSubs      int // critical sub-channels (0 = one per line channel)
	deepSleep     bool
	privateCmdBus bool // one addr/cmd bus per sub-channel
	wideRank      bool // one 4-chip 36-bit rank instead of narrow x9 ranks
}

func newCWF(eng *sim.Engine, lineCfg, critCfg dram.Config, opt cwfOptions) *cwfBackend {
	if opt.lineChans == 0 {
		opt.lineChans = Channels
	}
	critSubs := opt.critSubs
	if critSubs == 0 {
		critSubs = opt.lineChans
	}
	if opt.wideRank {
		// §4.2.4 pre-optimization organization: word 0 and parity are
		// striped across 4 chips on a 36-bit bus — one sub-channel,
		// bursts complete in a single bus cycle, 4 chips activate.
		critSubs = 1
		critCfg.Timing.Burst = critCfg.Timing.BusCycle
		critCfg.Geom.DevicesPerRank = 4
	}
	line := newGroup(eng, lineCfg, opt.lineChans, ctrlConfig(lineCfg.Kind, opt.deepSleep), nil)
	// The sub-channels share one physical controller's queue capacity
	// (§4.2.4 aggregates them onto one controller).
	mc := memctrl.DefaultConfig(critCfg.Kind)
	mc.ReadQueueSize = 48 / critSubs
	mc.WriteQueueSize = 48 / critSubs
	mc.HighWatermark = 32 / critSubs
	mc.LowWatermark = 16 / critSubs
	var bus *dram.CmdBus
	if !opt.privateCmdBus {
		bus = &dram.CmdBus{}
	}
	crit := newGroup(eng, critCfg, critSubs, mc, bus)
	b := &cwfBackend{lineCtrl: line.Ctrls, critCtrl: crit.Ctrls, groups: []ChannelGroup{line, crit}}
	b.init(eng)
	return b
}

// split routes a line address to its line channel and local address.
func (b *cwfBackend) split(lineAddr uint64) (ch int, local uint64) {
	n := uint64(len(b.lineCtrl))
	return int(lineAddr % n), lineAddr / n
}

// critSub maps a line channel index to its critical sub-channel. When
// fewer sub-channels than line channels exist (the wide rank, or a
// topology with a reduced crit count), line channels fold onto them
// round-robin; the counts divide, so the fold is uniform.
func (b *cwfBackend) critSub(ch int) int {
	return ch % len(b.critCtrl)
}

// critLocal is the sub-channel-local address of a line's critical word:
// line addresses interleave over the sub-channels exactly as they do
// over the line channels. With one sub-channel per line channel this
// equals the line-local address; a single wide rank sees the raw line
// address.
func (b *cwfBackend) critLocal(lineAddr uint64) uint64 {
	return lineAddr / uint64(len(b.critCtrl))
}

func (b *cwfBackend) CanAcceptFill(lineAddr uint64) bool {
	ch, _ := b.split(lineAddr)
	if b.critDead {
		return b.lineCtrl[ch].CanAcceptRead()
	}
	return b.lineCtrl[ch].CanAcceptRead() && b.critCtrl[b.critSub(ch)].CanAcceptRead()
}

func (b *cwfBackend) CanAcceptPrefetch(lineAddr uint64) bool {
	ch, _ := b.split(lineAddr)
	if !prefetchRoom(b.lineCtrl[ch]) {
		return false
	}
	return b.critDead || prefetchRoom(b.critCtrl[b.critSub(ch)])
}

// IssueFill reads the critical word from its sub-channel (delivered
// whole, word plus parity, on completion) and the line part from its
// line channel (requested word on the first beat, then the line).
func (b *cwfBackend) IssueFill(e *cache.Entry) bool {
	ch, local := b.split(e.LineAddr)
	line := b.lineCtrl[ch]
	if b.critDead {
		// Degraded mode: line part only. The caller marks the entry
		// NoCrit so completion does not wait for an early word.
		return read(line, local, e, b.reqWordFn, b.lineDoneFn)
	}
	crit := b.critCtrl[b.critSub(ch)]
	if !line.CanAcceptRead() || !read(crit, b.critLocal(e.LineAddr), e, nil, b.critDoneFn) {
		return false
	}
	if !read(line, local, e, b.reqWordFn, b.lineDoneFn) {
		// CanAcceptRead was checked above; a failure here is a bug.
		panic("core: line enqueue failed after capacity check")
	}
	return true
}

func (b *cwfBackend) CanAcceptWriteback(lineAddr uint64) bool {
	ch, _ := b.split(lineAddr)
	if b.critDead {
		return b.lineCtrl[ch].CanAcceptWrite()
	}
	return b.lineCtrl[ch].CanAcceptWrite() && b.critCtrl[b.critSub(ch)].CanAcceptWrite()
}

func (b *cwfBackend) IssueWriteback(lineAddr uint64) bool {
	if !b.CanAcceptWriteback(lineAddr) {
		return false
	}
	ch, local := b.split(lineAddr)
	if !b.critDead && !write(b.critCtrl[b.critSub(ch)], b.critLocal(lineAddr)) {
		return false
	}
	if !write(b.lineCtrl[ch], local) {
		panic("core: line write enqueue failed after capacity check")
	}
	return true
}

// DegradeCrit switches the organization to line-only service: the
// critical sub-channels accept no further traffic (in-flight critical
// reads still drain and deliver — their data is simply stale garbage
// the parity gate already rejected).
func (b *cwfBackend) DegradeCrit() { b.critDead = true }

func (b *cwfBackend) Groups() []ChannelGroup { return b.groups }

func (b *cwfBackend) lineChannel(lineAddr uint64) int {
	ch, _ := b.split(lineAddr)
	return ch
}
