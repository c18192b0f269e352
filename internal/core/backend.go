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

// ChannelGroup exposes one set of like channels for stats and energy.
type ChannelGroup struct {
	Kind             dram.Kind
	Cfg              dram.Config
	Chans            []*dram.Channel
	Ctrls            []*memctrl.Controller
	DevicesPerAccess int
	DevicesPerRank   int
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
}

// prefetchHeadroom is the queue-occupancy ceiling for accepting new
// prefetches (fraction of the read queue).
const prefetchHeadroom = 0.5

// firstBeat is when the first (reordered, critical) word of a burst is
// on the pins: one DDR beat after data start.
func firstBeat(r *memctrl.Request, ch *dram.Channel) sim.Cycle {
	b := r.DataStart + ch.Cfg.Timing.BusCycle/2
	if b <= r.DataStart {
		b = r.DataStart + 1
	}
	return b
}

// entryOf recovers the MSHR entry a fill request is serving.
func entryOf(r *memctrl.Request) *cache.Entry { return r.Ctx.(*cache.Entry) }

// lineBackend is the conventional organization (Figure 5a): full lines
// on homogeneous channels, with conventional burst-reorder CWF. route
// maps a line address to (channel, channel-local line address).
type lineBackend struct {
	eng   *sim.Engine
	ctrls []*memctrl.Controller
	chans []*dram.Channel
	route func(lineAddr uint64) (int, uint64)
	group []ChannelGroup

	sink fillSink
	pool memctrl.Pool

	// Preallocated request hooks and event handlers: fills reuse these
	// func/handler values instead of allocating closures per request.
	fillIssuedFn func(*memctrl.Request)
	fillDoneFn   func(*memctrl.Request)
	critH        lineCritDispatch
	reqWordH     lineReqWordDispatch
}

// lineCritDispatch delivers the burst-reordered critical beat.
type lineCritDispatch struct{ b *lineBackend }

func (d lineCritDispatch) OnEvent(arg any) {
	d.b.sink.onCrit(entryOf(arg.(*memctrl.Request)))
}

// lineReqWordDispatch delivers the requested word on the same beat.
type lineReqWordDispatch struct{ b *lineBackend }

func (d lineReqWordDispatch) OnEvent(arg any) {
	d.b.sink.onReqWord(entryOf(arg.(*memctrl.Request)))
}

// newLineBackend wires the shared hooks of a lineBackend.
func newLineBackend(eng *sim.Engine) *lineBackend {
	b := &lineBackend{eng: eng}
	b.fillIssuedFn = b.fillIssued
	b.fillDoneFn = b.fillDone
	b.critH = lineCritDispatch{b}
	b.reqWordH = lineReqWordDispatch{b}
	return b
}

// addCtrl registers a controller and hooks it to the shared pool.
func (b *lineBackend) addCtrl(ch *dram.Channel, ctrl *memctrl.Controller) {
	ctrl.Pool = &b.pool
	b.chans = append(b.chans, ch)
	b.ctrls = append(b.ctrls, ctrl)
}

// newHomogeneous builds nCh channels of cfg with controller defaults
// for its kind (and the given sleep variant).
func newHomogeneous(eng *sim.Engine, cfg dram.Config, nCh int, deepSleep bool) *lineBackend {
	b := newLineBackend(eng)
	for i := 0; i < nCh; i++ {
		ch := dram.NewChannel(cfg, 1, nil)
		mc := memctrl.DefaultConfig(cfg.Kind)
		mc.DeepSleep = deepSleep
		b.addCtrl(ch, memctrl.New(eng, ch, mc))
	}
	b.route = func(la uint64) (int, uint64) {
		return int(la % uint64(nCh)), la / uint64(nCh)
	}
	b.group = []ChannelGroup{{Kind: cfg.Kind, Cfg: cfg, Chans: b.chans, Ctrls: b.ctrls,
		DevicesPerAccess: cfg.Geom.DevicesPerRank, DevicesPerRank: cfg.Geom.DevicesPerRank}}
	return b
}

func (b *lineBackend) setSink(s fillSink) { b.sink = s }

func (b *lineBackend) CanAcceptFill(lineAddr uint64) bool {
	ch, _ := b.route(lineAddr)
	return b.ctrls[ch].CanAcceptRead()
}

func (b *lineBackend) CanAcceptPrefetch(lineAddr uint64) bool {
	ch, _ := b.route(lineAddr)
	rq, _ := b.ctrls[ch].QueueDepths()
	return float64(rq) < prefetchHeadroom*float64(b.ctrls[ch].Cfg.ReadQueueSize)
}

// fillIssued (via Request.OnIssue) schedules critical-beat delivery: the
// burst is reordered so the requested word leads.
func (b *lineBackend) fillIssued(r *memctrl.Request) {
	beat := firstBeat(r, b.chans[r.Tag])
	b.eng.ScheduleEventAt(beat, b.critH, r)
	b.eng.ScheduleEventAt(beat, b.reqWordH, r)
}

// fillDone (via Request.OnComplete) delivers the full line.
func (b *lineBackend) fillDone(r *memctrl.Request) {
	b.sink.onLine(entryOf(r))
}

func (b *lineBackend) IssueFill(e *cache.Entry) bool {
	chIdx, local := b.route(e.LineAddr)
	req := b.pool.Get()
	req.Addr = local
	req.Prefetch = e.Prefetch
	req.Ctx = e
	req.Tag = chIdx
	req.OnIssue = b.fillIssuedFn
	req.OnComplete = b.fillDoneFn
	if !b.ctrls[chIdx].EnqueueRead(req) {
		b.pool.Put(req)
		return false
	}
	return true
}

func (b *lineBackend) CanAcceptWriteback(lineAddr uint64) bool {
	ch, _ := b.route(lineAddr)
	return b.ctrls[ch].CanAcceptWrite()
}

func (b *lineBackend) IssueWriteback(lineAddr uint64) bool {
	ch, local := b.route(lineAddr)
	req := b.pool.Get()
	req.Addr = local
	if !b.ctrls[ch].EnqueueWrite(req) {
		b.pool.Put(req)
		return false
	}
	return true
}

// DegradeCrit is a no-op: homogeneous organizations have no separate
// critical-word store to lose.
func (b *lineBackend) DegradeCrit() {}

func (b *lineBackend) Groups() []ChannelGroup { return b.group }

// cwfBackend is the split organization of Figure 5c: four line channels
// carrying words 1-7 + ECC, and four x9 critical-word sub-channels (one
// rank each) behind a single shared double-pumped address/command bus.
type cwfBackend struct {
	eng       *sim.Engine
	lineCtrl  []*memctrl.Controller
	lineChan  []*dram.Channel
	critCtrl  []*memctrl.Controller
	critChan  []*dram.Channel
	sharedCmd *dram.CmdBus
	// nLine is the line-channel count; line addresses interleave over
	// it, and the crit sub-channel index folds onto len(critCtrl).
	nLine  int
	groups []ChannelGroup

	// critDead is set by DegradeCrit: the RLDRAM DIMM is lost and the
	// organization serves everything from the line channels (no early
	// word, conventional burst-reorder only).
	critDead bool

	sink fillSink

	critDoneFn   func(*memctrl.Request)
	lineIssuedFn func(*memctrl.Request)
	lineDoneFn   func(*memctrl.Request)
	reqWordH     cwfReqWordDispatch
}

// cwfReqWordDispatch delivers the line part's leading (requested) word.
type cwfReqWordDispatch struct{ b *cwfBackend }

func (d cwfReqWordDispatch) OnEvent(arg any) {
	d.b.sink.onReqWord(entryOf(arg.(*memctrl.Request)))
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
	if opt.critSubs == 0 {
		opt.critSubs = opt.lineChans
	}
	b := &cwfBackend{eng: eng, sharedCmd: &dram.CmdBus{}, nLine: opt.lineChans}
	b.critDoneFn = b.critDone
	b.lineIssuedFn = b.lineIssued
	b.lineDoneFn = b.lineDone
	b.reqWordH = cwfReqWordDispatch{b}
	critSubs := opt.critSubs
	devsPerAccess := 1
	devsPerRank := 1
	if opt.wideRank {
		// §4.2.4 pre-optimization organization: word 0 and parity are
		// striped across 4 chips on a 36-bit bus — one sub-channel,
		// bursts complete in a single bus cycle, 4 chips activate.
		critSubs = 1
		critCfg.Timing.Burst = critCfg.Timing.BusCycle
		devsPerAccess = 4
		devsPerRank = 4
	}
	for i := 0; i < opt.lineChans; i++ {
		lc := dram.NewChannel(lineCfg, 1, nil)
		lcc := memctrl.DefaultConfig(lineCfg.Kind)
		lcc.DeepSleep = opt.deepSleep
		ctrl := memctrl.New(eng, lc, lcc)
		// One request pool per controller: each channel's in-flight
		// requests stay packed in that channel's own slabs, which its
		// queue walks scan, and a request always returns to the pool of
		// the controller that issued it.
		ctrl.Pool = new(memctrl.Pool)
		b.lineChan = append(b.lineChan, lc)
		b.lineCtrl = append(b.lineCtrl, ctrl)
	}
	for i := 0; i < critSubs; i++ {
		bus := b.sharedCmd
		if opt.privateCmdBus {
			bus = &dram.CmdBus{}
		}
		cc := dram.NewChannel(critCfg, 1, bus)
		ccc := memctrl.DefaultConfig(critCfg.Kind)
		// The sub-channels share one physical controller's queue
		// capacity (§4.2.4 aggregates them onto one controller).
		ccc.ReadQueueSize = 48 / critSubs
		ccc.WriteQueueSize = 48 / critSubs
		ccc.HighWatermark = 32 / critSubs
		ccc.LowWatermark = 16 / critSubs
		ctrl := memctrl.New(eng, cc, ccc)
		ctrl.Pool = new(memctrl.Pool)
		b.critChan = append(b.critChan, cc)
		b.critCtrl = append(b.critCtrl, ctrl)
	}
	b.groups = []ChannelGroup{
		{Kind: lineCfg.Kind, Cfg: lineCfg, Chans: b.lineChan, Ctrls: b.lineCtrl,
			DevicesPerAccess: lineCfg.Geom.DevicesPerRank, DevicesPerRank: lineCfg.Geom.DevicesPerRank},
		{Kind: critCfg.Kind, Cfg: critCfg, Chans: b.critChan, Ctrls: b.critCtrl,
			DevicesPerAccess: devsPerAccess, DevicesPerRank: devsPerRank},
	}
	return b
}

func (b *cwfBackend) setSink(s fillSink) { b.sink = s }

// split routes a line address to its line channel and local address.
func (b *cwfBackend) split(lineAddr uint64) (ch int, local uint64) {
	return int(lineAddr % uint64(b.nLine)), lineAddr / uint64(b.nLine)
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
	lrq, _ := b.lineCtrl[ch].QueueDepths()
	if float64(lrq) >= prefetchHeadroom*float64(b.lineCtrl[ch].Cfg.ReadQueueSize) {
		return false
	}
	if b.critDead {
		return true
	}
	cs := b.critSub(ch)
	crq, _ := b.critCtrl[cs].QueueDepths()
	return float64(crq) < prefetchHeadroom*float64(b.critCtrl[cs].Cfg.ReadQueueSize)
}

// critDone (via Request.OnComplete) delivers the fast-path word: the
// whole 8-byte word (plus parity) has arrived over the x9 sub-channel.
func (b *cwfBackend) critDone(r *memctrl.Request) {
	b.sink.onCrit(entryOf(r))
}

// lineIssued (via Request.OnIssue) schedules requested-word delivery on
// the line part's first (reordered) beat.
func (b *cwfBackend) lineIssued(r *memctrl.Request) {
	b.eng.ScheduleEventAt(firstBeat(r, b.lineChan[r.Tag]), b.reqWordH, r)
}

// lineDone (via Request.OnComplete) delivers the full line.
func (b *cwfBackend) lineDone(r *memctrl.Request) {
	b.sink.onLine(entryOf(r))
}

func (b *cwfBackend) IssueFill(e *cache.Entry) bool {
	chIdx, local := b.split(e.LineAddr)
	if b.critDead {
		// Degraded mode: line part only. The caller marks the entry
		// NoCrit so completion does not wait for an early word.
		if !b.lineCtrl[chIdx].CanAcceptRead() {
			return false
		}
		lineReq := b.lineCtrl[chIdx].Pool.Get()
		lineReq.Addr = local
		lineReq.Prefetch = e.Prefetch
		lineReq.Ctx = e
		lineReq.Tag = chIdx
		lineReq.OnIssue = b.lineIssuedFn
		lineReq.OnComplete = b.lineDoneFn
		if !b.lineCtrl[chIdx].EnqueueRead(lineReq) {
			b.lineCtrl[chIdx].Pool.Put(lineReq)
			return false
		}
		return true
	}
	cs := b.critSub(chIdx)
	if !b.lineCtrl[chIdx].CanAcceptRead() || !b.critCtrl[cs].CanAcceptRead() {
		return false
	}
	critReq := b.critCtrl[cs].Pool.Get()
	critReq.Addr = b.critLocal(e.LineAddr)
	critReq.Prefetch = e.Prefetch
	critReq.Ctx = e
	critReq.OnComplete = b.critDoneFn
	if !b.critCtrl[cs].EnqueueRead(critReq) {
		b.critCtrl[cs].Pool.Put(critReq)
		return false
	}
	lineReq := b.lineCtrl[chIdx].Pool.Get()
	lineReq.Addr = local
	lineReq.Prefetch = e.Prefetch
	lineReq.Ctx = e
	lineReq.Tag = chIdx
	lineReq.OnIssue = b.lineIssuedFn
	lineReq.OnComplete = b.lineDoneFn
	if !b.lineCtrl[chIdx].EnqueueRead(lineReq) {
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
	ch, local := b.split(lineAddr)
	if !b.CanAcceptWriteback(lineAddr) {
		return false
	}
	if !b.critDead {
		cs := b.critSub(ch)
		critReq := b.critCtrl[cs].Pool.Get()
		critReq.Addr = b.critLocal(lineAddr)
		if !b.critCtrl[cs].EnqueueWrite(critReq) {
			b.critCtrl[cs].Pool.Put(critReq)
			return false
		}
	}
	lineReq := b.lineCtrl[ch].Pool.Get()
	lineReq.Addr = local
	if !b.lineCtrl[ch].EnqueueWrite(lineReq) {
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

// newPagePlaced builds the §7.1 comparison: channel 0 is a half-size
// full-line RLDRAM3 channel holding the profiled hot pages; channels
// 1..3 are LPDDR2. Lines of a page stay on one channel.
func newPagePlaced(eng *sim.Engine, hot map[uint64]bool, deepSleep bool) *lineBackend {
	b := newLineBackend(eng)
	kinds := []dram.Config{dram.RLDRAM3Config(), dram.LPDDR2Config(), dram.LPDDR2Config(), dram.LPDDR2Config()}
	for _, cfg := range kinds {
		ch := dram.NewChannel(cfg, 1, nil)
		mc := memctrl.DefaultConfig(cfg.Kind)
		mc.DeepSleep = deepSleep
		b.addCtrl(ch, memctrl.New(eng, ch, mc))
	}
	const linesPerPage = 64
	b.route = func(la uint64) (int, uint64) {
		page := la / linesPerPage
		if hot[page] {
			return 0, la
		}
		return 1 + int(page%3), la
	}
	b.group = []ChannelGroup{
		{Kind: dram.RLDRAM3, Cfg: kinds[0], Chans: b.chans[:1], Ctrls: b.ctrls[:1],
			DevicesPerAccess: 9, DevicesPerRank: 9},
		{Kind: dram.LPDDR2, Cfg: kinds[1], Chans: b.chans[1:], Ctrls: b.ctrls[1:],
			DevicesPerAccess: 8, DevicesPerRank: 8},
	}
	return b
}
