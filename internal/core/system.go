package core

import (
	"errors"
	"fmt"
	"strconv"

	"hetsim/internal/cpu"
	"hetsim/internal/dram"
	"hetsim/internal/memctrl"
	"hetsim/internal/power"
	"hetsim/internal/sim"
	"hetsim/internal/stats"
	"hetsim/internal/telemetry"
	"hetsim/internal/topology"
	"hetsim/internal/workload"
)

// System is one complete simulated machine running one workload.
type System struct {
	Eng   *sim.Engine
	Cfg   SystemConfig
	Spec  workload.Spec
	Cores []*cpu.Core
	Hier  *Hierarchy
	mem   backend
	gens  []*workload.Generator

	// Reg is the machine's metric registry: every component publishes
	// its counters here at construction, and both the end-of-run
	// summary (collect) and the epoch sampler read from it.
	Reg *telemetry.Registry

	sampler    *telemetry.Sampler
	nextSample sim.Cycle

	// wakeSig counts memory-response wakes delivered to any core; drive
	// compares it across engine runs to skip the per-core scan on
	// iterations where only memory-side events fired.
	wakeSig uint64

	// started latches at the first Run, the only one that prewarms.
	started bool

	// wakes is the next cycle each core wants stepping. It outlives a
	// drive call, so the warmup→measure restart steps no core early or
	// twice at the stop cycle.
	wakes []sim.Cycle
}

// coreRegionBytes is the address-space slice per multiprogrammed copy.
const coreRegionBytes = 1 << 30 // 1GB each, 8GB total (Table 1)

// Generators builds the trace generator of each of nCores cores
// running spec under the run seed: multiprogrammed copies get disjoint
// coreRegionBytes slices, multithreaded ones share one address space.
func Generators(spec workload.Spec, nCores int, seed uint64) []*workload.Generator {
	gens := make([]*workload.Generator, nCores)
	for i := range gens {
		base := uint64(0)
		if !spec.Multithreaded {
			base = uint64(i) * coreRegionBytes
		}
		gens[i] = workload.NewGenerator(spec, i, nCores, base, seed+1)
	}
	return gens
}

// NewSystem wires a machine for the given benchmark.
func NewSystem(cfg SystemConfig, spec workload.Spec) (*System, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	eng := &sim.Engine{}
	mem := buildBackend(eng, cfg)
	s := &System{Eng: eng, Cfg: cfg, Spec: spec, mem: mem}
	if cfg.FCFS {
		for _, g := range mem.Groups() {
			for _, ctrl := range g.Ctrls {
				ctrl.Cfg.FCFS = true
			}
		}
	}
	s.Hier = newHierarchy(eng, cfg, mem, spec.Multithreaded)
	coreCfg := cpu.DefaultConfig()
	if cfg.ROBSize > 0 {
		coreCfg.ROBSize = cfg.ROBSize
	}
	s.gens = Generators(spec, cfg.NCores, cfg.Seed)
	for i, gen := range s.gens {
		core := cpu.New(i, coreCfg, gen, s.Hier)
		core.WakeHook = func() { s.wakeSig++ }
		s.Cores = append(s.Cores, core)
	}
	s.wakes = make([]sim.Cycle, len(s.Cores))
	s.registerMetrics()
	return s, nil
}

// registerMetrics builds the system's registry. Order is the epoch
// column order and must be deterministic: engine, cores, hierarchy
// (plus faults), then per-group controllers, channel aggregates and
// energy. collect depends on the names, not the order.
func (s *System) registerMetrics() {
	reg := telemetry.NewRegistry()
	s.Reg = reg
	eng := s.Eng
	reg.Accum("sim.events", func() float64 { return float64(eng.EventsFired()) })
	for i, c := range s.Cores {
		c.RegisterMetrics(reg, fmt.Sprintf("cpu%d.", i))
	}
	s.Hier.registerMetrics(reg)

	groups := s.mem.Groups()
	for gi := range groups {
		g := groups[gi]
		prefix := fmt.Sprintf("mem.g%d.", gi)
		for ci, ctrl := range g.Ctrls {
			ctrl.RegisterMetrics(reg, fmt.Sprintf("%sc%d.", prefix, ci))
		}
		reg.Accum(prefix+"acts", groupCounter(g, func(st *dram.Stats) uint64 { return st.Acts }))
		reg.Accum(prefix+"reads", groupCounter(g, func(st *dram.Stats) uint64 { return st.Reads }))
		reg.Accum(prefix+"writes", groupCounter(g, func(st *dram.Stats) uint64 { return st.Writes }))
		reg.Accum(prefix+"refreshes", groupCounter(g, func(st *dram.Stats) uint64 { return st.Refreshes }))
		reg.Accum(prefix+"data_busy", groupDataBusy(g))
		reg.Accum(prefix+"active_cyc", groupStateCycles(eng, g, dram.PSActive))
		reg.Accum(prefix+"pd_cyc", groupStateCycles(eng, g, dram.PSPowerDown))
		reg.Accum(prefix+"deep_cyc", groupStateCycles(eng, g, dram.PSDeepPowerDown))
		reg.Accum(prefix+"energy_mj", power.Probe(s.chipFor(g), power.TimingFor(g.Cfg.Timing), groupActivity(eng, g)))
	}
	// Whole-memory read-latency aggregates, summed in group/controller
	// order — the same order collect's predecessor accumulated them in,
	// which keeps the float arithmetic bit-identical.
	reg.MeanFunc("mem.queue_lat", ctrlSum(groups, func(l *stats.LatencyBreakdown) *stats.Mean { return &l.Queue }))
	reg.MeanFunc("mem.core_lat", ctrlSum(groups, func(l *stats.LatencyBreakdown) *stats.Mean { return &l.Core }))
	reg.MeanFunc("mem.xfer_lat", ctrlSum(groups, func(l *stats.LatencyBreakdown) *stats.Mean { return &l.Xfer }))
}

// chipFor selects the energy model for a channel group, including the
// §6.1.3 deep-sleep LPDDR2 variant.
func (s *System) chipFor(g ChannelGroup) power.ChipParams {
	chip := power.ChipFor(g.Cfg.Kind)
	if g.Cfg.Kind == dram.LPDDR2 && s.Cfg.DeepSleepLP {
		chip = power.LPDDR2MalladiChip()
	}
	return chip
}

// groupCounter sums one dram.Stats counter across a group's channels.
func groupCounter(g ChannelGroup, f func(*dram.Stats) uint64) func() float64 {
	return func() float64 {
		var sum uint64
		for _, ch := range g.Chans {
			sum += f(&ch.Stat)
		}
		return float64(sum)
	}
}

// groupDataBusy sums data-bus busy cycles across a group's channels.
func groupDataBusy(g ChannelGroup) func() float64 {
	return func() float64 {
		var sum sim.Cycle
		for _, ch := range g.Chans {
			sum += ch.Stat.DataBusy
		}
		return float64(sum)
	}
}

// groupStateCycles sums rank power-state residency across a group.
// Channel state accounting is lazy, so each read finalizes to now
// first — an accounting split that leaves later totals unchanged.
func groupStateCycles(eng *sim.Engine, g ChannelGroup, ps dram.PowerState) func() float64 {
	return func() float64 {
		now := eng.Now()
		var sum sim.Cycle
		for _, ch := range g.Chans {
			ch.Finalize(now)
			for rk := 0; rk < ch.Ranks(); rk++ {
				sum += ch.StateCycles(rk, ps)
			}
		}
		return float64(sum)
	}
}

// groupActivity assembles a cumulative power.ChannelActivity for the
// epoch energy probe.
func groupActivity(eng *sim.Engine, g ChannelGroup) func() power.ChannelActivity {
	return func() power.ChannelActivity {
		now := eng.Now()
		var a power.ChannelActivity
		a.Elapsed = now
		a.DevicesPerRank = g.Cfg.Geom.DevicesPerRank
		a.DevicesPerAccess = g.Cfg.Geom.DevicesPerRank
		for _, ch := range g.Chans {
			ch.Finalize(now)
			a.Acts += ch.Stat.Acts
			a.Reads += ch.Stat.Reads
			a.Writes += ch.Stat.Writes
			a.Refreshes += ch.Stat.Refreshes
			for rk := 0; rk < ch.Ranks(); rk++ {
				a.ActiveCycles += ch.StateCycles(rk, dram.PSActive)
				a.PDCycles += ch.StateCycles(rk, dram.PSPowerDown)
				a.DeepCycles += ch.StateCycles(rk, dram.PSDeepPowerDown)
			}
		}
		return a
	}
}

// ctrlSum aggregates one latency component's running (sum, n) across
// every controller of every group, in registration order.
func ctrlSum(groups []ChannelGroup, pick func(*stats.LatencyBreakdown) *stats.Mean) func() (float64, float64) {
	return func() (float64, float64) {
		var sum float64
		var n int64
		for _, g := range groups {
			for _, c := range g.Ctrls {
				m := pick(&c.Stats.Reads)
				sum += m.Sum()
				n += m.N()
			}
		}
		return sum, float64(n)
	}
}

// buildBackend assembles the memory organization of a validated config
// from the groups of its topology. The line-bearing group (line,
// unified or far-tier) takes the close-page and address-mapping
// ablations.
func buildBackend(eng *sim.Engine, cfg SystemConfig) backend {
	spec := cfg.Topology
	group := func(r topology.Role) (topology.ChannelGroup, dram.Config) {
		g, _ := spec.Group(r)
		dc, _ := deviceConfigFor(g) // Validate vetted every group's kind
		if cfg.ClosePageLines && (r == topology.RoleLine || r == topology.RoleUnified || r == topology.RoleFarTier) {
			dc.Policy = dram.ClosePage
		}
		return g, dc
	}
	var mem backend
	var lines ChannelGroup
	switch spec.Shape() {
	case topology.ShapeCWF:
		crit, critCfg := group(topology.RoleCrit)
		line, lineCfg := group(topology.RoleLine)
		b := newCWF(eng, lineCfg, critCfg, cwfOptions{
			lineChans:     line.Count,
			critSubs:      crit.Count,
			deepSleep:     cfg.DeepSleepLP,
			privateCmdBus: crit.Bus == topology.BusPrivate,
			wideRank:      crit.Wide,
		})
		mem, lines = b, b.groups[0]
	case topology.ShapeCache:
		cacheG, cacheCfg := group(topology.RoleCacheTier)
		farG, farCfg := group(topology.RoleFarTier)
		b := newDRAMCache(eng, cacheCfg, cacheG.Count, cacheG.CapacityMB, farCfg, farG.Count, cfg.DeepSleepLP)
		mem, lines = b, b.groups[1]
	case topology.ShapePage:
		hotG, hotCfg := group(topology.RoleHotTier)
		farG, farCfg := group(topology.RoleFarTier)
		b := newPagePlaced(eng, hotCfg, hotG.Count, farCfg, farG.Count, cfg.HotPages, cfg.DeepSleepLP)
		mem, lines = b, b.groups[1]
	default: // ShapeUnified
		g, lineCfg := group(topology.RoleUnified)
		b := newHomogeneous(eng, lineCfg, g.Count, cfg.DeepSleepLP)
		mem, lines = b, b.groups[0]
	}
	applyLineMapping(lines, cfg.LineMapping)
	return mem
}

// lineChannels is the number of channels a backend's lineChannel routes
// full lines to: the line, unified or far-tier group, plus the hot tier
// of page placement. The fault layer's line class indexes them.
func lineChannels(spec topology.Spec) int {
	n := 0
	for _, g := range spec.Groups {
		switch g.Role {
		case topology.RoleLine, topology.RoleUnified, topology.RoleFarTier, topology.RoleHotTier:
			n += g.Count
		}
	}
	return n
}

// applyLineMapping overrides the address interleaving of the line
// channels. Close-page groups keep their bank-interleaved mapping: the
// alternatives below are open-page schemes.
func applyLineMapping(g ChannelGroup, m Mapping) {
	if m == MapDefault || g.Cfg.Policy == dram.ClosePage {
		return
	}
	for _, ctrl := range g.Ctrls {
		switch m {
		case MapXOR:
			ctrl.Map = memctrl.XORMapper{Geom: g.Cfg.Geom, Ranks: 1}
		case MapBankFirst:
			ctrl.Map = memctrl.BankFirstMapper{Geom: g.Cfg.Geom, Ranks: 1}
		}
	}
}

// deviceConfigFor selects a group's device config: the critical-word
// config for the crit role, the full-line config for every other role.
func deviceConfigFor(g topology.ChannelGroup) (dram.Config, error) {
	if g.Role == topology.RoleCrit {
		return critConfigFor(g.Kind)
	}
	return lineConfigFor(g.Kind)
}

// critConfigFor selects the critical-word device config for a family.
func critConfigFor(kind dram.Kind) (dram.Config, error) {
	switch kind {
	case dram.RLDRAM3:
		return dram.RLDRAM3WordConfig(), nil
	case dram.DDR3:
		return dram.DDR3WordConfig(), nil
	case dram.HMCFast:
		return dram.HMCFastWordConfig(), nil
	default:
		return dram.Config{}, fmt.Errorf("core: unsupported critical channel kind %v", kind)
	}
}

func lineConfigFor(kind dram.Kind) (dram.Config, error) {
	switch kind {
	case dram.DDR3:
		return dram.DDR3Config(), nil
	case dram.LPDDR2:
		return dram.LPDDR2Config(), nil
	case dram.RLDRAM3:
		return dram.RLDRAM3Config(), nil
	case dram.HMCLP:
		return dram.HMCLPLineConfig(), nil
	default:
		return dram.Config{}, fmt.Errorf("core: unknown line kind %v", kind)
	}
}

// Results are the measured outputs of one run.
type Results struct {
	Benchmark string
	Config    string

	Cycles     sim.Cycle
	IPCs       []float64
	SumIPC     float64
	Throughput float64 // weighted speedup vs baseline-memory alone run
	// ThroughputSelf normalizes against an alone run on the *same*
	// memory system (the literal §5 formula); it isolates the
	// sharing-induced degradation and cancels raw device latency.
	ThroughputSelf float64
	DemandReads    uint64

	// Figure 7: mean requested-critical-word latency (CPU cycles).
	CritLatency float64
	// Figure 1b components over line-channel reads.
	QueueLat, CoreLat, XferLat float64
	// Figure 8: fraction of critical words served by the fast channel.
	CritFromFastFrac float64
	// Figure 4: requested-word distribution at the DRAM level.
	CritWordFrac [8]float64

	// §6.1.3 energy.
	DRAMEnergyMJ float64
	DRAMPowerMW  float64
	BusUtil      float64 // line-channel data bus utilization

	// §6.1.1: fraction of line-reuse gaps at least the LPDDR2 line
	// latency (latency tolerance of second accesses).
	ReuseGapFracOK float64

	ParityErrors uint64
	MergedMisses uint64
	Writebacks   uint64

	// Fault-injection outcomes over the measured window (internal/
	// faults). Not part of the CSV schema: sweep output stays
	// byte-identical for fault-free runs.
	HeldWakes       uint64 // CPU wakes held for SECDED after dirty parity
	CritEscapes     uint64 // corruptions that evaded per-byte parity
	SECDEDCorrected uint64 // line fills delayed by SECDED correction
	Reconstructions uint64 // line fills rebuilt via the chipkill parity chip
	DegradedFills   uint64 // line-only fills after the crit DIMM died
	// Degraded reports that the run ended with the critical-word DIMM
	// declared dead (CWF disabled, line-only service).
	Degraded bool

	// Epochs is the per-epoch time-series of the measured window, set
	// when the run's Scale.EpochInterval was positive. Not part of the
	// CSV schema: summary output is identical with sampling on or off.
	Epochs *telemetry.Series
}

// Clone deep-copies the results: the scalar fields by value plus fresh
// storage for IPCs and Epochs. Memoizing layers (the experiment
// runner, the durable run store) hand Clones to callers so one caller
// mutating a cached hit can never poison what later callers see.
func (r Results) Clone() Results {
	out := r
	out.IPCs = append([]float64(nil), r.IPCs...)
	if r.Epochs != nil {
		out.Epochs = r.Epochs.Clone()
	}
	return out
}

// ErrCanceled reports a run that Cfg.Cancel cut short. The partial
// Results are discarded: a canceled run is an error, never a shorter
// answer.
var ErrCanceled = errors.New("core: run canceled")

// Run executes prewarm, warmup, then a measured window, building the
// prewarm checkpoint privately (see RunWith). A run Cfg.Cancel cut
// short returns zero Results.
func (s *System) Run(scale RunScale) Results {
	res, _ := s.RunWith(scale, nil)
	return res
}

// RunWith is Run with the prewarm checkpoint restored from cps, built
// there by the first system that needs it; through a nil cps the
// system replays its prewarm in place. A later Run resumes the machine as the last one left it, so only
// the first restores a checkpoint. It returns ErrCanceled when
// Cfg.Cancel cut a drive short.
func (s *System) RunWith(scale RunScale, cps *Checkpoints) (Results, error) {
	if !s.started {
		s.started = true
		s.prewarm(scale.PrewarmOps, cps)
	}
	// withCancel folds Cfg.Cancel into a stop condition and latches it:
	// a fired deadline or context ends the drive at the next stop-grid
	// point and marks the run cut. With Cancel nil (or never firing)
	// the closure is pass-through, so completed runs are bit-identical
	// whether or not a deadline was armed.
	cut := false
	withCancel := func(stop func() bool) func() bool {
		c := s.Cfg.Cancel
		if c == nil {
			return stop
		}
		return func() bool {
			if c() {
				cut = true
				return true
			}
			return stop()
		}
	}
	// Warmup.
	warmTarget := s.Hier.Stat.DemandFills + scale.WarmupReads
	s.drive(withCancel(func() bool { return s.Hier.Stat.DemandFills >= warmTarget }),
		s.Eng.Now()+scale.MaxCycles/4)

	for _, c := range s.Cores {
		c.ResetStats()
	}
	start := s.Reg.Snapshot(s.Eng.Now())

	// Arm the epoch sampler for the measured window only: warmup never
	// produces epochs, and summary results are sampled-independent.
	if scale.EpochInterval > 0 {
		s.sampler = telemetry.NewSampler(s.Reg, scale.EpochInterval)
		s.sampler.Reset(start.Cycle)
		s.nextSample = start.Cycle + scale.EpochInterval
	}

	target := s.Hier.Stat.DemandFills + scale.MeasureReads
	s.drive(withCancel(func() bool { return s.Hier.Stat.DemandFills >= target }),
		start.Cycle+scale.MaxCycles)
	if cut {
		return Results{}, ErrCanceled
	}
	end := s.Reg.Snapshot(s.Eng.Now())

	res := s.collect(telemetry.NewView(s.Reg, start, end))
	if s.sampler != nil {
		res.Epochs = s.sampler.Series()
		s.sampler = nil
	}
	return res, nil
}

// prewarm brings the system to the checkpoint of ops replayed
// operations per core (see RunScale.PrewarmOps) from cps. The
// generators resume where the replay stopped, so the timed run
// continues its history intact.
func (s *System) prewarm(ops uint64, cps *Checkpoints) {
	if ops > 0 {
		cps.prewarm(CheckpointKey{s.Spec, s.Cfg.NCores, s.Cfg.Seed, ops}, s)
	}
}

// collect computes Results as a thin view over the registry: every
// field is a delta, rate, or window mean of named metrics across the
// measured window. The arithmetic reproduces the pre-registry
// snapshot code operation-for-operation — counter snapshots are
// integer-valued float64s (exact below 2^53) and energy is computed
// from windowed deltas through the power model, never as a difference
// of cumulative energies — so summary CSV output is byte-identical.
func (s *System) collect(v telemetry.View) Results {
	elapsed := v.Elapsed()
	if elapsed <= 0 {
		elapsed = 1
	}
	r := Results{
		Benchmark:    s.Spec.Name,
		Config:       s.Cfg.Name,
		Cycles:       elapsed,
		DemandReads:  uint64(v.Delta("hier.demand_fills")),
		MergedMisses: uint64(v.Delta("hier.merged_misses")),
		Writebacks:   uint64(v.Delta("hier.writebacks")),
		ParityErrors: uint64(v.Delta("hier.parity_errors")),

		HeldWakes:       uint64(v.Delta("hier.fault_held")),
		CritEscapes:     uint64(v.Delta("hier.fault_escaped")),
		SECDEDCorrected: uint64(v.Delta("hier.secded_corrected")),
		Reconstructions: uint64(v.Delta("hier.reconstructions")),
		DegradedFills:   uint64(v.Delta("hier.degraded_fills")),
		Degraded:        s.Hier.degraded,
	}
	for i := range s.Cores {
		ipc := v.Delta(fmt.Sprintf("cpu%d.retired", i)) / float64(elapsed)
		r.IPCs = append(r.IPCs, ipc)
		r.SumIPC += ipc
	}
	if n := v.Count("hier.crit_latency"); n > 0 {
		r.CritLatency = v.Delta("hier.crit_latency") / n
	}
	if r.DemandReads > 0 {
		r.CritFromFastFrac = v.Delta("hier.crit_served_fast") / float64(r.DemandReads)
		for w := 0; w < 8; w++ {
			r.CritWordFrac[w] = v.Delta(fmt.Sprintf("hier.crit_word_%d", w)) / float64(r.DemandReads)
		}
	}
	if n := v.Count("mem.queue_lat"); n > 0 {
		r.QueueLat = v.Delta("mem.queue_lat") / n
		r.CoreLat = v.Delta("mem.core_lat") / n
		r.XferLat = v.Delta("mem.xfer_lat") / n
	}

	// Energy over the measured window: windowed uint64/cycle deltas
	// reconstructed from the registry and fed through the chip model.
	groups := s.mem.Groups()
	var lineBusy sim.Cycle
	var lineChans int
	for gi := range groups {
		g := groups[gi]
		p := fmt.Sprintf("mem.g%d.", gi)
		act := power.ChannelActivity{
			Elapsed:      elapsed,
			ActiveCycles: sim.Cycle(v.Delta(p + "active_cyc")),
			PDCycles:     sim.Cycle(v.Delta(p + "pd_cyc")),
			DeepCycles:   sim.Cycle(v.Delta(p + "deep_cyc")),
			Acts:         uint64(v.Delta(p + "acts")),
			Reads:        uint64(v.Delta(p + "reads")),
			Writes:       uint64(v.Delta(p + "writes")),
			Refreshes:    uint64(v.Delta(p + "refreshes")),
		}
		act.DevicesPerRank = g.Cfg.Geom.DevicesPerRank
		act.DevicesPerAccess = g.Cfg.Geom.DevicesPerRank
		r.DRAMEnergyMJ += power.ChannelEnergyMJ(s.chipFor(g), power.TimingFor(g.Cfg.Timing), act)
		if gi == 0 {
			lineBusy = sim.Cycle(v.Delta(p + "data_busy"))
			lineChans = len(g.Chans)
		}
	}
	r.DRAMPowerMW = power.PowerMW(r.DRAMEnergyMJ, elapsed)
	if lineChans > 0 {
		r.BusUtil = float64(lineBusy) / float64(elapsed*sim.Cycle(lineChans))
	}

	// Latency tolerance of second accesses (§6.1.1): compare reuse gaps
	// against the LPDDR2 line-fill latency. Full-run census, not a
	// windowed delta, matching the original semantics.
	lpLat := float64(dram.LPDDR2Timing().TRCD + dram.LPDDR2Timing().TRL + dram.LPDDR2Timing().Burst)
	r.ReuseGapFracOK = 1 - s.Hier.Stat.ReuseGaps.FracBelow(lpLat)
	return r
}

// drive is the main simulation loop: it interleaves the event engine
// with cycle-stepped cores until stop() or the cycle cap.
func (s *System) drive(stop func() bool, maxCycles sim.Cycle) {
	eng := s.Eng
	now := eng.Now()
	wakes := s.wakes
	// The stop condition is polled on a fixed simulated-time grid, not
	// per loop iteration: iteration count depends on event density
	// (controllers parked between actionable cycles schedule far fewer
	// ticks than per-cycle controllers), and the measured window's
	// boundaries must not. Every stop condition is a monotone counter
	// threshold, so evaluating it once when the jump crosses one or
	// more grid points pins the return to the first crossed point.
	const stopPollEvery = 64
	nextStop := (now/stopPollEvery + 1) * stopPollEvery
	// Core processing is skipped on iterations where no core is due and
	// no memory-response wake arrived (wakeSig unchanged): pending wake
	// flags exist exactly when wakeSig moved past lastSig, because the
	// per-core scan below consumes every flag and records the signal
	// level it consumed up to. Skipped iterations (memory-side events
	// only) reuse the cached wake minimum; behaviour is identical to
	// scanning every core, just without the scan. The first iteration
	// always scans, so a wake flagged at the last drive's stop is seen.
	minWake := now
	lastSig := s.wakeSig
	for now < maxCycles {
		eng.RunUntil(now)
		if s.wakeSig != lastSig || minWake <= now {
			for i, c := range s.Cores {
				if c.WakePending() {
					wakes[i] = now
				}
				if wakes[i] <= now {
					wakes[i] = c.Step(now)
				}
			}
			lastSig = s.wakeSig
			// Flush events the steps scheduled for this cycle
			// (controller kicks run at the current cycle). Wakes this
			// delivers move wakeSig past lastSig, forcing both the
			// now+1 bound below and a re-scan next iteration.
			eng.RunUntil(now)
			minWake = sim.Cycle(1<<62 - 1)
			for _, w := range wakes {
				if w < minWake {
					minWake = w
				}
			}
		}
		next := minWake
		if s.wakeSig != lastSig && now+1 < next {
			next = now + 1
		}
		if t, ok := eng.PeekNext(); ok && t < next {
			next = t
		}
		if next >= 1<<62-1 {
			panic(s.deadlockReport(now))
		}
		if next <= now {
			next = now + 1
		}
		// If the jump crosses a stop-poll grid point, evaluate the stop
		// condition there. Cycle `now` is fully processed and nothing
		// happens before `next`, so the state at every crossed point
		// equals the state at `now`; a true verdict ends the drive at
		// the first crossed point, and the engine clock is advanced to
		// exactly that cycle so callers snapshot a boundary that does
		// not depend on how the loop subdivided the interval.
		stopAt := next
		if nextStop < next {
			if stop() {
				stopAt = nextStop
			} else {
				nextStop = ((next-1)/stopPollEvery + 1) * stopPollEvery
			}
		}
		// Close any epoch whose boundary falls in [now, stopAt): cycle
		// `now` is fully processed and nothing happens before `next`,
		// so the sampler observes exact boundary state without adding
		// loop iterations — core stepping, the stop-poll cadence, and
		// the deadlock check above are bit-identical with sampling off.
		// The engine clock is advanced to each boundary first (firing
		// nothing — the queue is empty below `next`) so probes that
		// finalize lazy accounting to Engine.Now, like rank power-state
		// residency, read exact boundary values regardless of where the
		// loop's iterations happen to land. The cores are synced the
		// same way: boundary state includes the boundary cycle itself.
		if s.sampler != nil {
			for s.nextSample < stopAt {
				eng.RunUntil(s.nextSample)
				s.syncCores(s.nextSample + 1)
				s.sampler.Tick(s.nextSample)
				s.nextSample += s.sampler.Interval()
			}
		}
		if stopAt < next {
			eng.RunUntil(stopAt)
			s.syncCores(stopAt + 1)
			return
		}
		now = next
	}
	eng.RunUntil(maxCycles)
	s.syncCores(maxCycles)
}

// syncCores brings every core's counters to cycle t (cpu.Core.Sync):
// drive calls it wherever the registry or the caller reads them.
func (s *System) syncCores(t sim.Cycle) {
	for _, c := range s.Cores {
		c.Sync(t)
	}
}

// deadlockReport diagnoses a no-progress state: every core blocked on a
// memory response with an empty event queue means a wake was lost, and
// the counters below say where to look. The panic is recovered into a
// per-run error by the run harness (exp.Runner).
func (s *System) deadlockReport(now sim.Cycle) string {
	waiting := 0
	for _, c := range s.Cores {
		waiting += c.OutstandingMisses()
	}
	return fmt.Sprintf(
		"core: deadlock at cycle %d: all cores blocked with no pending events "+
			"(mshr=%d/%d, outstanding load misses=%d, wb queue=%d, degraded=%v)",
		now, s.Hier.MSHROccupancy(), MSHRCapacity, waiting,
		len(s.Hier.wbQueue), s.Hier.degraded)
}

// RunPair measures the paper's throughput metric for one benchmark and
// config: Σᵢ IPCᵢ(shared 8-core run) / IPCᵢ_alone (§5). The stand-alone
// reference is a single-core run on the *baseline* DDR3 memory system
// (with the same prefetcher setting), so that throughput ratios between
// memory organizations reflect their shared-run behaviour — this is how
// the paper's normalized figures read. The three systems restore their
// prewarm checkpoints from cps (see RunWith and PrewarmKeys), and the
// two stand-alone references are shared through cps by every cell of
// the benchmark that holds the one-core key (see aloneIPC). The pair
// returns ErrCanceled at the first system Cfg.Cancel cuts short.
func RunPair(cfg SystemConfig, spec workload.Spec, scale RunScale, cps *Checkpoints) (Results, error) {
	sharedSys, err := NewSystem(cfg, spec)
	if err != nil {
		return Results{}, err
	}
	res, err := sharedSys.RunWith(scale, cps)
	if err != nil {
		return Results{}, err
	}

	aloneScale := scale
	aloneScale.WarmupReads = scale.WarmupReads / 4
	aloneScale.MeasureReads = scale.MeasureReads / 4
	// Only the shared run's time-series is interesting; the alone
	// references exist for one IPC ratio each.
	aloneScale.EpochInterval = 0

	baseCfg := Baseline(1)
	baseCfg.Prefetch = cfg.Prefetch
	baseCfg.Seed = cfg.Seed
	// The stand-alone references honour the same deadline/cancellation
	// hook as the shared run, so a cell deadline bounds the whole pair.
	baseCfg.Cancel = cfg.Cancel
	alone, err := aloneIPC(baseCfg, spec, aloneScale, cps)
	if err != nil {
		return Results{}, err
	}
	if alone > 0 {
		res.Throughput = res.SumIPC / alone
	}

	selfCfg := cfg
	selfCfg.NCores = 1
	selfAlone, err := aloneIPC(selfCfg, spec, aloneScale, cps)
	if err != nil {
		return Results{}, err
	}
	if selfAlone > 0 {
		res.ThroughputSelf = res.SumIPC / selfAlone
	}
	return res, nil
}

// aloneIPC returns the IPC of cfg, a one-core config, run stand-alone on
// spec at scale. The run reads nothing but cfg's key, spec, scale and
// the one-core checkpoint, so while cps holds that key it runs once and
// later cells read its IPC (Checkpoints.reference). A system that
// traces its fills always runs, so its trace is whole.
func aloneIPC(cfg SystemConfig, spec workload.Spec, scale RunScale, cps *Checkpoints) (float64, error) {
	run := func() (float64, error) {
		sys, err := NewSystem(cfg, spec)
		if err != nil {
			return 0, err
		}
		res, err := sys.RunWith(scale, cps)
		if err != nil || len(res.IPCs) == 0 {
			return 0, err
		}
		return res.IPCs[0], nil
	}
	if cfg.TraceFn != nil {
		return run()
	}
	k := CheckpointKey{spec, 1, cfg.Seed, scale.PrewarmOps}
	return cps.reference(k, refKey{cfg.Key(), scale}, run)
}

// csvColumn is one entry of the summary-CSV schema: a column name and
// the accessor rendering it. A single ordered table drives both
// CSVHeader and CSVRow so they can never drift apart; the column list
// and float formatting ('g', 8) are the frozen legacy format that
// sweep tooling and recorded outputs depend on.
type csvColumn struct {
	name string
	cell func(r *Results) string
}

func fmtF(v float64) string { return strconv.FormatFloat(v, 'g', 8, 64) }
func fmtU(v uint64) string  { return strconv.FormatUint(v, 10) }

var resultsCSVSchema = []csvColumn{
	{"benchmark", func(r *Results) string { return r.Benchmark }},
	{"config", func(r *Results) string { return r.Config }},
	{"cycles", func(r *Results) string { return strconv.FormatInt(int64(r.Cycles), 10) }},
	{"demand_reads", func(r *Results) string { return fmtU(r.DemandReads) }},
	{"sum_ipc", func(r *Results) string { return fmtF(r.SumIPC) }},
	{"throughput", func(r *Results) string { return fmtF(r.Throughput) }},
	{"throughput_self", func(r *Results) string { return fmtF(r.ThroughputSelf) }},
	{"crit_latency", func(r *Results) string { return fmtF(r.CritLatency) }},
	{"queue_lat", func(r *Results) string { return fmtF(r.QueueLat) }},
	{"core_lat", func(r *Results) string { return fmtF(r.CoreLat) }},
	{"xfer_lat", func(r *Results) string { return fmtF(r.XferLat) }},
	{"crit_fast_frac", func(r *Results) string { return fmtF(r.CritFromFastFrac) }},
	{"bus_util", func(r *Results) string { return fmtF(r.BusUtil) }},
	{"dram_energy_mj", func(r *Results) string { return fmtF(r.DRAMEnergyMJ) }},
	{"dram_power_mw", func(r *Results) string { return fmtF(r.DRAMPowerMW) }},
	{"writebacks", func(r *Results) string { return fmtU(r.Writebacks) }},
	{"merged_misses", func(r *Results) string { return fmtU(r.MergedMisses) }},
	{"parity_errors", func(r *Results) string { return fmtU(r.ParityErrors) }},
}

// CSVHeader lists the column names of CSVRow, for sweep tooling.
func (Results) CSVHeader() []string {
	hs := make([]string, len(resultsCSVSchema))
	for i, c := range resultsCSVSchema {
		hs[i] = c.name
	}
	return hs
}

// CSVRow renders the results as strings matching CSVHeader.
func (r Results) CSVRow() []string {
	row := make([]string, len(resultsCSVSchema))
	for i, c := range resultsCSVSchema {
		row[i] = c.cell(&r)
	}
	return row
}
