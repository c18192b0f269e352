package cpu

import (
	"math/rand"
	"testing"

	"hetsim/internal/sim"
)

// sliceTrace replays a fixed op list then falls back to pure compute.
type sliceTrace struct {
	ops []MemOp
	i   int
}

func (t *sliceTrace) Next() MemOp {
	if t.i < len(t.ops) {
		op := t.ops[t.i]
		t.i++
		return op
	}
	return MemOp{Gap: 1 << 20} // effectively compute forever
}

// fakePort resolves accesses with scripted outcomes.
type fakePort struct {
	status   AccessStatus
	retries  int // return Retry this many times first
	wakes    []func()
	accesses []uint64
}

func (p *fakePort) Access(core int, addr uint64, store bool, wake func()) AccessStatus {
	p.accesses = append(p.accesses, addr)
	if p.retries > 0 {
		p.retries--
		return AccessRetry
	}
	if p.status == AccessMiss && !store {
		p.wakes = append(p.wakes, wake)
	}
	return p.status
}

// drive steps the core until the cycle budget runs out, firing scripted
// wakes at the given times, and syncs its counters to the final cycle
// it returns.
func drive(t *testing.T, c *Core, budget sim.Cycle, wakeAt map[sim.Cycle]int, port *fakePort) sim.Cycle {
	t.Helper()
	now := sim.Cycle(0)
	for now < budget {
		if n, ok := wakeAt[now]; ok {
			for i := 0; i < n && len(port.wakes) > 0; i++ {
				w := port.wakes[0]
				port.wakes = port.wakes[1:]
				w()
			}
		}
		next := c.Step(now)
		if c.WakePending() {
			now++
			continue
		}
		if next == WaitForever {
			// Find the next scripted wake.
			var best sim.Cycle = budget
			for at := range wakeAt {
				if at > now && at < best {
					best = at
				}
			}
			now = best
			continue
		}
		if next <= now {
			t.Fatalf("Step returned non-advancing wake %d at %d", next, now)
		}
		now = next
	}
	end := min(now, budget)
	c.Sync(end)
	return end
}

func TestPureComputeIPC(t *testing.T) {
	tr := &sliceTrace{}
	c := New(0, DefaultConfig(), tr, &fakePort{status: AccessL1Hit})
	end := drive(t, c, 10000, nil, nil)
	ipc := float64(c.Stat.Retired) / float64(end)
	if ipc < 3.5 || ipc > 4.01 {
		t.Fatalf("compute IPC = %v, want ~4", ipc)
	}
}

func TestL1HitsBarelySlowPipeline(t *testing.T) {
	ops := make([]MemOp, 200)
	for i := range ops {
		ops[i] = MemOp{Gap: 3, Addr: uint64(i * 8)}
	}
	c := New(0, DefaultConfig(), &sliceTrace{ops: ops}, &fakePort{status: AccessL1Hit})
	end := drive(t, c, 5000, nil, nil)
	if ipc := float64(c.Stat.Retired) / float64(end); ipc < 3.0 {
		t.Fatalf("L1-hit IPC = %v, want near 4", ipc)
	}
	if c.Stat.Loads != 200 {
		t.Fatalf("loads = %d", c.Stat.Loads)
	}
}

func TestMissStallsUntilWake(t *testing.T) {
	port := &fakePort{status: AccessMiss}
	ops := []MemOp{{Gap: 0, Addr: 64}}
	c := New(0, DefaultConfig(), &sliceTrace{ops: ops}, port)

	now := sim.Cycle(0)
	c.Step(now)
	if len(port.wakes) != 1 {
		t.Fatalf("wakes registered = %d", len(port.wakes))
	}
	// Fill the ROB with the compute tail; eventually the core must
	// report WaitForever (head blocked, ROB full).
	var next sim.Cycle
	for i := 0; i < 100; i++ {
		now++
		next = c.Step(now)
		if next == WaitForever {
			break
		}
	}
	if next != WaitForever {
		t.Fatal("core never blocked on the miss")
	}
	c.Sync(now + 1)
	retiredBefore := c.Stat.Retired
	// Wake at cycle 500 and confirm retirement resumes.
	now = 500
	port.wakes[0]()
	if !c.WakePending() {
		t.Fatal("wake not flagged")
	}
	c.Step(now)
	c.Step(now + 1)
	c.Sync(now + 2)
	if c.Stat.Retired <= retiredBefore {
		t.Fatal("no retirement after wake")
	}
}

func TestIndependentMissesOverlap(t *testing.T) {
	// Two independent miss loads must both be outstanding before either
	// completes (memory-level parallelism).
	port := &fakePort{status: AccessMiss}
	ops := []MemOp{{Gap: 0, Addr: 64}, {Gap: 0, Addr: 128}}
	c := New(0, DefaultConfig(), &sliceTrace{ops: ops}, port)
	c.Step(0)
	if len(port.wakes) != 2 {
		t.Fatalf("outstanding misses = %d, want 2 (MLP)", len(port.wakes))
	}
}

func TestDependentLoadSerializes(t *testing.T) {
	// The second load depends on the first: it must not issue until the
	// first's data returns.
	port := &fakePort{status: AccessMiss}
	ops := []MemOp{{Gap: 0, Addr: 64}, {Gap: 0, Addr: 128, DepPrev: true}}
	c := New(0, DefaultConfig(), &sliceTrace{ops: ops}, port)
	for now := sim.Cycle(0); now < 50; now++ {
		c.Step(now)
	}
	if len(port.wakes) != 1 {
		t.Fatalf("dependent load issued early: %d wakes", len(port.wakes))
	}
	if c.Stat.DepStalls == 0 {
		t.Fatal("no dependency stalls recorded")
	}
	// Resolve the first load; the second must now issue.
	port.wakes[0]()
	c.WakePending()
	c.Step(51)
	c.Step(52)
	if len(port.wakes) != 2 {
		t.Fatalf("dependent load never issued after wake: %d", len(port.wakes))
	}
}

func TestRetryBlocksDispatch(t *testing.T) {
	port := &fakePort{status: AccessL1Hit, retries: 3}
	ops := []MemOp{{Gap: 0, Addr: 64}}
	c := New(0, DefaultConfig(), &sliceTrace{ops: ops}, port)
	c.Step(0)
	c.Step(1)
	c.Step(2)
	if c.Stat.Loads != 0 {
		t.Fatal("load issued during retry window")
	}
	c.Step(3)
	if c.Stat.Loads != 1 {
		t.Fatalf("load not issued after retries; loads=%d", c.Stat.Loads)
	}
	if c.Stat.RetryStalls != 3 {
		t.Fatalf("retry stalls = %d", c.Stat.RetryStalls)
	}
}

func TestStoresDoNotBlockRetirement(t *testing.T) {
	// Store misses are posted: IPC must stay near width even if every
	// store misses.
	ops := make([]MemOp, 100)
	for i := range ops {
		ops[i] = MemOp{Gap: 3, Addr: uint64(i * 64), Store: true}
	}
	port := &fakePort{status: AccessMiss}
	c := New(0, DefaultConfig(), &sliceTrace{ops: ops}, port)
	end := drive(t, c, 5000, nil, port)
	if ipc := float64(c.Stat.Retired) / float64(end); ipc < 3.0 {
		t.Fatalf("store-miss IPC = %v, want near 4", ipc)
	}
	if c.Stat.Stores != 100 {
		t.Fatalf("stores = %d", c.Stat.Stores)
	}
}

func TestFastForwardCountsInstructions(t *testing.T) {
	// A giant compute gap must be consumed at width IPC without
	// stepping every cycle.
	tr := &sliceTrace{ops: []MemOp{{Gap: 100000, Addr: 8}}}
	c := New(0, DefaultConfig(), tr, &fakePort{status: AccessL1Hit})
	now := sim.Cycle(0)
	steps := 0
	for now < 40000 {
		next := c.Step(now)
		steps++
		if next == WaitForever {
			t.Fatal("unexpected block")
		}
		now = next
	}
	if steps > 5000 {
		t.Fatalf("fast-forward ineffective: %d steps for 40k cycles", steps)
	}
	c.Sync(now)
	if ipc := float64(c.Stat.Retired) / float64(now); ipc < 3.5 {
		t.Fatalf("fast-forward IPC = %v", ipc)
	}
}

func TestROBNeverExceedsCapacity(t *testing.T) {
	port := &fakePort{status: AccessMiss}
	ops := make([]MemOp, 50)
	for i := range ops {
		ops[i] = MemOp{Gap: 1, Addr: uint64(i * 64)}
	}
	c := New(0, DefaultConfig(), &sliceTrace{ops: ops}, port)
	for now := sim.Cycle(0); now < 200; now++ {
		c.Step(now)
		if c.count > c.Cfg.ROBSize {
			t.Fatalf("ROB overflow: %d", c.count)
		}
	}
	// With a 64-entry ROB and 2-instruction pairs, at most ~32 loads
	// can be in flight.
	if len(port.wakes) == 0 || len(port.wakes) > 33 {
		t.Fatalf("outstanding misses = %d", len(port.wakes))
	}
}

func TestResetStats(t *testing.T) {
	c := New(0, DefaultConfig(), &sliceTrace{}, &fakePort{status: AccessL1Hit})
	drive(t, c, 100, nil, nil)
	if c.Stat.Retired == 0 {
		t.Fatal("nothing retired")
	}
	c.ResetStats()
	if c.Stat.Retired != 0 {
		t.Fatal("stats not reset")
	}
}

func TestNewValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("invalid config did not panic")
		}
	}()
	New(0, Config{}, &sliceTrace{}, &fakePort{})
}

// TestWakePendingClears checks that WakePending reports a delivered wake
// once and clears it: a second call returns false.
func TestWakePendingClears(t *testing.T) {
	port := &fakePort{status: AccessMiss}
	c := New(0, DefaultConfig(), &sliceTrace{ops: []MemOp{{Addr: 64}}}, port)
	c.Step(0)
	port.wakes[0]()
	if !c.WakePending() {
		t.Fatal("WakePending lost the flag")
	}
	if c.WakePending() {
		t.Fatal("WakePending did not clear the flag")
	}
}

func TestDependentStoreDoesNotBlockOnLoad(t *testing.T) {
	// A store after a miss load (not DepPrev) must dispatch while the
	// load is outstanding.
	port := &fakePort{status: AccessMiss}
	ops := []MemOp{{Addr: 64}, {Addr: 128, Store: true}}
	c := New(0, DefaultConfig(), &sliceTrace{ops: ops}, port)
	c.Step(0)
	c.Step(1)
	if c.Stat.Stores != 1 {
		t.Fatalf("store not dispatched behind the miss: stores=%d", c.Stat.Stores)
	}
}

func TestWaitForeverOnlyWhenTrulyBlocked(t *testing.T) {
	// With a compute tail behind the missing head, the core must keep
	// reporting progress (dispatching) until the ROB fills.
	port := &fakePort{status: AccessMiss}
	ops := []MemOp{{Addr: 64}, {Gap: 1000, Addr: 128}}
	c := New(0, DefaultConfig(), &sliceTrace{ops: ops}, port)
	sawProgress := false
	var blocked bool
	for now := sim.Cycle(0); now < 200; now++ {
		next := c.Step(now)
		if next == now+1 {
			sawProgress = true
		}
		if next == WaitForever {
			blocked = true
			break
		}
	}
	if !sawProgress {
		t.Fatal("core never made incremental progress")
	}
	if !blocked {
		t.Fatal("core never blocked with a full ROB behind a miss")
	}
}

func TestIPCAccountsFastForwardedInstructions(t *testing.T) {
	// The compute fast-forward must not inflate IPC beyond width.
	tr := &sliceTrace{}
	c := New(0, DefaultConfig(), tr, &fakePort{status: AccessL1Hit})
	now := sim.Cycle(0)
	for now < 100000 {
		next := c.Step(now)
		if next <= now {
			t.Fatal("no progress")
		}
		now = next
	}
	c.Sync(now)
	if ipc := float64(c.Stat.Retired) / float64(now); ipc > float64(c.Cfg.Width)+0.01 {
		t.Fatalf("IPC %v exceeds width", ipc)
	}
}

// --- Batching differential -------------------------------------------
//
// The in-flight stretch in Step must be invisible: a core using it and
// a core stepping every cycle must issue every memory access at the
// same cycle with the same cumulative retire count, and read the same
// Stat wherever it is synced. scriptPort records that observable
// surface; the exact flag builds the reference side.

// scriptRec is one observed memory access.
type scriptRec struct {
	at      sim.Cycle
	addr    uint64
	store   bool
	retired uint64
}

// scriptWake is a pending miss response.
type scriptWake struct {
	at sim.Cycle
	fn func()
}

// scriptPort resolves accesses from a scripted status sequence and
// records the cycle, address, and retire count of each one.
type scriptPort struct {
	core    *Core
	clock   *sim.Cycle
	status  []AccessStatus
	missLat sim.Cycle
	jitter  int
	retryAt int // inject one AccessRetry at this access index
	retried bool
	recs    []scriptRec
	pending []scriptWake
}

func (p *scriptPort) Access(core int, addr uint64, store bool, wake func()) AccessStatus {
	i := len(p.recs)
	if i == p.retryAt && !p.retried {
		p.retried = true
		return AccessRetry
	}
	p.recs = append(p.recs, scriptRec{at: *p.clock, addr: addr, store: store,
		retired: p.core.Stat.Retired})
	if store {
		return AccessL1Hit // posted; status is irrelevant
	}
	st := p.status[i%len(p.status)]
	if st == AccessMiss {
		lat := p.missLat
		if p.jitter > 0 {
			lat += sim.Cycle(i * 37 % p.jitter)
		}
		p.pending = append(p.pending, scriptWake{at: *p.clock + lat, fn: wake})
	}
	return st
}

// deliver fires every pending wake due at or before the clock.
func (p *scriptPort) deliver() {
	for i := 0; i < len(p.pending); {
		if p.pending[i].at <= *p.clock {
			p.pending[i].fn()
			p.pending = append(p.pending[:i], p.pending[i+1:]...)
		} else {
			i++
		}
	}
}

// nextWake lowers due to the earliest pending wake after the clock: a
// wake un-stalls the core at its own cycle whatever Step predicted.
func (p *scriptPort) nextWake(due sim.Cycle) sim.Cycle {
	for _, w := range p.pending {
		if w.at > *p.clock && w.at < due {
			due = w.at
		}
	}
	return due
}

// scriptRun is what runScripted observed: the access log, the final
// stats, the Step calls that did work, and the re-steps that landed
// inside an in-flight stretch (calls that left Steps unchanged).
type scriptRun struct {
	recs    []scriptRec
	stat    Stats
	steps   uint64
	resteps int
}

// runScripted drives one core against sc's scripted port until end.
// Like System.drive, it steps the core when it is due and at every
// miss wake, even one that lands inside a batched jump, and the step
// at a wake's cycle sees that wake. observe, if set, sees the core
// before each step and once more at end; the final stats are synced to
// end.
func runScripted(t *testing.T, sc scenario, exact bool, end sim.Cycle,
	observe func(*Core, sim.Cycle)) scriptRun {
	t.Helper()
	var clock sim.Cycle
	c, port := newScripted(sc, &clock, exact)
	var run scriptRun
	for clock < end {
		if observe != nil {
			observe(c, clock)
		}
		port.deliver()
		c.WakePending() // this step sees every wake delivered so far
		steps := c.Steps
		next := c.Step(clock)
		if c.Steps == steps {
			run.resteps++
		}
		if next == WaitForever {
			next = end
		}
		next = port.nextWake(next)
		if next <= clock {
			t.Fatalf("Step returned non-advancing wake %d at %d", next, clock)
		}
		clock = next
	}
	if observe != nil {
		observe(c, end)
	}
	c.Sync(end)
	run.recs, run.stat, run.steps = port.recs, c.Stat, c.Steps
	return run
}

// randomObservations returns an observe function for runScripted that
// syncs the core at a fixed random grid of points 1 to 100 cycles
// apart, as System.drive does at stop polls and epoch boundaries, and
// appends its Stat there to *seen.
func randomObservations(seed int64, seen *[]Stats) func(*Core, sim.Cycle) {
	rng := rand.New(rand.NewSource(seed))
	at := sim.Cycle(0)
	return func(c *Core, now sim.Cycle) {
		for ; at <= now; at += sim.Cycle(1 + rng.Intn(100)) {
			c.Sync(at)
			*seen = append(*seen, c.Stat)
		}
	}
}

// l2BehindHeadOps puts a miss at the head with L2-hit loads a few
// entries behind it: once the miss returns, the window slides over
// loads whose data is still ten or more cycles out.
func l2BehindHeadOps(rounds int) ([]MemOp, []AccessStatus) {
	var ops []MemOp
	var status []AccessStatus
	for r := 0; r < rounds; r++ {
		base := uint64(r) << 16
		ops = append(ops, MemOp{Gap: 1, Addr: base})
		status = append(status, AccessMiss)
		for i := 0; i < 4; i++ {
			ops = append(ops, MemOp{Gap: 2 + i, Addr: base + uint64(64*(i+1))})
			status = append(status, AccessL2Hit)
		}
		ops = append(ops, MemOp{Gap: 90 + 13*r, Addr: base + 0x800, DepPrev: r%2 == 0})
		status = append(status, AccessL1Hit)
	}
	return ops, status
}

// overlappedMissOps pairs a miss at the head with a second miss 44
// entries behind it. Under a 40-cycle latency jitter the second miss
// mostly returns 3 cycles sooner than the first, so its wake lands
// while the window slides over the entries between them.
func overlappedMissOps(rounds int) ([]MemOp, []AccessStatus) {
	var ops []MemOp
	for r := 0; r < rounds; r++ {
		base := uint64(r) << 16
		ops = append(ops, MemOp{Gap: 0, Addr: base}, MemOp{Gap: 44, Addr: base + 64},
			MemOp{Gap: 300 + 7*r, Addr: base + 128, Store: r%4 == 3})
	}
	return ops, []AccessStatus{AccessMiss, AccessMiss, AccessL1Hit}
}

func TestStepBatchingDifferential(t *testing.T) {
	gaps := []int{340, 12, 0, 3, 1000, 7, 129, 340, 2, 64, 500, 11, 0, 88, 340, 6, 230, 1, 77, 340}
	var ops []MemOp
	for i, g := range gaps {
		ops = append(ops, MemOp{Gap: g, Addr: uint64(0x1000 * (i + 1)),
			Store: i%5 == 4, DepPrev: i%3 == 2})
	}
	status := []AccessStatus{AccessMiss, AccessL1Hit, AccessL2Hit, AccessL1Hit, AccessMiss, AccessL2Hit}
	legacy := func(name string, cfg Config) scenario {
		return scenario{name: name, cfg: cfg, ops: ops, status: status, missLat: 217, retryAt: 5}
	}
	l2Ops, l2Status := l2BehindHeadOps(40)
	missOps, missStatus := overlappedMissOps(50)
	hOps, hStatus := fullROBOps(12)
	mOps, mStatus := mixedOps(4, 150)
	slowL2 := DefaultConfig()
	slowL2.L2Latency = 40
	cases := []struct {
		sc scenario
		// obsSeed, when set, syncs both cores at the same random
		// observation points and compares their Stat there.
		obsSeed int64
		// resteps requires at least one wake to land inside a stretch.
		resteps bool
	}{
		{sc: legacy("table1", DefaultConfig())},
		{sc: legacy("narrow-rob", Config{ROBSize: 8, Width: 4, L1Latency: 1, L2Latency: 10})},
		{sc: legacy("rob-below-width", Config{ROBSize: 2, Width: 4, L1Latency: 1, L2Latency: 10})},
		{sc: legacy("rob-equals-width", Config{ROBSize: 4, Width: 4, L1Latency: 1, L2Latency: 10})},
		{sc: legacy("wide", Config{ROBSize: 128, Width: 8, L1Latency: 1, L2Latency: 10})},
		{sc: scenario{name: "l2-hits-behind-head", cfg: slowL2, ops: l2Ops, status: l2Status,
			missLat: 160, jitter: 50, retryAt: -1}},
		{sc: scenario{name: "wake-inside-stretch", cfg: DefaultConfig(), ops: missOps, status: missStatus,
			missLat: 150, jitter: 40, retryAt: 9}, resteps: true},
		{sc: scenario{name: "random-observations", cfg: DefaultConfig(), ops: mOps, status: mStatus,
			missLat: 200, jitter: 80, retryAt: 4}, obsSeed: 7},
		{sc: scenario{name: "full-rob-past-loads", cfg: DefaultConfig(), ops: hOps, status: hStatus,
			missLat: 217, retryAt: -1}, obsSeed: 8},
	}
	for _, tc := range cases {
		t.Run(tc.sc.name, func(t *testing.T) {
			var refSeen, gotSeen []Stats
			var refObs, gotObs func(*Core, sim.Cycle)
			if tc.obsSeed != 0 {
				refObs = randomObservations(tc.obsSeed, &refSeen)
				gotObs = randomObservations(tc.obsSeed, &gotSeen)
			}
			ref := runScripted(t, tc.sc, true, 60_000, refObs)
			got := runScripted(t, tc.sc, false, 60_000, gotObs)
			if len(ref.recs) != len(got.recs) {
				t.Fatalf("access counts diverged: exact %d, batched %d", len(ref.recs), len(got.recs))
			}
			for i := range ref.recs {
				if ref.recs[i] != got.recs[i] {
					t.Fatalf("access %d diverged:\nexact   %+v\nbatched %+v", i, ref.recs[i], got.recs[i])
				}
			}
			if ref.stat != got.stat {
				t.Errorf("stats diverged:\nexact   %+v\nbatched %+v", ref.stat, got.stat)
			}
			for i := range refSeen {
				if gotSeen[i] != refSeen[i] {
					t.Fatalf("observation %d diverged:\nexact   %+v\nbatched %+v", i, refSeen[i], gotSeen[i])
				}
			}
			if tc.sc.cfg.ROBSize >= tc.sc.cfg.Width && got.steps >= ref.steps {
				t.Errorf("batched core did %d steps, exact %d: nothing was batched", got.steps, ref.steps)
			}
			t.Logf("steps exact %d batched %d, resteps %d", ref.steps, got.steps, got.resteps)
			if tc.resteps && got.resteps == 0 {
				t.Error("no wake landed inside an in-flight stretch")
			}
		})
	}
}
