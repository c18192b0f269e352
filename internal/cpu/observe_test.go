package cpu

import (
	"math/rand"
	"testing"

	"hetsim/internal/sim"
)

// scenario is one scripted workload for a core: its trace, the status
// sequence its loads see (indexed by access, stores included), and the
// miss latency, which grows by (access index × 37) mod jitter cycles
// when jitter is set so that wakes land at scattered cycles.
type scenario struct {
	name    string
	cfg     Config
	ops     []MemOp
	status  []AccessStatus
	missLat sim.Cycle
	jitter  int
	retryAt int // inject one AccessRetry at this access index
}

// fullROBOps repeats a miss, a few L1-hit loads behind it, and a long
// compute run: the miss stalls the head until the ROB fills with hits,
// its wake lets the window slide at full width with loads still in
// flight, and the stretch runs on through a full, load-free ROB once
// the last of them retires.
func fullROBOps(rounds int) ([]MemOp, []AccessStatus) {
	var ops []MemOp
	var status []AccessStatus
	for r := 0; r < rounds; r++ {
		base := uint64(r) << 16
		ops = append(ops, MemOp{Gap: 0, Addr: base})
		status = append(status, AccessMiss)
		for i := 0; i < 6; i++ {
			ops = append(ops, MemOp{Gap: 3, Addr: base + uint64(64*(i+1))})
			status = append(status, AccessL1Hit)
		}
		ops = append(ops, MemOp{Gap: 1500 + 37*r, Addr: base + 0x800, Store: r%3 == 1})
		status = append(status, AccessL2Hit)
	}
	return ops, status
}

// mixedOps draws n memory ops with gaps from short, medium and long
// bands, 20% stores and 30% pointer-chase dependences, and a status
// sequence mixing misses, L1 hits and L2 hits.
func mixedOps(seed int64, n int) ([]MemOp, []AccessStatus) {
	rng := rand.New(rand.NewSource(seed))
	ops := make([]MemOp, n)
	status := make([]AccessStatus, n)
	for i := range ops {
		var gap int
		switch rng.Intn(3) {
		case 0:
			gap = rng.Intn(9)
		case 1:
			gap = 20 + rng.Intn(60)
		default:
			gap = 300 + rng.Intn(1700)
		}
		ops[i] = MemOp{Gap: gap, Addr: uint64(i+1) * 0x40,
			Store: rng.Intn(5) == 0, DepPrev: rng.Intn(10) < 3}
		status[i] = []AccessStatus{AccessMiss, AccessL1Hit, AccessL2Hit}[rng.Intn(3)]
	}
	return ops, status
}

// observeScenarios are the cases TestObservationDifferential reads at
// every cycle.
func observeScenarios() []scenario {
	hOps, hStatus := fullROBOps(12)
	mOps, mStatus := mixedOps(1, 100)
	nOps, nStatus := mixedOps(2, 80)
	wOps, wStatus := mixedOps(3, 100)
	narrow := Config{ROBSize: 8, Width: 4, L1Latency: 1, L2Latency: 10}
	wide := Config{ROBSize: 128, Width: 8, L1Latency: 1, L2Latency: 10}
	return []scenario{
		{name: "full-rob", cfg: DefaultConfig(), ops: hOps, status: hStatus, missLat: 217, retryAt: -1},
		{name: "mixed", cfg: DefaultConfig(), ops: mOps, status: mStatus, missLat: 180, jitter: 90, retryAt: 7},
		{name: "narrow-rob", cfg: narrow, ops: nOps, status: nStatus, missLat: 150, jitter: 60, retryAt: 3},
		{name: "wide", cfg: wide, ops: wOps, status: wStatus, missLat: 240, jitter: 120, retryAt: 11},
	}
}

// newScripted builds a core reading sc's trace through a scriptPort
// whose clock is *clock.
func newScripted(sc scenario, clock *sim.Cycle, exact bool) (*Core, *scriptPort) {
	port := &scriptPort{clock: clock, missLat: sc.missLat, jitter: sc.jitter,
		retryAt: sc.retryAt, status: sc.status}
	c := New(9, sc.cfg, &sliceTrace{ops: append([]MemOp(nil), sc.ops...)}, port)
	c.exact = exact
	port.core = c
	return c, port
}

// statsByCycle drives a core with runScripted and returns its Stat as
// read at every cycle t in [0, end]: synced to t, before the step at t.
func statsByCycle(t *testing.T, sc scenario, exact bool, end sim.Cycle) []Stats {
	stats := make([]Stats, 0, end+1)
	runScripted(t, sc, exact, end, func(c *Core, now sim.Cycle) {
		for at := sim.Cycle(len(stats)); at <= now; at++ {
			c.Sync(at)
			stats = append(stats, c.Stat)
		}
	})
	return stats
}

// TestObservationDifferential reads the batched core's Stat, synced, at
// every cycle and requires it to equal a per-cycle core's. Whatever
// cycle System.drive stops, samples an epoch or resets the counters
// at, it then reads what stepping every cycle would have counted.
func TestObservationDifferential(t *testing.T) {
	for _, sc := range observeScenarios() {
		t.Run(sc.name, func(t *testing.T) {
			ref := statsByCycle(t, sc, true, 24_000)
			got := statsByCycle(t, sc, false, 24_000)
			for at := range ref {
				if got[at] != ref[at] {
					t.Fatalf("Stat at cycle %d diverged:\nexact   %+v\nbatched %+v", at, ref[at], got[at])
				}
			}
			if got[len(got)-1].Retired == 0 {
				t.Fatal("nothing retired")
			}
		})
	}
}
