package cpu

import (
	"flag"
	"fmt"
	"math/rand"
	"os"
	"strings"
	"testing"

	"hetsim/internal/sim"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/observe.golden")

// observeGoldenPath pins a core's Stat on a fixed observation grid, one
// line per grid point where it changed, for each observeScenarios case.
const observeGoldenPath = "testdata/observe.golden"

// observeGrid is the observation spacing, System.drive's stop-poll grid.
const observeGrid = 64

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

// handoverOps repeats a miss, a few L1-hit loads behind it, and a long
// compute run: the miss stalls the head until the ROB fills with hits,
// its wake lets the window drain at full width with loads still in
// flight, and once the last of them retires a full, load-free ROB
// hands over to the steady-stream path.
func handoverOps(rounds int) ([]MemOp, []AccessStatus) {
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

// observeScenarios are the cases the observation golden pins.
func observeScenarios() []scenario {
	hOps, hStatus := handoverOps(12)
	mOps, mStatus := mixedOps(1, 100)
	nOps, nStatus := mixedOps(2, 80)
	wOps, wStatus := mixedOps(3, 100)
	narrow := Config{ROBSize: 8, Width: 4, L1Latency: 1, L2Latency: 10}
	wide := Config{ROBSize: 128, Width: 8, L1Latency: 1, L2Latency: 10}
	return []scenario{
		{name: "handover", cfg: DefaultConfig(), ops: hOps, status: hStatus, missLat: 217, retryAt: -1},
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

// observeRun drives a core with runScripted, passing the next grid
// point after each cycle as the horizon. It reads Stat at every
// observeGrid point before that cycle is stepped, which is where the
// steady-stream and drained paths show the work they credit ahead and
// where an in-flight stretch, which never covers its horizon, must
// read exact. It keeps one line per point whose Stat differs from the
// previous point's.
func observeRun(t *testing.T, sc scenario, until sim.Cycle) []string {
	var lines []string
	var last Stats
	obs := sim.Cycle(0)
	next := func(now sim.Cycle) sim.Cycle { return (now/observeGrid + 1) * observeGrid }
	runScripted(t, sc, false, until, next, func(c *Core, now sim.Cycle) {
		for ; obs <= now; obs += observeGrid {
			if s := c.Stat; s != last {
				last = s
				lines = append(lines, fmt.Sprintf("%s %d %d %d %d %d %d %d", sc.name, obs,
					s.Retired, s.Loads, s.Stores, s.LoadMisses, s.RetryStalls, s.DepStalls))
			}
		}
	})
	return lines
}

// TestObservePointsGolden pins the core's counters at every point of a
// 64-cycle observation grid. The analytic paths in Step may credit work
// ahead of the cycle stepping reaches, and where they do, the grid sees
// it; a change to where one path hands over to another moves these
// lines even when every memory access keeps its cycle.
func TestObservePointsGolden(t *testing.T) {
	var got []string
	for _, sc := range observeScenarios() {
		got = append(got, observeRun(t, sc, 24_000)...)
	}
	text := strings.Join(got, "\n") + "\n"
	if *updateGolden {
		if err := os.WriteFile(observeGoldenPath, []byte(text), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(observeGoldenPath)
	if err != nil {
		t.Fatalf("%v (run with -update to regenerate)", err)
	}
	wantLines := strings.Split(strings.TrimSuffix(string(want), "\n"), "\n")
	if len(wantLines) != len(got) {
		t.Fatalf("%d observations, golden has %d", len(got), len(wantLines))
	}
	for i := range got {
		if got[i] != wantLines[i] {
			t.Fatalf("observation %d diverged:\ngot    %s\ngolden %s", i, got[i], wantLines[i])
		}
	}
}
