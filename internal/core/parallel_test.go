package core

import (
	"bytes"
	"reflect"
	"sync"
	"testing"

	"hetsim/internal/dram"
	"hetsim/internal/faults"
	"hetsim/internal/topology"
	"hetsim/internal/trace"
	"hetsim/internal/workload"
)

// Concurrent-vs-alone differential. The simulator itself is
// single-threaded; multi-core throughput comes from running independent
// systems side by side (the experiment runner's -j, several sweepd
// workers), and that is only sound if a System shares no mutable state
// with any other. Each case runs once alone and then as concurrent
// copies on separate goroutines, and everything observable — summary
// results, the full fill trace, and the epoch JSONL stream, sim.events
// included — must be byte-identical. Under -race the concurrent copies
// also flag any package-level state two systems would write.

// parCopies is how many systems run side by side against the reference.
const parCopies = 2

// parRun is one run's observable output.
type parRun struct {
	res    Results
	recs   []trace.Record
	epochs []byte
	err    error
}

// runObserved runs cfg/spec and returns the results, the fill trace, and
// the serialized epoch stream. It reports failure through parRun.err so
// it can run off the test goroutine.
func runObserved(cfg SystemConfig, spec workload.Spec) parRun {
	return runObservedWith(cfg, spec, RunScale{WarmupReads: 150, MeasureReads: 900,
		MaxCycles: 20_000_000, EpochInterval: 20_000}, nil)
}

// runObservedWith is runObserved at scale, prewarmed from cps.
func runObservedWith(cfg SystemConfig, spec workload.Spec, scale RunScale, cps *Checkpoints) parRun {
	var out parRun
	cfg.TraceFn = func(r trace.Record) { out.recs = append(out.recs, r) }
	sys, err := NewSystem(cfg, spec)
	if err != nil {
		out.err = err
		return out
	}
	out.res, out.err = sys.RunWith(scale, cps)
	var buf bytes.Buffer
	if out.res.Epochs != nil {
		out.err = out.res.Epochs.WriteJSONL(&buf, nil, nil)
	}
	out.res.Epochs = nil // compared via the serialized stream
	out.epochs = buf.Bytes()
	return out
}

// concurrently runs f on n goroutines at once and returns their outputs
// in goroutine order.
func concurrently[T any](n int, f func() T) []T {
	out := make([]T, n)
	var wg sync.WaitGroup
	for i := range out {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			out[i] = f()
		}(i)
	}
	wg.Wait()
	return out
}

// compareRuns reports every divergence of got from the alone reference.
func compareRuns(t *testing.T, ref, got parRun) {
	t.Helper()
	if !reflect.DeepEqual(ref.res, got.res) {
		t.Errorf("results diverged:\nalone      %+v\nconcurrent %+v", ref.res, got.res)
	}
	if len(ref.recs) != len(got.recs) {
		t.Fatalf("trace length diverged: alone %d, concurrent %d records",
			len(ref.recs), len(got.recs))
	}
	for i := range ref.recs {
		if ref.recs[i] != got.recs[i] {
			t.Fatalf("trace diverged at record %d:\nalone      %+v\nconcurrent %+v",
				i, ref.recs[i], got.recs[i])
		}
	}
	if !bytes.Equal(ref.epochs, got.epochs) {
		refLines := bytes.Split(ref.epochs, []byte("\n"))
		gotLines := bytes.Split(got.epochs, []byte("\n"))
		for i := 0; i < len(refLines) && i < len(gotLines); i++ {
			if !bytes.Equal(refLines[i], gotLines[i]) {
				a, b := refLines[i], gotLines[i]
				j := 0
				for j < len(a) && j < len(b) && a[j] == b[j] {
					j++
				}
				lo := max(j-60, 0)
				t.Logf("epoch %d first divergence at byte %d:\nalone      …%s\nconcurrent …%s",
					i, j, a[lo:min(j+80, len(a))], b[lo:min(j+80, len(b))])
				break
			}
		}
		t.Errorf("epoch streams diverged (%d vs %d bytes)", len(ref.epochs), len(got.epochs))
	}
}

func TestSystemParallelDifferential(t *testing.T) {
	faulty := RL(2)
	faulty.Faults.Crit.TransientBit = 0.05
	faulty.Faults.Seed = 5
	dimmDead := RL(2)
	dimmDead.Faults.Schedule = []faults.Event{
		{At: 40_000, Kind: faults.DIMMDead, Target: faults.Crit, Channel: -1, Chip: -1}}
	privBus := RL(2)
	privBus.Topology = topology.CWF(dram.RLDRAM3, Channels, dram.LPDDR2, Channels, topology.BusPrivate, false)
	cases := []struct {
		name  string
		cfg   SystemConfig
		bench string
	}{
		{"baseline-ddr3", Baseline(2), "libquantum"},
		{"rl-shared-crit-cmdbus", RL(2), "libquantum"},
		{"rl-private-crit-cmdbus", privBus, "libquantum"},
		{"rd-ddr3-lines", RD(2), "mcf"},
		{"dl-ddr3-crit-refresh", DL(2), "libquantum"},
		{"hmc-hetero", HMCHetero(2), "libquantum"},
		{"rl-crit-faults", faulty, "libquantum"},
		{"rl-dimm-dead", dimmDead, "libquantum"},
		// Topology-only organizations.
		{"hmc-mix-topology", hmcMix(2), "libquantum"},
		{"dram-cache-tiers", DRAMCached(2), "mcf"},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			spec := mustSpec(t, tc.bench)
			ref := runObserved(tc.cfg, spec)
			if ref.err != nil {
				t.Fatal(ref.err)
			}
			if ref.res.DemandReads == 0 {
				t.Fatal("reference run measured no reads — the differential is vacuous")
			}
			for i, got := range concurrently(parCopies, func() parRun { return runObserved(tc.cfg, spec) }) {
				if got.err != nil {
					t.Fatalf("copy %d: %v", i, got.err)
				}
				compareRuns(t, ref, got)
			}
		})
	}
}

// TestParallelRunTwice drives a System through two consecutive Runs —
// the second resumes from the first's engine, caches and generators —
// alone and as concurrent copies: both Runs of every copy must match the
// alone system's.
func TestParallelRunTwice(t *testing.T) {
	scale := RunScale{WarmupReads: 100, MeasureReads: 300, MaxCycles: 20_000_000}
	spec := mustSpec(t, "libquantum")
	type pair struct {
		a, b Results
		err  error
	}
	run2 := func() pair {
		sys, err := NewSystem(RL(2), spec)
		if err != nil {
			return pair{err: err}
		}
		return pair{a: sys.Run(scale), b: sys.Run(scale)}
	}
	ref := run2()
	if ref.err != nil {
		t.Fatal(ref.err)
	}
	if reflect.DeepEqual(ref.a, ref.b) {
		t.Fatal("second Run repeated the first — it did not resume the system")
	}
	for i, got := range concurrently(parCopies, run2) {
		if got.err != nil {
			t.Fatalf("copy %d: %v", i, got.err)
		}
		if !reflect.DeepEqual(ref.a, got.a) {
			t.Errorf("copy %d first run diverged:\nalone      %+v\nconcurrent %+v", i, ref.a, got.a)
		}
		if !reflect.DeepEqual(ref.b, got.b) {
			t.Errorf("copy %d second run diverged:\nalone      %+v\nconcurrent %+v", i, ref.b, got.b)
		}
	}
}
