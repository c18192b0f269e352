package core

import (
	"bytes"
	"reflect"
	"regexp"
	"testing"

	"hetsim/internal/faults"
	"hetsim/internal/trace"
)

// System-level differential for timing-directed tick skipping: the same
// workload runs on two identical systems, one with every controller
// forced onto the legacy per-cycle tick (Cfg.PerCycle) and one skipping
// to the next actionable cycle, and everything observable — summary
// results, the full fill trace, and the epoch JSONL stream — must be
// byte-identical. This covers what the controller-level differential in
// internal/memctrl cannot: multiple controllers sharing one command bus
// (the CWF crit sub-channels), write-back traffic, prefetch promotion
// under real access streams, the fault injector, and the interaction
// with the drive loop's warmup/measure windows.

// runTickMode runs cfg/bench in one tick mode and returns the results,
// the fill trace, and the serialized epoch stream.
func runTickMode(t *testing.T, cfg SystemConfig, bench string, perCycle bool) (Results, []trace.Record, []byte) {
	t.Helper()
	var recs []trace.Record
	cfg.TraceFn = func(r trace.Record) { recs = append(recs, r) }
	sys, err := NewSystem(cfg, mustSpec(t, bench))
	if err != nil {
		t.Fatal(err)
	}
	if perCycle {
		for _, g := range sys.mem.Groups() {
			for _, c := range g.Ctrls {
				c.Cfg.PerCycle = true
			}
		}
	}
	res := sys.Run(RunScale{WarmupReads: 150, MeasureReads: 900,
		MaxCycles: 20_000_000, EpochInterval: 20_000})
	var buf bytes.Buffer
	if res.Epochs != nil {
		if err := res.Epochs.WriteJSONL(&buf, nil, nil); err != nil {
			t.Fatal(err)
		}
	}
	res.Epochs = nil // compared via the serialized stream
	// sim.events counts dispatched engine events — a diagnostic of the
	// engine's own workload, not of simulated behaviour. Skipping ticks
	// exists precisely to shrink it. It describes the execution engine
	// rather than the simulated machine, so it is the one column excluded
	// from the byte comparison.
	return res, recs, simEventsCol.ReplaceAll(buf.Bytes(), nil)
}

var simEventsCol = regexp.MustCompile(`"sim\.events":[0-9]+,`)

func TestSystemTickSkipDifferential(t *testing.T) {
	faulty := RL(2)
	faulty.Faults.Crit.TransientBit = 0.05
	faulty.Faults.Seed = 5
	dimmDead := RL(2)
	dimmDead.Faults.Schedule = []faults.Event{
		{At: 40_000, Kind: faults.DIMMDead, Target: faults.Crit, Channel: -1, Chip: -1}}
	cases := []struct {
		name  string
		cfg   SystemConfig
		bench string
	}{
		{"baseline-ddr3", Baseline(2), "libquantum"},
		{"rl-shared-cmdbus", RL(2), "libquantum"},
		{"rd-shared-cmdbus", RD(2), "mcf"},
		{"dl-lpddr-line", DL(2), "libquantum"},
		{"rl-crit-faults", faulty, "libquantum"},
		{"rl-dimm-dead", dimmDead, "libquantum"},
		// Topology-only organizations.
		{"hmc-mix-topology", hmcMix(2), "libquantum"},
		{"dram-cache-tiers", DRAMCached(2), "mcf"},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			refRes, refRecs, refEpochs := runTickMode(t, tc.cfg, tc.bench, true)
			gotRes, gotRecs, gotEpochs := runTickMode(t, tc.cfg, tc.bench, false)
			if !reflect.DeepEqual(refRes, gotRes) {
				t.Errorf("results diverged:\nper-cycle %+v\nskip      %+v", refRes, gotRes)
			}
			if len(refRecs) != len(gotRecs) {
				t.Fatalf("trace length diverged: per-cycle %d, skip %d records",
					len(refRecs), len(gotRecs))
			}
			for i := range refRecs {
				if refRecs[i] != gotRecs[i] {
					t.Fatalf("trace diverged at record %d:\nper-cycle %+v\nskip      %+v",
						i, refRecs[i], gotRecs[i])
				}
			}
			if !bytes.Equal(refEpochs, gotEpochs) {
				refLines := bytes.Split(refEpochs, []byte("\n"))
				gotLines := bytes.Split(gotEpochs, []byte("\n"))
				for i := 0; i < len(refLines) && i < len(gotLines); i++ {
					if !bytes.Equal(refLines[i], gotLines[i]) {
						a, b := refLines[i], gotLines[i]
						j := 0
						for j < len(a) && j < len(b) && a[j] == b[j] {
							j++
						}
						lo := j - 60
						if lo < 0 {
							lo = 0
						}
						t.Logf("epoch %d first divergence at byte %d:\nper-cycle …%s\nskip      …%s",
							i, j, a[lo:min(j+80, len(a))], b[lo:min(j+80, len(b))])
						break
					}
				}
				t.Errorf("epoch streams diverged (%d vs %d bytes)", len(refEpochs), len(gotEpochs))
			}
		})
	}
}
