package core

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"testing"

	"hetsim/internal/sim"
)

var updateGolden = flag.Bool("update", false, "rewrite golden telemetry files")

// runEpochs runs one system with the epoch sampler armed (interval 0:
// off) and reports the results and the events the engine dispatched.
func runEpochs(t *testing.T, cfg SystemConfig, bench string, interval sim.Cycle) (Results, uint64) {
	t.Helper()
	sys, err := NewSystem(cfg, mustSpec(t, bench))
	if err != nil {
		t.Fatal(err)
	}
	scale := quickScale()
	scale.EpochInterval = interval
	res := sys.Run(scale)
	return res, sys.Eng.EventsFired()
}

// TestTelemetryOnOffIdentical is the refactor's core invariant: arming
// the epoch sampler must not perturb a single summary metric — the
// registry probes read component-owned counters and the sampler ticks
// at the engine's time-advance point, adding no events and no loop
// iterations. The event count is checked exactly, at two intervals.
func TestTelemetryOnOffIdentical(t *testing.T) {
	for _, tc := range []struct {
		cfg   SystemConfig
		bench string
	}{
		{Baseline(4), "libquantum"},
		{RL(4), "mcf"},
	} {
		off, offEvents := runEpochs(t, tc.cfg, tc.bench, 0)
		for _, interval := range []sim.Cycle{10_000, 1_000} {
			on, onEvents := runEpochs(t, tc.cfg, tc.bench, interval)
			if on.Epochs == nil || on.Epochs.NumRows() == 0 {
				t.Fatalf("%s/%s: sampler armed but no epochs recorded", tc.cfg.Name, tc.bench)
			}
			on.Epochs = nil
			if !reflect.DeepEqual(off, on) {
				t.Errorf("%s/%s: sampling every %d cycles diverged from telemetry-off:\n off %+v\n on  %+v",
					tc.cfg.Name, tc.bench, interval, off, on)
			}
			if onEvents != offEvents {
				t.Errorf("%s/%s: sampling every %d cycles dispatched %d events, %d with telemetry off",
					tc.cfg.Name, tc.bench, interval, onEvents, offEvents)
			}
		}
	}
}

// TestEpochSeriesShape checks the recorded time-series is well-formed:
// epoch boundaries advance by exactly the configured interval, every
// row matches the column signature, and the headline columns exist.
func TestEpochSeriesShape(t *testing.T) {
	const interval = 5_000
	res, _ := runEpochs(t, RL(4), "libquantum", interval)
	s := res.Epochs
	if s == nil || s.NumRows() < 2 {
		t.Fatalf("want >= 2 epochs, got %+v", s)
	}
	if len(s.Data) != s.NumRows()*len(s.Cols) {
		t.Fatalf("flat data length %d != rows %d * cols %d", len(s.Data), s.NumRows(), len(s.Cols))
	}
	for i := 1; i < s.NumRows(); i++ {
		if got := s.Cycles[i] - s.Cycles[i-1]; got != interval {
			t.Errorf("epoch %d boundary step %d, want %d", i, got, interval)
		}
	}
	for _, name := range []string{
		"sim.events", "cpu0.ipc", "cpu3.outstanding",
		"hier.mshr_occupancy", "hier.crit_latency", "hier.early_wake_gap",
		"mem.queue_lat", "mem.g0.energy_mj", "mem.g0.c0.read_q",
	} {
		found := false
		for _, c := range s.Cols {
			if c == name {
				found = true
				break
			}
		}
		if !found {
			t.Errorf("column %q missing from epoch series (cols %v)", name, s.Cols)
		}
	}
	// IPC per epoch must be positive and finite for a busy workload.
	for i := 0; i < s.NumRows(); i++ {
		v, ok := s.Value(i, "cpu0.ipc")
		if !ok || !(v > 0) || v > 8 {
			t.Errorf("epoch %d cpu0.ipc = %v (ok=%v) out of range", i, v, ok)
		}
	}
}

// TestResultsCSVRoundTrip pins the legacy summary-CSV schema: the
// column list is frozen, header and row lengths always match, and the
// numeric cells parse back to the Results fields they render.
func TestResultsCSVRoundTrip(t *testing.T) {
	res := runOne(t, RL(4), "libquantum")
	header := res.CSVHeader()
	row := res.CSVRow()

	wantCols := []string{
		"benchmark", "config", "cycles", "demand_reads", "sum_ipc",
		"throughput", "throughput_self", "crit_latency", "queue_lat",
		"core_lat", "xfer_lat", "crit_fast_frac", "bus_util",
		"dram_energy_mj", "dram_power_mw", "writebacks", "merged_misses",
		"parity_errors",
	}
	if !reflect.DeepEqual(header, wantCols) {
		t.Fatalf("CSV header changed:\n got %v\nwant %v", header, wantCols)
	}
	if len(row) != len(header) {
		t.Fatalf("row has %d cells, header %d columns", len(row), len(header))
	}

	cell := map[string]string{}
	for i, name := range header {
		cell[name] = row[i]
	}
	if cell["benchmark"] != res.Benchmark || cell["config"] != res.Config {
		t.Errorf("identity columns %q/%q do not round-trip", cell["benchmark"], cell["config"])
	}
	for name, want := range map[string]uint64{
		"demand_reads":  res.DemandReads,
		"writebacks":    res.Writebacks,
		"merged_misses": res.MergedMisses,
		"parity_errors": res.ParityErrors,
	} {
		got, err := strconv.ParseUint(cell[name], 10, 64)
		if err != nil || got != want {
			t.Errorf("%s = %q, want %d (err %v)", name, cell[name], want, err)
		}
	}
	if got, err := strconv.ParseInt(cell["cycles"], 10, 64); err != nil || got != int64(res.Cycles) {
		t.Errorf("cycles = %q, want %d (err %v)", cell["cycles"], res.Cycles, err)
	}
	for name, want := range map[string]float64{
		"sum_ipc":        res.SumIPC,
		"crit_latency":   res.CritLatency,
		"queue_lat":      res.QueueLat,
		"core_lat":       res.CoreLat,
		"xfer_lat":       res.XferLat,
		"crit_fast_frac": res.CritFromFastFrac,
		"bus_util":       res.BusUtil,
		"dram_energy_mj": res.DRAMEnergyMJ,
		"dram_power_mw":  res.DRAMPowerMW,
	} {
		got, err := strconv.ParseFloat(cell[name], 64)
		if err != nil {
			t.Errorf("%s = %q does not parse: %v", name, cell[name], err)
			continue
		}
		// fmtF renders 8 significant digits; allow that rounding.
		if diff := got - want; diff > 1e-6*abs(want)+1e-12 || -diff > 1e-6*abs(want)+1e-12 {
			t.Errorf("%s round-trips to %v, want %v", name, got, want)
		}
	}
}

func abs(v float64) float64 {
	if v < 0 {
		return -v
	}
	return v
}

// TestEpochJSONLGolden pins the exact JSONL epoch stream of a
// fixed-seed run, less the host-work sim.events column (pinned by the
// work section of the organization golden file instead). The simulator
// is deterministic and the writers use locale-free shortest-float
// formatting, so the bytes are stable; run with -update after an
// intentional metric change.
func TestEpochJSONLGolden(t *testing.T) {
	cfg := RL(2)
	cfg.Seed = 7
	sys, err := NewSystem(cfg, mustSpec(t, "libquantum"))
	if err != nil {
		t.Fatal(err)
	}
	scale := RunScale{WarmupReads: 100, MeasureReads: 600, MaxCycles: 10_000_000, EpochInterval: 20_000}
	res := sys.Run(scale)
	if res.Epochs == nil || res.Epochs.NumRows() == 0 {
		t.Fatal("no epochs recorded")
	}
	var buf bytes.Buffer
	if err := res.Epochs.WriteJSONL(&buf, nil, nil); err != nil {
		t.Fatal(err)
	}
	got := stripHostWork(buf.Bytes())

	golden := filepath.Join("testdata", "epochs_rl_libquantum.jsonl")
	if *updateGolden {
		if err := os.WriteFile(golden, got, 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s (%d bytes, %d epochs)", golden, len(got), res.Epochs.NumRows())
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (run with -update to regenerate)", err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("epoch JSONL stream diverged from %s (%d vs %d bytes); run with -update if intentional",
			golden, len(got), len(want))
	}
}
