package exp

import (
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"hetsim/internal/core"
	"hetsim/internal/telemetry"
)

// epochOpts is the determinism sweep with the epoch sampler armed.
func epochOpts(workers int) Options {
	o := determinismOpts(workers)
	o.Scale.EpochInterval = 10_000
	return o
}

// runEpochSweep executes the subset with epochs on and returns both the
// per-run Results (Epochs included) and the rendered epoch streams.
func runEpochSweep(t *testing.T, workers int) (map[string]core.Results, string, string) {
	t.Helper()
	r := NewRunner(epochOpts(workers))
	or := core.RL(0)
	or.Placement = core.PlaceOracle
	or.Name = "RL-OR"
	cfgs := []core.SystemConfig{core.Baseline(0), core.RL(0), or}
	r.Submit(cfgs...)
	out := map[string]core.Results{}
	for _, cfg := range cfgs {
		for _, b := range r.Opts.Benchmarks {
			res, err := r.Run(cfg, b)
			if err != nil {
				t.Fatalf("%s/%s: %v", cfg.Name, b, err)
			}
			out[cfg.Name+"/"+b] = res
		}
	}
	if len(r.Epochs()) == 0 {
		t.Fatal("sweep ran with EpochInterval set but recorded no epochs")
	}
	csv, jsonl := writeEpochFiles(t, r)
	return out, csv, jsonl
}

// writeEpochFiles writes the runner's epochs the way cmd/experiments
// does and returns the CSV and JSONL file contents.
func writeEpochFiles(t *testing.T, r *Runner) (csv, jsonl string) {
	t.Helper()
	dir := t.TempDir()
	csvPath, jsonlPath := filepath.Join(dir, "epochs.csv"), filepath.Join(dir, "epochs.jsonl")
	if err := telemetry.WriteFiles(csvPath, jsonlPath, []string{"config", "bench"}, r.Epochs()); err != nil {
		t.Fatal(err)
	}
	csvB, err := os.ReadFile(csvPath)
	if err != nil {
		t.Fatal(err)
	}
	jsonlB, err := os.ReadFile(jsonlPath)
	if err != nil {
		t.Fatal(err)
	}
	return string(csvB), string(jsonlB)
}

// TestEpochDeterminism extends the engine's bit-identity invariant to
// the telemetry layer: per-epoch time-series (inside Results and in the
// rendered CSV/JSONL streams) are identical at any worker count.
func TestEpochDeterminism(t *testing.T) {
	serial, csv1, jsonl1 := runEpochSweep(t, 1)
	parallel, csv8, jsonl8 := runEpochSweep(t, 8)

	for k, want := range serial {
		got := parallel[k]
		if got.Epochs == nil || got.Epochs.NumRows() == 0 {
			t.Fatalf("-j 8 run %s recorded no epochs", k)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("-j 8 diverged from serial on %s (epochs included)", k)
		}
	}
	if csv8 != csv1 {
		t.Error("epoch CSV stream differs between -j 1 and -j 8")
	}
	if jsonl8 != jsonl1 {
		t.Error("epoch JSONL stream differs between -j 1 and -j 8")
	}

	// Records are sorted by (config, bench): Baseline < RL < RL-OR with
	// libquantum before mcf inside each.
	var order []string
	for _, line := range strings.Split(jsonl1, "\n") {
		if strings.HasPrefix(line, `{"config":"`) {
			id := line[len(`{"config":"`):]
			id = id[:strings.Index(id, `","cycle"`)]
			id = strings.Replace(id, `","bench":"`, "/", 1)
			if len(order) == 0 || order[len(order)-1] != id {
				order = append(order, id)
			}
		}
	}
	want := []string{
		"DDR3-baseline/libquantum", "DDR3-baseline/mcf",
		"RL/libquantum", "RL/mcf",
		"RL-OR/libquantum", "RL-OR/mcf",
	}
	if !reflect.DeepEqual(order, want) {
		t.Errorf("epoch stream order %v, want %v", order, want)
	}
}

// TestEpochsOffByDefault: a sweep without EpochInterval records
// nothing and the writers emit nothing.
func TestEpochsOffByDefault(t *testing.T) {
	r := NewRunner(determinismOpts(1))
	if _, err := r.Run(core.RL(0), "libquantum"); err != nil {
		t.Fatal(err)
	}
	if n := len(r.Epochs()); n != 0 {
		t.Errorf("%d epoch series recorded with EpochInterval = 0", n)
	}
	if csv, jsonl := writeEpochFiles(t, r); csv != "" || jsonl != "" {
		t.Errorf("epoch files hold %d CSV and %d JSONL bytes with no epochs", len(csv), len(jsonl))
	}
}
