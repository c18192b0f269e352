package main

import (
	"bytes"
	"encoding/csv"
	"path/filepath"
	"testing"

	"hetsim/internal/core"
	"hetsim/internal/grid"
	"hetsim/internal/runpool"
)

// TestSweepdSharesCheckpoints runs a pair job of four ROB sizes on mcf.
// Its cells share one DDR3 stand-alone reference, and each runs its own
// self reference (the ROB size is part of its config), so 9 systems
// prewarm: four shared runs and five references. They need only two
// checkpoints: the 8-core one of the shared runs and the 1-core one of
// the references. The server's runner must build each once and restore
// the rest, and every row must equal the cell run on its own with
// private prewarms.
func TestSweepdSharesCheckpoints(t *testing.T) {
	dir := t.TempDir()
	h := newHarness(t, filepath.Join(dir, "cache"), filepath.Join(dir, "state"), 2)
	defer h.srv.Close()
	spec := grid.Sweep{
		Config:     "rl",
		Benchmarks: []string{"mcf"},
		Param:      "robsize",
		Values:     []string{"32", "48", "64", "96"},
		Scale:      "test",
		Pair:       true,
	}
	st := h.submit(t, spec)
	if fin := h.waitDone(t, st.ID); fin.State != "done" {
		t.Fatalf("job did not finish: %+v", fin)
	}

	cells, err := spec.Normalize().Cells()
	if err != nil {
		t.Fatal(err)
	}
	var want bytes.Buffer
	cw := csv.NewWriter(&want)
	for i, c := range cells {
		res, err := c.Run(nil)
		if err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			cw.Write(append([]string{"param", "value", "bench"}, res.CSVHeader()...))
		}
		cw.Write(append([]string{spec.Param, c.Value, c.Bench}, res.CSVRow()...))
	}
	cw.Flush()
	if got := h.resultsCSV(t, st.ID); got != want.String() {
		t.Errorf("rows differ from private-prewarm runs:\ngot:\n%s\nwant:\n%s", got, want.String())
	}
	if got, want := h.srv.runner.Prewarms(), (core.CheckpointStats{Built: 2, Reused: 7, RefsRun: 5, RefsReused: 3}); got != want {
		t.Errorf("prewarms = %+v, want %+v", got, want)
	}
}

// TestSweepdOverlappingJobsShareRuns submits two jobs whose grids share
// two cells to one server on a cold store. The shared cells run once,
// through the runner's store.RunKey memo: the second job joins the
// first job's runs instead of reading them back from the store, and
// each job's CSV equals the one it gets alone.
func TestSweepdOverlappingJobsShareRuns(t *testing.T) {
	a, b := testSpec(), testSpec()
	a.Values = []string{"32", "48", "64"}
	b.Values = []string{"48", "64", "96"}
	const distinct = 4

	dir := t.TempDir()
	h := newHarness(t, filepath.Join(dir, "cache"), filepath.Join(dir, "state"), 2)
	defer h.srv.Close()
	stA, stB := h.submit(t, a), h.submit(t, b)
	h.waitDone(t, stA.ID)
	h.waitDone(t, stB.ID)

	if got := h.srv.executed.Load(); got != distinct {
		t.Errorf("executed = %d, want %d distinct cells", got, distinct)
	}
	if got := h.srv.restored.Load(); got != 0 {
		t.Errorf("restored = %d, want 0: shared cells should join runs, not reread the store", got)
	}
	if got, want := h.srv.runner.Stats(), (runpool.Stats{Submitted: distinct, Deduped: 2, Executed: distinct}); got != want {
		t.Errorf("runner stats = %+v, want %+v", got, want)
	}
	for _, job := range []struct {
		id   string
		spec grid.Sweep
	}{{stA.ID, a}, {stB.ID, b}} {
		if got, want := h.resultsCSV(t, job.id), referenceCSV(t, job.spec); got != want {
			t.Errorf("job %s CSV differs from its lone run:\ngot:\n%s\nwant:\n%s", job.id, got, want)
		}
	}
}
