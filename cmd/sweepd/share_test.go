package main

import (
	"bytes"
	"encoding/csv"
	"path/filepath"
	"strconv"
	"testing"
	"time"

	"hetsim/internal/core"
	"hetsim/internal/exp"
	"hetsim/internal/grid"
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
// each job's CSV equals the one it gets alone. Every cell is held in
// flight for a while, so the first job is still running when the
// second arrives.
func TestSweepdOverlappingJobsShareRuns(t *testing.T) {
	a, b := testSpec(), testSpec()
	a.Values = []string{"32", "48", "64"}
	b.Values = []string{"48", "64", "96"}
	const distinct = 4

	dir := t.TempDir()
	h := newHarness(t, filepath.Join(dir, "cache"), filepath.Join(dir, "state"), 2)
	defer h.srv.Close()
	h.srv.opts.HoldCellForTest = 300 * time.Millisecond
	stA, stB := h.submit(t, a), h.submit(t, b)
	h.waitDone(t, stA.ID)
	h.waitDone(t, stB.ID)

	if got := h.srv.executed.Load(); got != distinct {
		t.Errorf("executed = %d, want %d distinct cells", got, distinct)
	}
	if got := h.srv.restored.Load(); got != 0 {
		t.Errorf("restored = %d, want 0: shared cells should join runs, not reread the store", got)
	}
	if got, want := h.srv.runner.Stats(), (exp.Stats{Submitted: distinct, Deduped: 2, Executed: distinct}); got != want {
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

// TestSweepdForgetsFinishedJobs runs ten distinct jobs in sequence on
// one server. A job's last cell releases the job's runs, so the runner
// holds none between jobs. A job with a new ID over the first job's
// cells (the same values in another order) then simulates nothing:
// every cell reads back from the store.
func TestSweepdForgetsFinishedJobs(t *testing.T) {
	dir := t.TempDir()
	h := newHarness(t, filepath.Join(dir, "cache"), filepath.Join(dir, "state"), 2)
	defer h.srv.Close()
	var first Status
	for i := 0; i < 10; i++ {
		spec := testSpec()
		spec.Values = []string{strconv.Itoa(32 + 8*i), strconv.Itoa(36 + 8*i)}
		st := h.submit(t, spec)
		if fin := h.waitDone(t, st.ID); fin.State != "done" {
			t.Fatalf("job %d did not finish: %+v", i, fin)
		}
		if held := h.srv.runner.Stats().Held; held != 0 {
			t.Fatalf("after job %d the runner holds %d runs, want 0", i, held)
		}
		if i == 0 {
			first = st
		}
	}

	again := testSpec()
	again.Values = []string{first.Spec.Values[1], first.Spec.Values[0]}
	executed, restored := h.srv.executed.Load(), h.srv.restored.Load()
	st := h.submit(t, again)
	if st.ID == first.ID {
		t.Fatalf("reordered spec kept the ID %s", st.ID)
	}
	if fin := h.waitDone(t, st.ID); fin.State != "done" {
		t.Fatalf("resubmitted job did not finish: %+v", fin)
	}
	if got := h.srv.executed.Load() - executed; got != 0 {
		t.Errorf("resubmitted cells executed %d times, want 0", got)
	}
	if got := h.srv.restored.Load() - restored; got != uint64(len(again.Values)) {
		t.Errorf("restored %d cells, want %d", got, len(again.Values))
	}
	if held := h.srv.runner.Stats().Held; held != 0 {
		t.Errorf("after the resubmitted job the runner holds %d runs, want 0", held)
	}
}
