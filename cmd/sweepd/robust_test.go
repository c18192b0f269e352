package main

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"hetsim/internal/chaos"
	"hetsim/internal/grid"
	"hetsim/internal/store"
)

// TestMain doubles as the entry point for re-exec'd worker children:
// the SIGKILL test launches this same test binary with
// SWEEPD_TEST_WORKER=1, which runs a real headless worker process the
// parent can kill mid-cell — an actual process death, not a simulated
// one.
func TestMain(m *testing.M) {
	if os.Getenv("SWEEPD_TEST_WORKER") == "1" {
		os.Exit(runTestWorker())
	}
	os.Exit(m.Run())
}

// runTestWorker is the child side of the re-exec: a worker configured
// entirely from the environment that claims leased cells until killed.
func runTestWorker() int {
	ttl, err := time.ParseDuration(os.Getenv("SWEEPD_TEST_TTL"))
	if err != nil {
		ttl = 500 * time.Millisecond
	}
	hold, _ := time.ParseDuration(os.Getenv("SWEEPD_TEST_HOLD"))
	_, err = NewServer(Options{
		CacheDir:        os.Getenv("SWEEPD_TEST_CACHE"),
		StateDir:        os.Getenv("SWEEPD_TEST_STATE"),
		Workers:         1,
		Owner:           os.Getenv("SWEEPD_TEST_OWNER"),
		LeaseTTL:        ttl,
		Poll:            25 * time.Millisecond,
		HoldCellForTest: hold,
		Log:             os.Stderr,
	})
	if err != nil {
		return 1
	}
	select {} // run until SIGKILLed
}

// newHarnessOpts is newHarness with full Options control (robustness
// tests need owners, TTLs, poll intervals, and injected caches).
func newHarnessOpts(t *testing.T, opts Options) *harness {
	t.Helper()
	srv, err := NewServer(opts)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	return &harness{srv: srv, ts: ts}
}

// referenceCSV runs the spec on a pristine single server in its own
// directories — the byte-exact answer every crashy/chaotic/multi-worker
// variant must reproduce.
func referenceCSV(t *testing.T, spec grid.Sweep) string {
	t.Helper()
	dir := t.TempDir()
	h := newHarness(t, filepath.Join(dir, "cache"), filepath.Join(dir, "state"), 2)
	defer h.srv.Close()
	st := h.submit(t, spec)
	h.waitDone(t, st.ID)
	return h.resultsCSV(t, st.ID)
}

// writeSpecFile checkpoints a job spec directly into the state
// directory, the way a peer worker would have — the file-drop path
// resume() and the poll loop pick jobs up from.
func writeSpecFile(t *testing.T, stateDir string, spec grid.Sweep) string {
	t.Helper()
	spec = spec.Normalize()
	id := spec.ID()
	dir := filepath.Join(stateDir, "jobs")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	b, _ := json.Marshal(spec)
	if err := os.WriteFile(filepath.Join(dir, id+".json"), b, 0o644); err != nil {
		t.Fatal(err)
	}
	return id
}

// waitJobDone waits for a job to finish on a server directly (no HTTP)
// — used for workers that discovered the job through the state dir.
func waitJobDone(t *testing.T, srv *Server, id string) Status {
	t.Helper()
	deadline := time.Now().Add(2 * time.Minute)
	for {
		srv.mu.Lock()
		j := srv.jobs[id]
		srv.mu.Unlock()
		if j != nil {
			if st := srv.status(j); st.State != "running" {
				return st
			}
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s did not finish on %s", id, srv.Owner())
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestSweepdTwoWorkersDivideGrid runs two servers over one cache and
// state directory: the job is submitted to A only, B discovers it by
// polling, the lease protocol divides the cells, and both serve the
// byte-identical CSV a single worker produces.
func TestSweepdTwoWorkersDivideGrid(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-worker integration test skipped in -short mode")
	}
	dir := t.TempDir()
	cacheDir := filepath.Join(dir, "cache")
	stateDir := filepath.Join(dir, "state")
	want := referenceCSV(t, testSpec())

	a := newHarnessOpts(t, Options{CacheDir: cacheDir, StateDir: stateDir,
		Workers: 2, Owner: "worker-a", Poll: 20 * time.Millisecond})
	defer a.srv.Close()
	b := newHarnessOpts(t, Options{CacheDir: cacheDir, StateDir: stateDir,
		Workers: 2, Owner: "worker-b", Poll: 20 * time.Millisecond})
	defer b.srv.Close()

	st := a.submit(t, testSpec())
	finA := waitJobDone(t, a.srv, st.ID)
	finB := waitJobDone(t, b.srv, st.ID)
	if finA.State != "done" || finB.State != "done" {
		t.Fatalf("jobs not done: A %+v, B %+v", finA, finB)
	}
	// Leases + the store double-check guarantee each cell simulated at
	// most once across the fleet, store hits cover the rest.
	execA, execB := a.srv.executed.Load(), b.srv.executed.Load()
	if execA+execB != 4 {
		t.Fatalf("fleet executed %d+%d cells, want exactly 4", execA, execB)
	}
	t.Logf("grid divided: worker-a ran %d cells, worker-b ran %d", execA, execB)
	if got := a.resultsCSV(t, st.ID); got != want {
		t.Fatalf("worker-a CSV diverged from single-worker run:\n%s\nwant:\n%s", got, want)
	}
	if got := b.resultsCSV(t, st.ID); got != want {
		t.Fatalf("worker-b CSV diverged from single-worker run:\n%s\nwant:\n%s", got, want)
	}
}

// leaseOwner reads the owner of one lease file (empty if unreadable).
func leaseOwner(path string) string {
	b, err := os.ReadFile(path)
	if err != nil {
		return ""
	}
	var rec struct {
		Owner string `json:"owner"`
	}
	if json.Unmarshal(b, &rec) != nil {
		return ""
	}
	return rec.Owner
}

// TestSweepdWorkerSIGKILLMidCell is the headline crash test: a real
// child worker process claims a cell's lease (and, via the test hold
// hook, sits on it heartbeating), the parent SIGKILLs it, and a
// survivor worker must reclaim the orphaned lease after its TTL and
// finish the grid with results byte-identical to a clean run.
func TestSweepdWorkerSIGKILLMidCell(t *testing.T) {
	if testing.Short() {
		t.Skip("SIGKILL integration test skipped in -short mode")
	}
	dir := t.TempDir()
	cacheDir := filepath.Join(dir, "cache")
	stateDir := filepath.Join(dir, "state")
	want := referenceCSV(t, testSpec())
	id := writeSpecFile(t, stateDir, testSpec())

	const childOwner = "doomed-child"
	child := exec.Command(os.Args[0], "-test.run=^$")
	child.Env = append(os.Environ(),
		"SWEEPD_TEST_WORKER=1",
		"SWEEPD_TEST_CACHE="+cacheDir,
		"SWEEPD_TEST_STATE="+stateDir,
		"SWEEPD_TEST_OWNER="+childOwner,
		"SWEEPD_TEST_TTL=500ms",
		"SWEEPD_TEST_HOLD=1m", // hold the lease "forever"; the kill lands mid-cell
	)
	child.Stderr = os.Stderr
	if err := child.Start(); err != nil {
		t.Fatal(err)
	}
	defer func() {
		child.Process.Kill()
		child.Wait()
	}()

	// Wait until the child demonstrably holds a cell lease.
	leaseDir := filepath.Join(cacheDir, "leases")
	var held string
	deadline := time.Now().Add(time.Minute)
	for held == "" {
		if time.Now().After(deadline) {
			t.Fatal("child never claimed a lease")
		}
		ents, _ := os.ReadDir(leaseDir)
		for _, de := range ents {
			p := filepath.Join(leaseDir, de.Name())
			if strings.HasSuffix(de.Name(), ".lease") && leaseOwner(p) == childOwner {
				held = p
			}
		}
		time.Sleep(2 * time.Millisecond)
	}

	// SIGKILL: no drain, no release, no goodbye. The lease file stays
	// behind with a heartbeat that will never advance again.
	if err := child.Process.Kill(); err != nil {
		t.Fatal(err)
	}
	child.Wait()
	if leaseOwner(held) != childOwner {
		t.Fatalf("orphaned lease should still name %s", childOwner)
	}

	survivor := newHarnessOpts(t, Options{CacheDir: cacheDir, StateDir: stateDir,
		Workers: 2, Owner: "survivor", LeaseTTL: time.Second})
	defer survivor.srv.Close()
	fin := waitJobDone(t, survivor.srv, id)
	if fin.State != "done" || fin.Done != 4 {
		t.Fatalf("survivor did not finish the grid: %+v", fin)
	}
	// The child held its cell but finished none, so the survivor must
	// have reclaimed the orphaned lease and run all four cells itself.
	if fin.Executed != 4 || fin.Restored != 0 {
		t.Fatalf("survivor should execute all 4 cells (reclaiming the orphan), got %d executed / %d restored",
			fin.Executed, fin.Restored)
	}
	if got := survivor.resultsCSV(t, id); got != want {
		t.Fatalf("post-crash CSV diverged from clean run:\n%s\nwant:\n%s", got, want)
	}
}

// TestSweepdChaoticStoreConverges floods the store layer with injected
// read and write failures plus torn writes, and requires the sweep to
// finish with the clean run's exact bytes; then a restart over the
// (torn) cache must quarantine the damage and converge again.
func TestSweepdChaoticStoreConverges(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos integration test skipped in -short mode")
	}
	dir := t.TempDir()
	cacheDir := filepath.Join(dir, "cache")
	stateDir := filepath.Join(dir, "state")
	want := referenceCSV(t, testSpec())

	inner, err := store.Open(cacheDir)
	if err != nil {
		t.Fatal(err)
	}
	cs := chaos.Wrap(inner, 7)
	cs.SetPlan(chaos.OpGet, chaos.Plan{ErrRate: 0.5})
	cs.SetPlan(chaos.OpPut, chaos.Plan{ErrRate: 0.5, ShortWrite: true})

	h := newHarnessOpts(t, Options{CacheDir: cacheDir, StateDir: stateDir,
		Workers: 2, Owner: "chaotic", Cache: cs})
	st := h.submit(t, testSpec())
	fin := h.waitDone(t, st.ID)
	if fin.State != "done" || fin.Done != 4 {
		t.Fatalf("sweep did not survive store chaos: %+v", fin)
	}
	if got := h.resultsCSV(t, st.ID); got != want {
		t.Fatalf("chaos changed the results:\n%s\nwant:\n%s", got, want)
	}
	stats := cs.Stats()
	if stats.Injected[chaos.OpGet]+stats.Injected[chaos.OpPut] == 0 {
		t.Fatal("chaos plan injected nothing; the test proved nothing")
	}
	t.Logf("chaos: %d get faults, %d put faults, %d torn writes",
		stats.Injected[chaos.OpGet], stats.Injected[chaos.OpPut], stats.Torn)
	h.close()

	// Restart clean over the same cache: torn objects must be caught by
	// the checksum layer (quarantined, re-run), never served.
	h2 := newHarness(t, cacheDir, stateDir, 2)
	defer h2.srv.Close()
	fin2 := waitJobDone(t, h2.srv, st.ID)
	if fin2.State != "done" {
		t.Fatalf("restart over torn cache did not finish: %+v", fin2)
	}
	if got := h2.resultsCSV(t, st.ID); got != want {
		t.Fatalf("restart over torn cache diverged:\n%s\nwant:\n%s", got, want)
	}
}

// TestSweepdPoisonedCell pins the retry-budget path: a cell that can
// never finish (an unmeetable deadline) is retried CellAttempts times,
// then marked poisoned and the job failed — not retried forever.
func TestSweepdPoisonedCell(t *testing.T) {
	dir := t.TempDir()
	h := newHarnessOpts(t, Options{
		CacheDir: filepath.Join(dir, "cache"), StateDir: filepath.Join(dir, "state"),
		Workers: 1, Owner: "poison-tester",
		CellTimeout: time.Nanosecond, CellAttempts: 2,
	})
	defer h.srv.Close()

	spec := testSpec()
	spec.Values = []string{"32"} // one cell is enough
	st := h.submit(t, spec)
	fin := h.waitDone(t, st.ID)
	if fin.State != "failed" || fin.Poisoned != 1 || fin.Done != 0 {
		t.Fatalf("want 1 poisoned cell and a failed job, got %+v", fin)
	}
	if len(fin.Errors) != 1 || !strings.Contains(fin.Errors[0], "poisoned") {
		t.Fatalf("error should name the poison: %v", fin.Errors)
	}
	if !strings.Contains(fin.Errors[0], "2 attempts") {
		t.Fatalf("error should count the budget: %v", fin.Errors)
	}
}

// TestSweepdHealthEndpoints checks /healthz detail and the /readyz
// flip on drain.
func TestSweepdHealthEndpoints(t *testing.T) {
	dir := t.TempDir()
	h := newHarness(t, filepath.Join(dir, "cache"), filepath.Join(dir, "state"), 1)
	defer h.srv.Close()

	get := func(path string) (int, Health) {
		resp, err := http.Get(h.ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var hh Health
		if err := json.NewDecoder(resp.Body).Decode(&hh); err != nil {
			t.Fatal(err)
		}
		return resp.StatusCode, hh
	}

	code, hh := get("/healthz")
	if code != http.StatusOK || !hh.OK || !hh.StoreWritable || hh.Draining {
		t.Fatalf("fresh server unhealthy: %d %+v", code, hh)
	}
	if hh.Owner == "" {
		t.Fatal("healthz must report the lease owner")
	}
	if code, _ := get("/readyz"); code != http.StatusOK {
		t.Fatalf("fresh server not ready: %d", code)
	}

	h.srv.StartDrain()
	if code, hh := get("/readyz"); code != http.StatusServiceUnavailable || !hh.Draining {
		t.Fatalf("draining server still ready: %d %+v", code, hh)
	}
	// Liveness stays 200 during drain — the process is alive and
	// finishing work; only readiness flips.
	if code, _ := get("/healthz"); code != http.StatusOK {
		t.Fatalf("draining server reported dead: %d", code)
	}
	// Submissions are refused once draining.
	resp, err := http.Post(h.ts.URL+"/api/v1/sweeps", "application/json",
		strings.NewReader(`{"config":"rl","benchmarks":["mcf"]}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("draining server accepted a job: %s", resp.Status)
	}
}

// TestSweepdDrainDeadlineAborts submits work and drains with an
// already-expired context: in-flight simulations must be truncated via
// the cancel hook (microseconds of simulated time, not a full cell)
// and Drain must return promptly, leases released.
func TestSweepdDrainDeadlineAborts(t *testing.T) {
	dir := t.TempDir()
	cacheDir := filepath.Join(dir, "cache")
	h := newHarnessOpts(t, Options{CacheDir: cacheDir,
		StateDir: filepath.Join(dir, "state"), Workers: 2, Owner: "drainee"})

	st := h.submit(t, testSpec())
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	start := time.Now()
	if err := h.srv.Drain(ctx); err == nil {
		t.Fatal("expired drain should report its deadline error")
	}
	if took := time.Since(start); took > 30*time.Second {
		t.Fatalf("aborting drain took %v", took)
	}
	// Every lease must be released on the way out, clean or aborted.
	ents, _ := os.ReadDir(filepath.Join(cacheDir, "leases"))
	for _, de := range ents {
		if strings.HasSuffix(de.Name(), ".lease") {
			t.Fatalf("lease %s leaked through drain", de.Name())
		}
	}
	// The job is over (some mix of done and failed-by-shutdown cells).
	h.srv.mu.Lock()
	j := h.srv.jobs[st.ID]
	h.srv.mu.Unlock()
	if got := h.srv.status(j); got.State == "running" {
		t.Fatalf("job still running after drain: %+v", got)
	}
}
