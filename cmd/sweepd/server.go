package main

import (
	"bytes"
	"context"
	"encoding/csv"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"hetsim"
	"hetsim/internal/exp"
	"hetsim/internal/grid"
	"hetsim/internal/lease"
	"hetsim/internal/runpool"
	"hetsim/internal/store"
)

// cell is one grid point and its progress. key caches Cell.Key: it is
// the pool, lease and store address of the cell.
type cell struct {
	grid.Cell
	key store.RunKey

	mu     sync.Mutex
	state  string // "pending" | "done" | "failed" | "poisoned"
	errMsg string
	header []string
	row    []string
}

// job is one accepted sweep and its live progress.
type job struct {
	ID    string
	Spec  grid.Sweep
	Cells []*cell

	mu       sync.Mutex
	cond     *sync.Cond
	done     int
	failed   int
	poisoned int
	epochLog []byte // accumulated per-epoch JSONL, appended per finished cell
}

func (j *job) finished() bool { return j.done+j.failed+j.poisoned == len(j.Cells) }

// Options configures a Server.
type Options struct {
	// CacheDir roots the durable result store and the shared leases/
	// subdirectory workers coordinate through. Required even when Cache
	// is injected: the lease directory is what N workers pointing at the
	// same CacheDir use to divide a sweep with no coordinator.
	CacheDir string
	// StateDir holds one spec file per accepted job; NewServer re-reads
	// it so a restarted server resumes every known sweep, and the Poll
	// loop re-reads it so a worker picks up jobs submitted to a peer.
	StateDir string
	// CacheMaxBytes caps the store's objects tree; past it the store
	// evicts least-recently-used entries (0 = unlimited).
	CacheMaxBytes int64
	// Workers bounds concurrent simulations (0 = GOMAXPROCS).
	Workers int
	// Log receives operational messages (nil = discard).
	Log io.Writer

	// Cache overrides the durable tier (nil = open CacheDir). The seam
	// exists for the chaos harness: tests wrap the real store in a
	// fault injector and hand it to an otherwise unmodified server.
	Cache store.Interface
	// Owner is this worker's lease identity; it must be unique among
	// live processes sharing CacheDir ("" = hostname-pid).
	Owner string
	// LeaseTTL is how long a worker may go silent before its cells are
	// reclaimed by peers (0 = 10s). Heartbeats renew at TTL/3.
	LeaseTTL time.Duration
	// CellTimeout bounds each simulation run; a cell that exceeds it is
	// truncated, counted as a failed attempt, and retried (0 = none).
	CellTimeout time.Duration
	// CellAttempts is the per-cell run budget: a cell whose run errors
	// this many times is marked poisoned and never retried (0 = 3).
	CellAttempts int
	// Poll, when positive, rescans StateDir on this interval so jobs
	// checkpointed by other workers are discovered and joined.
	Poll time.Duration

	// HoldCellForTest makes every leased cell sleep this long between
	// acquiring its lease and running, so crash tests can SIGKILL a
	// worker that is deterministically mid-cell. Test hook; zero in
	// production.
	HoldCellForTest time.Duration
}

// Server shards sweep cells across a runpool, with the durable store
// as a second memo tier and per-cell leases as the cross-process
// arbiter. Identical cells — within one job, across jobs, or across N
// worker processes sharing one store — are simulated once per failure,
// and at most once ever while the store directory survives.
type Server struct {
	opts   Options
	cache  store.Interface
	disk   *store.Store // nil when Cache was injected and is not a *store.Store
	leases *lease.Manager
	pool   *runpool.Pool[string, hetsim.Results]

	closed    atomic.Bool
	aborting  atomic.Bool // drain deadline passed: truncate in-flight runs
	drainCh   chan struct{}
	drainOnce sync.Once
	wg        sync.WaitGroup

	// executed counts cells that actually ran the simulator; restored
	// counts cells served from the durable store. After a kill/restart
	// these two split the grid exactly: restored = cells the dead
	// server finished, executed = the rest.
	executed atomic.Uint64
	restored atomic.Uint64

	mu   sync.Mutex
	jobs map[string]*job
	// scanned maps each state-dir file already submitted or permanently
	// rejected to the modification time it had then. A file whose name
	// is not its job ID (hand-dropped, or a checkpoint from an older
	// spec format) or whose spec is invalid would otherwise be re-read,
	// re-submitted and logged on every poll. Rewriting the file makes it
	// eligible again. Touched only by scanJobs, which never runs
	// concurrently with itself.
	scanned map[string]time.Time
}

var (
	errClosed   = errors.New("sweepd: server is shutting down")
	errPoisoned = errors.New("sweepd: cell poisoned (retry budget exhausted)")
)

// NewServer opens the store and lease directory, loads every
// checkpointed job from the state directory, and re-enqueues their
// cells. Cells whose results already sit in the store complete without
// running the simulator.
func NewServer(opts Options) (*Server, error) {
	if opts.Log == nil {
		opts.Log = io.Discard
	}
	if opts.Owner == "" {
		opts.Owner = lease.DefaultOwner()
	}
	if opts.LeaseTTL <= 0 {
		opts.LeaseTTL = 10 * time.Second
	}
	if opts.CellAttempts <= 0 {
		opts.CellAttempts = 3
	}
	cache := opts.Cache
	var disk *store.Store
	if cache == nil {
		var err error
		disk, err = store.Open(opts.CacheDir)
		if err != nil {
			return nil, err
		}
		disk.SetMaxBytes(opts.CacheMaxBytes)
		cache = disk
	} else if ds, ok := cache.(*store.Store); ok {
		disk = ds
	}
	leases, err := lease.NewManager(filepath.Join(opts.CacheDir, "leases"), opts.Owner, opts.LeaseTTL)
	if err != nil {
		return nil, err
	}
	if opts.StateDir == "" {
		return nil, fmt.Errorf("sweepd: empty state directory")
	}
	if err := os.MkdirAll(filepath.Join(opts.StateDir, "jobs"), 0o755); err != nil {
		return nil, fmt.Errorf("sweepd: %w", err)
	}
	s := &Server{
		opts:    opts,
		cache:   cache,
		disk:    disk,
		leases:  leases,
		pool:    runpool.New[string, hetsim.Results](opts.Workers),
		drainCh: make(chan struct{}),
		jobs:    map[string]*job{},
		scanned: map[string]time.Time{},
	}
	if err := s.scanJobs("resumed"); err != nil {
		return nil, err
	}
	if opts.Poll > 0 {
		s.wg.Add(1)
		go s.pollLoop()
	}
	return s, nil
}

// Owner reports this server's lease identity.
func (s *Server) Owner() string { return s.leases.Owner() }

// scanJobs submits every job whose spec file sits in the state
// directory, skipping ones already known and files already processed.
// It is both startup resume and the poll loop's rescan: a job POSTed
// to any worker sharing the state directory is checkpointed before it
// is enqueued, so every peer's next scan joins it. The store decides
// which cells still need simulating. A file that cannot be read is
// retried on the next scan; one that does not parse or validate is
// rejected once.
func (s *Server) scanJobs(verb string) error {
	dir := filepath.Join(s.opts.StateDir, "jobs")
	names, err := os.ReadDir(dir)
	if err != nil {
		return fmt.Errorf("sweepd: %w", err)
	}
	// Deterministic scan order (ReadDir sorts, but be explicit).
	sort.Slice(names, func(i, k int) bool { return names[i].Name() < names[k].Name() })
	for _, de := range names {
		name := de.Name()
		if de.IsDir() || !strings.HasSuffix(name, ".json") {
			continue
		}
		s.mu.Lock()
		_, known := s.jobs[strings.TrimSuffix(name, ".json")]
		s.mu.Unlock()
		if known {
			continue
		}
		info, err := de.Info()
		if err != nil {
			s.logf("skipping %s: %v", name, err)
			continue
		}
		if at, ok := s.scanned[name]; ok && at.Equal(info.ModTime()) {
			continue
		}
		b, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			s.logf("skipping %s: %v", name, err)
			continue
		}
		s.scanned[name] = info.ModTime()
		var spec grid.Sweep
		if err := json.Unmarshal(b, &spec); err != nil {
			s.logf("skipping %s: %v", name, err)
			continue
		}
		j, err := s.submit(spec)
		if err != nil {
			s.logf("%s %s: %v", verb, name, err)
			continue
		}
		s.logf("%s job %s", verb, j.ID)
	}
	return nil
}

// pollLoop rescans the state directory until drain so this worker
// discovers jobs submitted through peers (or dropped in by hand).
func (s *Server) pollLoop() {
	defer s.wg.Done()
	t := time.NewTicker(s.opts.Poll)
	defer t.Stop()
	for {
		select {
		case <-s.drainCh:
			return
		case <-t.C:
			if err := s.scanJobs("discovered"); err != nil {
				s.logf("rescan: %v", err)
			}
		}
	}
}

// StartDrain stops accepting work without waiting: submissions are
// refused, queued cells fail fast, backoff sleeps cut short. In-flight
// simulations keep running until Drain's deadline passes.
func (s *Server) StartDrain() {
	s.closed.Store(true)
	s.drainOnce.Do(func() { close(s.drainCh) })
}

// Drain gracefully winds the server down: in-flight cells run to
// completion (their results are checkpointed in the store and their
// leases released), queued cells fail fast. If ctx expires first the
// remaining in-flight simulations are truncated via their cancel hook
// — the simulator polls it on the drive loop's stop grid, so the
// residual wait after abort is microseconds of simulated time, and
// every lease is still released on the way out.
func (s *Server) Drain(ctx context.Context) error {
	s.StartDrain()
	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		s.aborting.Store(true)
		<-done
		return ctx.Err()
	}
}

// Close drains with no deadline: every in-flight cell finishes.
func (s *Server) Close() { s.Drain(context.Background()) }

// submit registers the job (idempotently) and fans its cells across
// the pool. Cells are enqueued in a per-worker deterministic shuffle —
// seeded by (owner, job ID) — so N workers sharing a store start from
// different corners of the grid and divide it by lease contention
// instead of colliding cell by cell in the same order. The job's Cells
// slice keeps grid order, so results.csv is identical however many
// workers raced.
func (s *Server) submit(spec grid.Sweep) (*job, error) {
	spec = spec.Normalize()
	points, err := spec.Cells()
	if err != nil {
		return nil, err
	}
	cells := make([]*cell, len(points))
	for i, c := range points {
		cells[i] = &cell{Cell: c, key: c.Key(), state: "pending"}
	}
	id := spec.ID()

	s.mu.Lock()
	if j, ok := s.jobs[id]; ok {
		s.mu.Unlock()
		return j, nil
	}
	j := &job{ID: id, Spec: spec, Cells: cells}
	j.cond = sync.NewCond(&j.mu)
	s.jobs[id] = j
	s.mu.Unlock()

	if err := s.checkpoint(j); err != nil {
		return nil, err
	}
	order := rand.New(rand.NewSource(lease.Seed(s.leases.Owner(), id))).Perm(len(j.Cells))
	for _, i := range order {
		s.enqueue(j, j.Cells[i])
	}
	return j, nil
}

// checkpoint durably records the job spec (atomic temp + rename), so a
// restarted server can rebuild the grid. Completed-cell state needs no
// separate record: it is exactly the set of store entries.
func (s *Server) checkpoint(j *job) error {
	b, err := json.MarshalIndent(j.Spec, "", "  ")
	if err != nil {
		return err
	}
	dir := filepath.Join(s.opts.StateDir, "jobs")
	tmp, err := os.CreateTemp(dir, ".job-*")
	if err != nil {
		return fmt.Errorf("sweepd: %w", err)
	}
	if _, err := tmp.Write(append(b, '\n')); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return fmt.Errorf("sweepd: %w", err)
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("sweepd: %w", err)
	}
	if err := os.Rename(tmp.Name(), filepath.Join(dir, j.ID+".json")); err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("sweepd: %w", err)
	}
	return nil
}

// enqueue runs one cell through the leased pipeline. Cells are keyed
// by their store hash, so overlapping jobs join the same in-flight run
// instead of repeating it.
func (s *Server) enqueue(j *job, c *cell) {
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		res, err := s.pool.Do(c.key.Hash(), func() (hetsim.Results, error) {
			return s.runLeased(c)
		})
		s.complete(j, c, res, err)
	}()
}

// sleep waits d unless the server starts draining first, reporting
// whether the full wait elapsed.
func (s *Server) sleep(d time.Duration) bool {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return true
	case <-s.drainCh:
		return false
	}
}

// runLeased is the per-cell state machine tying every robustness
// mechanism together:
//
//	store hit → done (restored)
//	lease held elsewhere → back off (capped exponential, seeded
//	    jitter), re-check the store — the holder's finished result
//	    arrives as a cache hit; if the holder dies instead, its lease
//	    expires and the next TryAcquire reclaims it with a bumped
//	    fencing token
//	lease acquired → heartbeat in the background, then the
//	    read-through step: re-check the store (a hit is restored),
//	    else run the simulator and checkpoint to the store; release
//	run error → release, count an attempt, back off, retry; past the
//	    attempt budget the cell is poisoned
//
// Backoff sleeps happen while holding a pool slot — acceptable because
// contention means another process is doing the cell's work, so this
// worker's slot has nothing better to run that isn't also contended.
func (s *Server) runLeased(c *cell) (hetsim.Results, error) {
	hash := c.key.Hash()
	bo := lease.NewBackoff(0, 0, lease.Seed(s.leases.Owner(), hash))
	attempts := 0
	for {
		if s.closed.Load() {
			return hetsim.Results{}, errClosed
		}
		if res, ok := s.cache.Get(c.key); ok {
			s.restored.Add(1)
			return res, nil
		}
		ls, err := s.leases.TryAcquire(hash)
		if errors.Is(err, lease.ErrHeld) {
			if !s.sleep(bo.Next()) {
				return hetsim.Results{}, errClosed
			}
			continue
		}
		if err != nil {
			return hetsim.Results{}, err
		}
		// The step re-checks the store under the lease: a holder that
		// finished since our store read shows up as a hit.
		stop := make(chan struct{})
		lost := ls.Heartbeat(0, stop)
		if hold := s.opts.HoldCellForTest; hold > 0 {
			s.sleep(hold)
		}
		res, hit, runErr := s.runCell(c)
		close(stop)
		select {
		case <-lost:
			// Reclaimed mid-run (a long stall outlived the TTL). The
			// reclaimer is re-running the cell; our result is
			// byte-identical, so publishing it anyway is harmless — the
			// log line is for observability, not recovery.
			s.logf("lease lost mid-cell %s (duplicated work)", hash[:12])
		default:
		}
		if err := ls.Release(); err != nil {
			s.logf("lease release %s: %v", hash[:12], err)
		}
		if runErr == nil {
			if hit {
				s.restored.Add(1)
			} else {
				s.executed.Add(1)
			}
			return res, nil
		}
		if s.closed.Load() {
			// A drain-aborted run is a shutdown, not a strike against
			// the cell.
			return hetsim.Results{}, errClosed
		}
		attempts++
		if attempts >= s.opts.CellAttempts {
			return hetsim.Results{}, fmt.Errorf("%w after %d attempts: %v", errPoisoned, attempts, runErr)
		}
		s.logf("cell %s attempt %d/%d failed, backing off: %v",
			hash[:12], attempts, s.opts.CellAttempts, runErr)
		if !s.sleep(bo.Next()) {
			return hetsim.Results{}, errClosed
		}
	}
}

// runCell runs the cell through the read-through step, with the cell
// deadline and the drain-abort flag folded into one polled cancel
// hook, which Cell.Run latches. hit reports a store hit.
func (s *Server) runCell(c *cell) (res hetsim.Results, hit bool, err error) {
	run := c.Cell
	var deadline time.Time
	if s.opts.CellTimeout > 0 {
		deadline = time.Now().Add(s.opts.CellTimeout)
	}
	run.Cfg.Cancel = func() bool {
		return s.aborting.Load() || (!deadline.IsZero() && time.Now().After(deadline))
	}
	res, hit, err = exp.ReadThrough(s.cache, c.key, run, nil, s.logf)
	if errors.Is(err, grid.ErrCanceled) {
		if s.aborting.Load() {
			return hetsim.Results{}, false, fmt.Errorf("sweepd: run aborted by drain deadline")
		}
		return hetsim.Results{}, false, fmt.Errorf("sweepd: run exceeded cell deadline %v", s.opts.CellTimeout)
	}
	return res, hit, err
}

// logf writes one prefixed line to the operational log.
func (s *Server) logf(format string, args ...any) {
	fmt.Fprintf(s.opts.Log, "sweepd: "+format+"\n", args...)
}

// complete records the finished cell and publishes its epoch series to
// any live /epochs streams.
func (s *Server) complete(j *job, c *cell, res hetsim.Results, err error) {
	state := "done"
	if err != nil {
		state = "failed"
		if errors.Is(err, errPoisoned) {
			state = "poisoned"
		}
	}
	c.mu.Lock()
	c.state = state
	if err != nil {
		c.errMsg = err.Error()
	} else {
		c.header = res.CSVHeader()
		c.row = res.CSVRow()
	}
	c.mu.Unlock()

	var chunk []byte
	if err == nil && res.Epochs != nil {
		// The cell identity is spliced into every JSONL record through
		// the same label-column path the CLI epoch files use, so a stream
		// carrying many cells stays self-describing line by line.
		var buf bytes.Buffer
		if werr := res.Epochs.WriteJSONL(&buf,
			[]string{"job", "bench", "param", "value"},
			[]string{j.ID, c.Bench, j.Spec.Param, c.Value}); werr == nil {
			chunk = buf.Bytes()
		} else {
			s.logf("epoch encode failed: %v", werr)
		}
	}

	j.mu.Lock()
	switch state {
	case "done":
		j.done++
	case "poisoned":
		j.poisoned++
	default:
		j.failed++
	}
	j.epochLog = append(j.epochLog, chunk...)
	j.mu.Unlock()
	j.cond.Broadcast()
}

// Status is the wire form of a job's progress.
type Status struct {
	ID     string     `json:"id"`
	Spec   grid.Sweep `json:"spec"`
	State  string     `json:"state"` // "running" | "done" | "failed"
	Total  int        `json:"total"`
	Done   int        `json:"done"`
	Failed int        `json:"failed"`
	// Poisoned counts cells that exhausted their retry budget; they are
	// final (never retried) and make the job "failed".
	Poisoned int `json:"poisoned,omitempty"`
	// Executed and Restored are server-lifetime counters: cells that
	// ran the simulator vs cells served from the durable store.
	Executed uint64   `json:"executed"`
	Restored uint64   `json:"restored"`
	Errors   []string `json:"errors,omitempty"`
}

func (s *Server) status(j *job) Status {
	j.mu.Lock()
	done, failed, poisoned := j.done, j.failed, j.poisoned
	j.mu.Unlock()
	st := Status{
		ID: j.ID, Spec: j.Spec, State: "running",
		Total: len(j.Cells), Done: done, Failed: failed, Poisoned: poisoned,
		Executed: s.executed.Load(), Restored: s.restored.Load(),
	}
	if done+failed+poisoned == len(j.Cells) {
		if failed+poisoned > 0 {
			st.State = "failed"
		} else {
			st.State = "done"
		}
	}
	for _, c := range j.Cells {
		c.mu.Lock()
		if c.errMsg != "" {
			st.Errors = append(st.Errors, fmt.Sprintf("%s value=%q: %s", c.Bench, c.Value, c.errMsg))
		}
		c.mu.Unlock()
	}
	return st
}

// Health is the wire form of /healthz and /readyz.
type Health struct {
	OK       bool   `json:"ok"`
	Owner    string `json:"owner"`
	Draining bool   `json:"draining"`
	// StoreWritable probes the objects tree with a real write; the
	// probe also heals the degraded latch when the disk recovers.
	StoreWritable bool `json:"store_writable"`
	StoreDegraded bool `json:"store_degraded"`
	// LiveLeases counts unexpired leases in the shared directory (all
	// owners); HeldByPeers counts the ones not ours.
	LiveLeases  int `json:"live_leases"`
	HeldByPeers int `json:"held_by_peers"`
	// QueueDepth is the number of unfinished cells across all jobs.
	QueueDepth int `json:"queue_depth"`
	Jobs       int `json:"jobs"`
}

func (s *Server) health() Health {
	h := Health{Owner: s.leases.Owner(), Draining: s.closed.Load()}
	if s.disk != nil {
		h.StoreWritable = s.disk.Writable()
		h.StoreDegraded = s.disk.Degraded()
	} else {
		h.StoreWritable = true // injected cache: nothing to probe
	}
	for _, owner := range s.leases.Holders() {
		h.LiveLeases++
		if owner != s.leases.Owner() {
			h.HeldByPeers++
		}
	}
	s.mu.Lock()
	h.Jobs = len(s.jobs)
	jobs := make([]*job, 0, len(s.jobs))
	for _, j := range s.jobs {
		jobs = append(jobs, j)
	}
	s.mu.Unlock()
	for _, j := range jobs {
		j.mu.Lock()
		h.QueueDepth += len(j.Cells) - j.done - j.failed - j.poisoned
		j.mu.Unlock()
	}
	h.OK = !h.Draining && h.StoreWritable
	return h
}

// Handler builds the HTTP API:
//
//	POST /api/v1/sweeps              submit a grid.Sweep (idempotent)
//	GET  /api/v1/sweeps              list job statuses
//	GET  /api/v1/sweeps/{id}         one job's status
//	GET  /api/v1/sweeps/{id}/results.csv   summary CSV (?wait=1 blocks)
//	GET  /api/v1/sweeps/{id}/epochs  live per-epoch JSONL stream
//	GET  /healthz                    liveness + store/lease/queue detail
//	GET  /readyz                     200 while serving, 503 once draining
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /api/v1/sweeps", s.handleSubmit)
	mux.HandleFunc("GET /api/v1/sweeps", s.handleList)
	mux.HandleFunc("GET /api/v1/sweeps/{id}", s.handleStatus)
	mux.HandleFunc("GET /api/v1/sweeps/{id}/results.csv", s.handleResults)
	mux.HandleFunc("GET /api/v1/sweeps/{id}/epochs", s.handleEpochs)
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	mux.HandleFunc("GET /readyz", s.handleReadyz)
	return mux
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(s.health())
}

func (s *Server) handleReadyz(w http.ResponseWriter, r *http.Request) {
	h := s.health()
	w.Header().Set("Content-Type", "application/json")
	if h.Draining {
		w.WriteHeader(http.StatusServiceUnavailable)
	}
	json.NewEncoder(w).Encode(h)
}

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	if s.closed.Load() {
		http.Error(w, errClosed.Error(), http.StatusServiceUnavailable)
		return
	}
	var spec grid.Sweep
	if err := json.NewDecoder(io.LimitReader(r.Body, 1<<20)).Decode(&spec); err != nil {
		http.Error(w, "bad spec: "+err.Error(), http.StatusBadRequest)
		return
	}
	j, err := s.submit(spec)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusAccepted)
	json.NewEncoder(w).Encode(s.status(j))
}

func (s *Server) handleList(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	jobs := make([]*job, 0, len(s.jobs))
	for _, j := range s.jobs {
		jobs = append(jobs, j)
	}
	s.mu.Unlock()
	sort.Slice(jobs, func(i, k int) bool { return jobs[i].ID < jobs[k].ID })
	out := make([]Status, len(jobs))
	for i, j := range jobs {
		out[i] = s.status(j)
	}
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(out)
}

func (s *Server) lookup(r *http.Request) *job {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.jobs[r.PathValue("id")]
}

func (s *Server) handleStatus(w http.ResponseWriter, r *http.Request) {
	j := s.lookup(r)
	if j == nil {
		http.NotFound(w, r)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(s.status(j))
}

func (s *Server) handleResults(w http.ResponseWriter, r *http.Request) {
	j := s.lookup(r)
	if j == nil {
		http.NotFound(w, r)
		return
	}
	if r.URL.Query().Get("wait") == "1" {
		j.mu.Lock()
		for !j.finished() {
			j.cond.Wait()
		}
		j.mu.Unlock()
	}
	w.Header().Set("Content-Type", "text/csv")
	cw := csv.NewWriter(w)
	wroteHeader := false
	for _, c := range j.Cells {
		c.mu.Lock()
		state, header, row := c.state, c.header, c.row
		bench, value := c.Bench, c.Value
		c.mu.Unlock()
		if state != "done" {
			continue
		}
		if !wroteHeader {
			cw.Write(append([]string{"param", "value", "bench"}, header...))
			wroteHeader = true
		}
		cw.Write(append([]string{j.Spec.Param, value, bench}, row...))
	}
	cw.Flush()
}

// handleEpochs streams the job's per-epoch JSONL live: whatever has
// accumulated is sent immediately, then the stream follows cell
// completions and closes when the grid is finished.
func (s *Server) handleEpochs(w http.ResponseWriter, r *http.Request) {
	j := s.lookup(r)
	if j == nil {
		http.NotFound(w, r)
		return
	}
	w.Header().Set("Content-Type", "application/jsonl")
	flusher, _ := w.(http.Flusher)

	// Wake the waiter when the client goes away so the handler's
	// goroutine doesn't outlive the connection.
	done := r.Context().Done()
	go func() {
		<-done
		j.cond.Broadcast()
	}()

	off := 0
	for {
		j.mu.Lock()
		for off == len(j.epochLog) && !j.finished() {
			select {
			case <-done:
				j.mu.Unlock()
				return
			default:
			}
			j.cond.Wait()
		}
		chunk := j.epochLog[off:]
		off = len(j.epochLog)
		fin := j.finished()
		j.mu.Unlock()

		if len(chunk) > 0 {
			if _, err := w.Write(chunk); err != nil {
				return
			}
			if flusher != nil {
				flusher.Flush()
			}
		}
		if fin {
			return
		}
	}
}
