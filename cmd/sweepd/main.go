// Command sweepd is a long-running sweep job server. Clients POST
// sweep specifications; the server shards their (config, benchmark)
// grid cells across a bounded worker pool, caches every finished cell
// in the durable content-addressed store, and streams per-epoch
// telemetry live as JSON lines. Because the store is the checkpoint,
// a killed server resumes a half-finished sweep on restart re-running
// only the cells that never completed.
//
// Several sweepd processes pointing at the same -cache-dir and
// -state-dir form a coordinator-free worker pool: each cell is claimed
// through a lease file before it runs, so N workers divide a grid
// automatically, and a worker that dies mid-cell forfeits its claim
// after -lease-ttl of silence. Extra processes typically run headless
// with -worker (no HTTP API — jobs arrive via the shared state
// directory, rescanned every -poll).
//
// SIGTERM or SIGINT drains: submissions are refused, in-flight cells
// run to completion (up to -drain-timeout, then they are truncated),
// leases are released, and the process exits.
//
// Usage:
//
//	sweepd -addr 127.0.0.1:8321 -cache-dir .hetsim-cache -state-dir .hetsim-sweepd
//	sweepd -worker -cache-dir .hetsim-cache -state-dir .hetsim-sweepd   # extra workers
//
//	curl -X POST localhost:8321/api/v1/sweeps -d '{
//	  "config": "rl", "benchmarks": ["libquantum", "mcf"],
//	  "param": "robsize", "values": ["32", "64", "128"]}'
//	curl localhost:8321/api/v1/sweeps/<id>
//	curl localhost:8321/api/v1/sweeps/<id>/results.csv?wait=1
//	curl -N localhost:8321/api/v1/sweeps/<id>/epochs
//	curl localhost:8321/healthz
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"
)

func main() { os.Exit(realMain(os.Args[1:], os.Stderr)) }

func realMain(args []string, stderr io.Writer) int {
	fs := flag.NewFlagSet("sweepd", flag.ContinueOnError)
	fs.SetOutput(stderr)
	addr := fs.String("addr", "127.0.0.1:8321", "listen address")
	cacheDir := fs.String("cache-dir", ".hetsim-cache", "durable run cache directory (doubles as the completed-cell checkpoint and the lease directory workers coordinate through)")
	cacheMax := fs.Int64("cache-max-bytes", 0, "evict least-recently-used cache entries past this total size (0 = unlimited)")
	stateDir := fs.String("state-dir", ".hetsim-sweepd", "job spec directory; accepted sweeps survive restarts and propagate to peer workers")
	workers := fs.Int("j", 0, "parallel simulations (0 = GOMAXPROCS)")
	worker := fs.Bool("worker", false, "headless worker: serve no HTTP API, just poll the state directory for jobs and run leased cells")
	owner := fs.String("owner", "", "lease identity; must be unique among live workers sharing -cache-dir (default hostname-pid)")
	leaseTTL := fs.Duration("lease-ttl", 10*time.Second, "how long a silent worker keeps its cell claims before peers reclaim them")
	poll := fs.Duration("poll", 2*time.Second, "state-directory rescan interval for jobs submitted through peers (0 = disabled)")
	cellTimeout := fs.Duration("cell-timeout", 0, "per-cell run deadline; an overrunning cell is truncated and retried (0 = none)")
	cellAttempts := fs.Int("cell-attempts", 3, "run attempts per cell before marking it poisoned")
	drainTimeout := fs.Duration("drain-timeout", time.Minute, "on SIGTERM/SIGINT, how long in-flight cells may finish before being aborted")
	readHeaderTimeout := fs.Duration("read-header-timeout", 10*time.Second, "HTTP request header deadline")
	idleTimeout := fs.Duration("idle-timeout", 2*time.Minute, "HTTP keep-alive connection idle deadline")
	writeTimeout := fs.Duration("write-timeout", 0, "HTTP response write deadline; 0 by default because results.csv?wait=1 and /epochs are deliberately long-lived streams")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *cacheMax < 0 {
		fmt.Fprintln(stderr, "sweepd: -cache-max-bytes must be >= 0")
		return 2
	}

	srv, err := NewServer(Options{
		CacheDir:      *cacheDir,
		StateDir:      *stateDir,
		CacheMaxBytes: *cacheMax,
		Workers:       *workers,
		Log:           stderr,
		Owner:         *owner,
		LeaseTTL:      *leaseTTL,
		CellTimeout:   *cellTimeout,
		CellAttempts:  *cellAttempts,
		Poll:          *poll,
	})
	if err != nil {
		fmt.Fprintln(stderr, "sweepd:", err)
		return 1
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	if *worker {
		if *poll <= 0 {
			fmt.Fprintln(stderr, "sweepd: -worker requires -poll > 0 (jobs arrive only through the state directory)")
			return 2
		}
		fmt.Fprintf(stderr, "sweepd: worker %s polling %s every %v (cache %s)\n",
			srv.Owner(), *stateDir, *poll, *cacheDir)
		<-ctx.Done()
		stop()
		fmt.Fprintf(stderr, "sweepd: signal received, draining (up to %v)\n", *drainTimeout)
		return drain(srv, nil, *drainTimeout, stderr)
	}

	hs := &http.Server{
		Addr:              *addr,
		Handler:           srv.Handler(),
		ReadHeaderTimeout: *readHeaderTimeout,
		WriteTimeout:      *writeTimeout,
		IdleTimeout:       *idleTimeout,
	}
	fmt.Fprintf(stderr, "sweepd: %s listening on %s (cache %s, state %s)\n",
		srv.Owner(), *addr, *cacheDir, *stateDir)
	errCh := make(chan error, 1)
	go func() { errCh <- hs.ListenAndServe() }()
	select {
	case err := <-errCh:
		fmt.Fprintln(stderr, "sweepd:", err)
		return 1
	case <-ctx.Done():
		stop() // restore default handling: a second signal kills immediately
		fmt.Fprintf(stderr, "sweepd: signal received, draining (up to %v)\n", *drainTimeout)
		return drain(srv, hs, *drainTimeout, stderr)
	}
}

// drain winds the process down: refuse new work, close the listener,
// let in-flight cells finish within timeout, then abort stragglers.
func drain(srv *Server, hs *http.Server, timeout time.Duration, stderr io.Writer) int {
	srv.StartDrain()
	ctx, cancel := context.WithTimeout(context.Background(), timeout)
	defer cancel()
	if hs != nil {
		if err := hs.Shutdown(ctx); err != nil {
			fmt.Fprintln(stderr, "sweepd: http shutdown:", err)
		}
	}
	if err := srv.Drain(ctx); err != nil {
		fmt.Fprintln(stderr, "sweepd: drain deadline passed, aborted in-flight cells:", err)
		return 1
	}
	fmt.Fprintln(stderr, "sweepd: drained cleanly")
	return 0
}
