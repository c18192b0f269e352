// Command sweepctl is the client for sweepd: it submits sweep jobs,
// reports their status, tails their live epoch telemetry, and waits
// for completion — with capped exponential backoff on transient
// failures (connection refused, 5xx) so a worker restarting behind the
// same address is an inconvenience, not an error.
//
// Specs are validated locally by expanding them with grid.Sweep.Cells,
// the call the server builds cells with, so a spec sweepctl accepts is
// a spec sweepd accepts, and error messages arrive before the network
// does.
//
// Usage:
//
//	sweepctl [-server URL] [-timeout D] [-retries N] <command> [args]
//
//	sweepctl submit -config rl -bench libquantum,mcf -param robsize -values 32,64,128 -wait
//	sweepctl status [job-id]
//	sweepctl wait <job-id>
//	sweepctl tail <job-id>
//	sweepctl results <job-id>
//	sweepctl health
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"time"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func usage(w io.Writer, fs *flag.FlagSet) {
	fmt.Fprintf(w, `usage: sweepctl [flags] <command> [args]

commands:
  submit    submit a sweep spec (see "sweepctl submit -h")
  status    [job-id]  one job's status, or all jobs
  wait      <job-id>  block until the job finishes; exit 1 if it failed
  tail      <job-id>  stream live per-epoch JSONL to stdout
  results   <job-id>  fetch the summary CSV (blocks until finished)
  health    the server's /healthz report

flags:
`)
	fs.PrintDefaults()
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("sweepctl", flag.ContinueOnError)
	fs.SetOutput(stderr)
	server := fs.String("server", "http://127.0.0.1:8321", "sweepd base URL")
	timeout := fs.Duration("timeout", 0, "overall command deadline (0 = none)")
	retries := fs.Int("retries", 4, "attempts per request on transient errors (connect failures, 5xx)")
	fs.Usage = func() { usage(stderr, fs) }
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() < 1 {
		fs.Usage()
		return 2
	}

	ctx := context.Background()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}
	cl := newClient(strings.TrimRight(*server, "/"), *retries, stderr)

	cmd, rest := fs.Arg(0), fs.Args()[1:]
	var err error
	switch cmd {
	case "submit":
		err = cl.cmdSubmit(ctx, rest, stdout)
	case "status":
		err = cl.cmdStatus(ctx, rest, stdout)
	case "wait":
		var failed bool
		failed, err = cl.cmdWait(ctx, rest, stdout)
		if err == nil && failed {
			return 1
		}
	case "tail":
		err = cl.cmdTail(ctx, rest, stdout)
	case "results":
		err = cl.cmdResults(ctx, rest, stdout)
	case "health":
		err = cl.cmdHealth(ctx, stdout)
	default:
		fmt.Fprintf(stderr, "sweepctl: unknown command %q\n", cmd)
		fs.Usage()
		return 2
	}
	if err != nil {
		fmt.Fprintln(stderr, "sweepctl:", err)
		return 1
	}
	return 0
}

// waitPollInterval is how often wait-style commands re-poll status; a
// variable so tests can tighten it.
var waitPollInterval = 500 * time.Millisecond
