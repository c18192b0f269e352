package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"strings"
	"time"

	"hetsim"
	"hetsim/internal/grid"
	"hetsim/internal/lease"
)

// jobSpec and jobStatus mirror sweepd's wire JSON. The HTTP API is the
// contract between the two commands; sharing Go types would couple
// their builds without making the bytes any more compatible.
type jobSpec struct {
	Config        string   `json:"config"`
	Benchmarks    []string `json:"benchmarks"`
	Topology      string   `json:"topology,omitempty"`
	Param         string   `json:"param,omitempty"`
	Values        []string `json:"values,omitempty"`
	Scale         string   `json:"scale,omitempty"`
	Cores         int      `json:"cores,omitempty"`
	Pair          bool     `json:"pair,omitempty"`
	EpochInterval int64    `json:"epoch_interval,omitempty"`
}

type jobStatus struct {
	ID       string   `json:"id"`
	State    string   `json:"state"`
	Total    int      `json:"total"`
	Done     int      `json:"done"`
	Failed   int      `json:"failed"`
	Poisoned int      `json:"poisoned"`
	Executed uint64   `json:"executed"`
	Restored uint64   `json:"restored"`
	Errors   []string `json:"errors"`
}

type client struct {
	base     string
	attempts int
	stderr   io.Writer
	hc       *http.Client
}

func newClient(base string, attempts int, stderr io.Writer) *client {
	if attempts <= 0 {
		attempts = 1
	}
	return &client{base: base, attempts: attempts, stderr: stderr, hc: &http.Client{}}
}

// do issues one request, retrying transient failures — dial errors and
// 5xx responses — with capped exponential backoff and seeded jitter.
// Anything else (2xx, 4xx) returns to the caller, body open.
func (c *client) do(ctx context.Context, method, path string, body []byte) (*http.Response, error) {
	bo := lease.NewBackoff(50*time.Millisecond, 2*time.Second, lease.Seed("sweepctl", method, path))
	var lastErr error
	for i := 0; i < c.attempts; i++ {
		if i > 0 {
			select {
			case <-time.After(bo.Next()):
			case <-ctx.Done():
				return nil, fmt.Errorf("%w (last transient error: %v)", ctx.Err(), lastErr)
			}
		}
		var rd io.Reader
		if body != nil {
			rd = bytes.NewReader(body)
		}
		req, err := http.NewRequestWithContext(ctx, method, c.base+path, rd)
		if err != nil {
			return nil, err
		}
		if body != nil {
			req.Header.Set("Content-Type", "application/json")
		}
		resp, err := c.hc.Do(req)
		if err != nil {
			if ctx.Err() != nil {
				return nil, ctx.Err()
			}
			lastErr = err
			fmt.Fprintf(c.stderr, "sweepctl: %s %s: %v (attempt %d/%d)\n", method, path, err, i+1, c.attempts)
			continue
		}
		if resp.StatusCode >= 500 {
			msg, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
			resp.Body.Close()
			lastErr = fmt.Errorf("%s: %s", resp.Status, strings.TrimSpace(string(msg)))
			fmt.Fprintf(c.stderr, "sweepctl: %s %s: %v (attempt %d/%d)\n", method, path, lastErr, i+1, c.attempts)
			continue
		}
		return resp, nil
	}
	return nil, fmt.Errorf("giving up after %d attempts: %w", c.attempts, lastErr)
}

// getJSON fetches path and decodes a 200 response into out.
func (c *client) getJSON(ctx context.Context, path string, out any) error {
	resp, err := c.do(ctx, http.MethodGet, path, nil)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
		return fmt.Errorf("%s: %s", resp.Status, strings.TrimSpace(string(msg)))
	}
	return json.NewDecoder(resp.Body).Decode(out)
}

// stream copies path's response body to out as it arrives (epochs,
// results.csv). Retry applies to establishing the request only — a
// stream that dies mid-flight must not be restarted and replayed.
func (c *client) stream(ctx context.Context, path string, out io.Writer) error {
	resp, err := c.do(ctx, http.MethodGet, path, nil)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
		return fmt.Errorf("%s: %s", resp.Status, strings.TrimSpace(string(msg)))
	}
	_, err = io.Copy(out, resp.Body)
	return err
}

// validateSpec runs the spec through the same grid tables sweepd
// expands cells with, so every rejection happens client-side with the
// server's exact vocabulary.
func validateSpec(s jobSpec) error {
	cfg, err := grid.Config(s.Config, s.Cores)
	if err != nil {
		return fmt.Errorf("%w (one of %s)", err, strings.Join(grid.ConfigNames(), "|"))
	}
	if s.Topology != "" {
		if err := grid.ApplyTopology(&cfg, s.Topology); err != nil {
			return err
		}
	}
	sc, err := grid.Scale(s.Scale)
	if err != nil {
		return err
	}
	if len(s.Benchmarks) == 0 {
		return fmt.Errorf("at least one benchmark required (-bench)")
	}
	known := map[string]bool{}
	for _, b := range hetsim.Benchmarks() {
		known[b] = true
	}
	for _, b := range s.Benchmarks {
		if !known[b] {
			return fmt.Errorf("unknown benchmark %q", b)
		}
	}
	if (s.Param == "") != (len(s.Values) == 0) {
		return fmt.Errorf("-param and -values must be given together")
	}
	for _, v := range s.Values {
		c2, s2 := cfg, sc
		if err := grid.Apply(&c2, &s2, s.Param, v); err != nil {
			return err
		}
	}
	return nil
}

// splitList parses a comma-separated flag value, dropping empties.
func splitList(s string) []string {
	var out []string
	for _, p := range strings.Split(s, ",") {
		if p = strings.TrimSpace(p); p != "" {
			out = append(out, p)
		}
	}
	return out
}

func (c *client) cmdSubmit(ctx context.Context, args []string, out io.Writer) error {
	fs := flag.NewFlagSet("sweepctl submit", flag.ContinueOnError)
	fs.SetOutput(c.stderr)
	config := fs.String("config", "", "configuration ("+strings.Join(grid.ConfigNames(), "|")+")")
	bench := fs.String("bench", "", "comma-separated benchmarks")
	topo := fs.String("topology", "", "override the memory organization: a named topology ("+strings.Join(grid.TopologyNames(), "|")+") or a raw spec")
	param := fs.String("param", "", "swept parameter ("+strings.Join(grid.Params(), "|")+")")
	values := fs.String("values", "", "comma-separated values for -param")
	scale := fs.String("scale", "test", "run scale (quick|test|bench|paper)")
	cores := fs.Int("cores", 8, "simulated cores")
	pair := fs.Bool("pair", false, "run shared+alone pairs (weighted speedup)")
	epoch := fs.Int64("epoch-interval", 0, "per-epoch sampling interval in cycles (0 = off)")
	wait := fs.Bool("wait", false, "block until the job finishes")
	if err := fs.Parse(args); err != nil {
		return err
	}
	spec := jobSpec{
		Config:        strings.ToLower(strings.TrimSpace(*config)),
		Benchmarks:    splitList(*bench),
		Topology:      strings.ToLower(strings.TrimSpace(*topo)),
		Param:         strings.ToLower(strings.TrimSpace(*param)),
		Values:        splitList(*values),
		Scale:         strings.ToLower(*scale),
		Cores:         *cores,
		Pair:          *pair,
		EpochInterval: *epoch,
	}
	if err := validateSpec(spec); err != nil {
		return err
	}
	b, _ := json.Marshal(spec)
	resp, err := c.do(ctx, http.MethodPost, "/api/v1/sweeps", b)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
		return fmt.Errorf("%s: %s", resp.Status, strings.TrimSpace(string(msg)))
	}
	var st jobStatus
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		return err
	}
	printStatus(out, st)
	if !*wait {
		return nil
	}
	failed, err := c.awaitJob(ctx, st.ID, out)
	if err != nil {
		return err
	}
	if failed {
		return fmt.Errorf("job %s failed", st.ID)
	}
	return nil
}

func printStatus(out io.Writer, st jobStatus) {
	fmt.Fprintf(out, "%s  %-8s %d/%d done", st.ID, st.State, st.Done, st.Total)
	if st.Failed > 0 {
		fmt.Fprintf(out, ", %d failed", st.Failed)
	}
	if st.Poisoned > 0 {
		fmt.Fprintf(out, ", %d poisoned", st.Poisoned)
	}
	fmt.Fprintln(out)
	for _, e := range st.Errors {
		fmt.Fprintf(out, "  error: %s\n", e)
	}
}

func (c *client) cmdStatus(ctx context.Context, args []string, out io.Writer) error {
	if len(args) == 0 {
		var all []jobStatus
		if err := c.getJSON(ctx, "/api/v1/sweeps", &all); err != nil {
			return err
		}
		if len(all) == 0 {
			fmt.Fprintln(out, "no jobs")
			return nil
		}
		for _, st := range all {
			printStatus(out, st)
		}
		return nil
	}
	var st jobStatus
	if err := c.getJSON(ctx, "/api/v1/sweeps/"+args[0], &st); err != nil {
		return err
	}
	printStatus(out, st)
	return nil
}

// awaitJob polls status until the job leaves "running"; reports
// whether it ended failed.
func (c *client) awaitJob(ctx context.Context, id string, out io.Writer) (failed bool, err error) {
	for {
		var st jobStatus
		if err := c.getJSON(ctx, "/api/v1/sweeps/"+id, &st); err != nil {
			return false, err
		}
		if st.State != "running" {
			printStatus(out, st)
			return st.State != "done", nil
		}
		select {
		case <-time.After(waitPollInterval):
		case <-ctx.Done():
			return false, ctx.Err()
		}
	}
}

func (c *client) cmdWait(ctx context.Context, args []string, out io.Writer) (bool, error) {
	if len(args) != 1 {
		return false, fmt.Errorf("usage: sweepctl wait <job-id>")
	}
	return c.awaitJob(ctx, args[0], out)
}

func (c *client) cmdTail(ctx context.Context, args []string, out io.Writer) error {
	if len(args) != 1 {
		return fmt.Errorf("usage: sweepctl tail <job-id>")
	}
	return c.stream(ctx, "/api/v1/sweeps/"+args[0]+"/epochs", out)
}

func (c *client) cmdResults(ctx context.Context, args []string, out io.Writer) error {
	if len(args) != 1 {
		return fmt.Errorf("usage: sweepctl results <job-id>")
	}
	return c.stream(ctx, "/api/v1/sweeps/"+args[0]+"/results.csv?wait=1", out)
}

func (c *client) cmdHealth(ctx context.Context, out io.Writer) error {
	var h map[string]any
	if err := c.getJSON(ctx, "/healthz", &h); err != nil {
		return err
	}
	b, _ := json.MarshalIndent(h, "", "  ")
	fmt.Fprintf(out, "%s\n", b)
	return nil
}
