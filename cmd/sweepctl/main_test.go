package main

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"hetsim/internal/grid"
)

func init() {
	waitPollInterval = 5 * time.Millisecond
}

// runCtl invokes the CLI against a test server, returning exit code
// and captured output.
func runCtl(t *testing.T, url string, args ...string) (int, string, string) {
	t.Helper()
	var out, errb bytes.Buffer
	code := run(append([]string{"-server", url}, args...), &out, &errb)
	return code, out.String(), errb.String()
}

// TestRetriesTransientErrors: two 502s then success must yield exit 0
// after exactly three requests.
func TestRetriesTransientErrors(t *testing.T) {
	var calls atomic.Int32
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if calls.Add(1) <= 2 {
			http.Error(w, "proxy hiccup", http.StatusBadGateway)
			return
		}
		json.NewEncoder(w).Encode(jobStatus{ID: "abc123", State: "done", Total: 4, Done: 4})
	}))
	defer ts.Close()

	code, out, _ := runCtl(t, ts.URL, "-retries", "5", "status", "abc123")
	if code != 0 {
		t.Fatalf("exit %d, want 0", code)
	}
	if got := calls.Load(); got != 3 {
		t.Fatalf("server saw %d requests, want 3 (2 failures + 1 success)", got)
	}
	if !strings.Contains(out, "abc123") || !strings.Contains(out, "done") {
		t.Fatalf("bad output: %q", out)
	}
}

// TestGivesUpAfterRetryBudget: a persistently failing server exhausts
// the budget and exits nonzero, having tried exactly -retries times.
func TestGivesUpAfterRetryBudget(t *testing.T) {
	var calls atomic.Int32
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		calls.Add(1)
		http.Error(w, "still broken", http.StatusServiceUnavailable)
	}))
	defer ts.Close()

	code, _, errb := runCtl(t, ts.URL, "-retries", "3", "status", "abc123")
	if code != 1 {
		t.Fatalf("exit %d, want 1", code)
	}
	if got := calls.Load(); got != 3 {
		t.Fatalf("server saw %d requests, want exactly the budget of 3", got)
	}
	if !strings.Contains(errb, "giving up after 3 attempts") {
		t.Fatalf("stderr should report the exhausted budget: %q", errb)
	}
}

// TestConnectionRefusedRetries: dial errors are transient too — point
// at a closed port and check the budget is consumed, not one-shot.
func TestConnectionRefusedRetries(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {}))
	url := ts.URL
	ts.Close() // nothing listens here any more

	code, _, errb := runCtl(t, url, "-retries", "2", "status", "abc123")
	if code != 1 {
		t.Fatalf("exit %d, want 1", code)
	}
	if !strings.Contains(errb, "attempt 2/2") {
		t.Fatalf("stderr should show the second attempt: %q", errb)
	}
}

// TestTimeoutBoundsCommand: -timeout must cut a command off even while
// the server hangs, well before the retry budget would.
func TestTimeoutBoundsCommand(t *testing.T) {
	release := make(chan struct{})
	defer close(release)
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		select {
		case <-release:
		case <-r.Context().Done():
		}
	}))
	defer ts.Close()

	start := time.Now()
	code, _, _ := runCtl(t, ts.URL, "-timeout", "100ms", "-retries", "100", "status", "abc123")
	if code != 1 {
		t.Fatalf("exit %d, want 1", code)
	}
	if took := time.Since(start); took > 5*time.Second {
		t.Fatalf("timeout not honored: command ran %v", took)
	}
}

// TestSubmitValidatesLocally: a bad spec must never reach the network
// — the grid tables reject it client-side.
func TestSubmitValidatesLocally(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		t.Error("invalid spec reached the server")
	}))
	defer ts.Close()

	for _, args := range [][]string{
		{"submit", "-config", "warp9", "-bench", "mcf"},
		{"submit", "-config", "rl"},
		{"submit", "-config", "rl", "-bench", "no-such-bench"},
		{"submit", "-config", "rl", "-bench", "mcf", "-param", "robsize"},
		{"submit", "-config", "rl", "-bench", "mcf", "-param", "warp", "-values", "1"},
		{"submit", "-config", "rl", "-bench", "mcf", "-param", "robsize", "-values", "lots"},
		{"submit", "-config", "rl", "-bench", "mcf", "-scale", "huge"},
		{"submit", "-config", "rl", "-bench", "mcf", "-topology", "no-such-topology"},
		{"submit", "-config", "rl", "-bench", "mcf", "-topology", "crit:ddr5x4+line:lpddr2x4"},
		{"submit", "-config", "rl", "-bench", "mcf", "-param", "robsize", "-values", "-5"},
		{"submit", "-config", "rl", "-bench", "mcf", "-cores", "-1"},
		{"submit", "-config", "rl", "-bench", "mcf", "-param", "cores", "-values", "100"},
		{"submit", "-config", "rl", "-bench", "mcf", "-param", "parityrate", "-values", "2"},
		{"submit", "-config", "rl", "-bench", "mcf", "-epoch-interval", "-1"},
		{"submit", "-config", "rl", "-bench", "mcf", "-topology", "crit:rldram3x3+line:lpddr2x4"},
	} {
		if code, _, _ := runCtl(t, ts.URL, args...); code == 0 {
			t.Errorf("bad spec accepted: %v", args)
		}
	}
}

// TestSubmitAndWaitAgainstFake drives submit -wait against a scripted
// server: accepted → running → done.
func TestSubmitAndWaitAgainstFake(t *testing.T) {
	var polls atomic.Int32
	mux := http.NewServeMux()
	mux.HandleFunc("POST /api/v1/sweeps", func(w http.ResponseWriter, r *http.Request) {
		var spec grid.Sweep
		if err := json.NewDecoder(r.Body).Decode(&spec); err != nil {
			t.Errorf("bad spec from client: %v", err)
		}
		if spec.Config != "rl" || len(spec.Benchmarks) != 1 || spec.Param != "robsize" ||
			spec.Topology != "cwf-rd" {
			t.Errorf("spec mangled in flight: %+v", spec)
		}
		w.WriteHeader(http.StatusAccepted)
		json.NewEncoder(w).Encode(jobStatus{ID: "fake01", State: "running", Total: 2})
	})
	mux.HandleFunc("GET /api/v1/sweeps/fake01", func(w http.ResponseWriter, r *http.Request) {
		st := jobStatus{ID: "fake01", State: "running", Total: 2, Done: 1}
		if polls.Add(1) >= 3 {
			st.State, st.Done = "done", 2
		}
		json.NewEncoder(w).Encode(st)
	})
	ts := httptest.NewServer(mux)
	defer ts.Close()

	code, out, errb := runCtl(t, ts.URL, "submit",
		"-config", "rl", "-bench", "libquantum", "-topology", "cwf-rd",
		"-param", "robsize", "-values", "32,64", "-wait")
	if code != 0 {
		t.Fatalf("exit %d, want 0; stderr: %s", code, errb)
	}
	if !strings.Contains(out, "fake01") || !strings.Contains(out, "2/2 done") {
		t.Fatalf("bad output: %q", out)
	}
}

// TestWaitReportsFailure: wait exits 1 (not 0, not an error message
// only) when the job ends failed.
func TestWaitReportsFailure(t *testing.T) {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /api/v1/sweeps/badjob", func(w http.ResponseWriter, r *http.Request) {
		json.NewEncoder(w).Encode(jobStatus{ID: "badjob", State: "failed",
			Total: 1, Poisoned: 1, Errors: []string{"mcf value=\"32\": poisoned"}})
	})
	ts := httptest.NewServer(mux)
	defer ts.Close()

	code, out, _ := runCtl(t, ts.URL, "wait", "badjob")
	if code != 1 {
		t.Fatalf("exit %d, want 1 for a failed job", code)
	}
	if !strings.Contains(out, "poisoned") {
		t.Fatalf("output should surface the poison: %q", out)
	}
}

// TestTailStreams: tail copies the JSONL body through verbatim.
func TestTailStreams(t *testing.T) {
	const body = `{"cycle":1,"ipc":0.5}` + "\n" + `{"cycle":2,"ipc":0.6}` + "\n"
	mux := http.NewServeMux()
	mux.HandleFunc("GET /api/v1/sweeps/j1/epochs", func(w http.ResponseWriter, r *http.Request) {
		w.Write([]byte(body))
	})
	ts := httptest.NewServer(mux)
	defer ts.Close()

	code, out, _ := runCtl(t, ts.URL, "tail", "j1")
	if code != 0 || out != body {
		t.Fatalf("exit %d, out %q", code, out)
	}
}

// TestUnknownCommand exits 2 with usage.
func TestUnknownCommand(t *testing.T) {
	code, _, errb := runCtl(t, "http://127.0.0.1:1", "frobnicate")
	if code != 2 {
		t.Fatalf("exit %d, want 2", code)
	}
	if !strings.Contains(errb, "unknown command") {
		t.Fatalf("stderr: %q", errb)
	}
}
