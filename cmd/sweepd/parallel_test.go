package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"testing"

	"hetsim/internal/grid"
)

// cellStreams splits a multi-cell epoch JSONL stream into one
// sub-stream per cell, keyed by the bench/value identity every line
// carries. Cells complete in whatever order the worker pool schedules
// them — the stream interleaves cells nondeterministically, which is
// exactly why each line is self-describing — but within one cell the
// lines are a single WriteJSONL chunk in epoch order, so the per-cell
// sub-streams are the deterministic unit of comparison.
func cellStreams(t *testing.T, epochs string) map[string]string {
	t.Helper()
	field := func(line, name string) string {
		tag := `"` + name + `":"`
		i := strings.Index(line, tag)
		if i < 0 {
			t.Fatalf("epoch line missing %q column: %s", name, line)
		}
		rest := line[i+len(tag):]
		j := strings.IndexByte(rest, '"')
		if j < 0 {
			t.Fatalf("unterminated %q column: %s", name, line)
		}
		return rest[:j]
	}
	out := make(map[string]string)
	for _, line := range strings.Split(epochs, "\n") {
		if strings.TrimSpace(line) == "" {
			continue
		}
		key := field(line, "bench") + "/" + field(line, "value")
		out[key] += line + "\n"
	}
	return out
}

// legacyParallelSpec checkpoints spec into stateDir the way servers did
// while the sweep spec still carried a "parallel" field: the field set to true
// and the file named after the ID that encoding hashed to. Today's
// decoder ignores the field, so the file's name is not its job's ID.
func legacyParallelSpec(t *testing.T, stateDir string, spec grid.Sweep) string {
	t.Helper()
	b, _ := json.Marshal(spec.Normalize())
	b = append(bytes.TrimSuffix(b, []byte("}")), `,"parallel":true}`...)
	sum := sha256.Sum256(b)
	id := hex.EncodeToString(sum[:])[:12]
	dir := filepath.Join(stateDir, "jobs")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, id+".json"), b, 0o644); err != nil {
		t.Fatal(err)
	}
	return id
}

// syncBuffer is a log sink safe for the server's concurrent writers.
type syncBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *syncBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

// TestSweepdParallelEpochsIdentical resumes a checkpoint written with
// "parallel": true and runs the same grid as a fresh submission without
// the field, against separate cache directories so both jobs really
// simulate. The field selected an execution strategy that no longer
// exists; the resumed job must be the fresh job, byte for byte: the
// summary CSV and every cell's per-epoch JSONL sub-stream.
func TestSweepdParallelEpochsIdentical(t *testing.T) {
	spec := testSpec()

	legacyDir := t.TempDir()
	legacyID := legacyParallelSpec(t, filepath.Join(legacyDir, "state"), spec)
	if legacyID != "4b4cc6b0af2d" {
		t.Fatalf("legacy ID = %s; the spliced encoding no longer matches the old checkpoint format", legacyID)
	}
	lh := newHarness(t, filepath.Join(legacyDir, "cache"), filepath.Join(legacyDir, "state"), 1)
	defer lh.srv.Close()
	id := spec.Normalize().ID()
	if id == legacyID {
		t.Fatal("legacy and current IDs coincide; the test would not exercise the renamed file")
	}
	if fin := lh.waitDone(t, id); fin.State != "done" || fin.Failed != 0 {
		t.Fatalf("resumed legacy job did not finish cleanly: %+v", fin)
	}
	legacyCSV, legacyEpochs := lh.resultsCSV(t, id), lh.epochs(t, id)

	freshDir := t.TempDir()
	fh := newHarness(t, filepath.Join(freshDir, "cache"), filepath.Join(freshDir, "state"), 1)
	defer fh.srv.Close()
	st := fh.submit(t, spec)
	if fin := fh.waitDone(t, st.ID); fin.State != "done" || fin.Failed != 0 {
		t.Fatalf("fresh job did not finish cleanly: %+v", fin)
	}
	freshCSV, freshEpochs := fh.resultsCSV(t, st.ID), fh.epochs(t, st.ID)
	for name, n := range map[string]uint64{"legacy": lh.srv.executed.Load(), "fresh": fh.srv.executed.Load()} {
		if n != 4 {
			t.Fatalf("%s job executed %d cells, want 4 (a cache hit would make this vacuous)", name, n)
		}
	}

	if legacyCSV != freshCSV {
		t.Errorf("summary CSV diverged:\nfresh:\n%s\nlegacy:\n%s", freshCSV, legacyCSV)
	}
	fs, ls := cellStreams(t, freshEpochs), cellStreams(t, legacyEpochs)
	var keys []string
	for k := range fs {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	if len(ls) != len(fs) {
		t.Errorf("cell sets diverged: fresh has %d cells, legacy %d", len(fs), len(ls))
	}
	for _, k := range keys {
		if ls[k] == fs[k] {
			continue
		}
		fl, ll := strings.Split(fs[k], "\n"), strings.Split(ls[k], "\n")
		for i := 0; i < len(fl) && i < len(ll); i++ {
			if fl[i] != ll[i] {
				t.Logf("cell %s: first divergence at line %d:\nfresh  %s\nlegacy %s", k, i, fl[i], ll[i])
				break
			}
		}
		t.Errorf("cell %s epoch stream diverged (%d vs %d bytes)", k, len(fs[k]), len(ls[k]))
	}
	if len(keys) == 0 {
		t.Fatal("epoch stream is empty")
	}
	if !strings.Contains(freshEpochs, "sim.events") {
		t.Error("epoch stream carries no sim.events column; the identity check lost its strongest signal")
	}
}

// TestSweepdRescanSkipsProcessedFiles drops a legacy checkpoint (its
// file name is not its job ID) and an invalid spec into the state
// directory, then rescans it several times. Each file must be read and
// logged once, not on every poll, and the legacy job must still finish
// with the results a fresh submission of the same spec produces.
func TestSweepdRescanSkipsProcessedFiles(t *testing.T) {
	spec := testSpec()
	dir := t.TempDir()
	stateDir := filepath.Join(dir, "state")
	legacyID := legacyParallelSpec(t, stateDir, spec)
	bad := spec
	bad.Benchmarks = []string{"no-such-benchmark"}
	badPath := filepath.Join(stateDir, "jobs", "hand-dropped.json")
	b, _ := json.Marshal(bad)
	if err := os.WriteFile(badPath, b, 0o644); err != nil {
		t.Fatal(err)
	}

	var log syncBuffer
	h := newHarnessOpts(t, Options{
		CacheDir: filepath.Join(dir, "cache"), StateDir: stateDir, Workers: 2, Log: &log,
	})
	defer h.srv.Close()
	id := spec.Normalize().ID()
	if fin := waitJobDone(t, h.srv, id); fin.State != "done" || fin.Failed != 0 {
		t.Fatalf("legacy job did not finish cleanly: %+v", fin)
	}
	for i := 0; i < 3; i++ {
		if err := h.srv.scanJobs("discovered"); err != nil {
			t.Fatal(err)
		}
	}

	text := log.String()
	if n := strings.Count(text, "resumed job "+id); n != 1 {
		t.Errorf("legacy file %s logged %d times, want 1:\n%s", legacyID, n, text)
	}
	if n := strings.Count(text, "hand-dropped.json"); n != 1 {
		t.Errorf("invalid spec logged %d times, want 1:\n%s", n, text)
	}
	if n := strings.Count(text, "discovered"); n != 0 {
		t.Errorf("rescans re-submitted processed files:\n%s", text)
	}
	if got, want := h.resultsCSV(t, id), referenceCSV(t, spec); got != want {
		t.Errorf("legacy job CSV diverged from a fresh submission:\nlegacy:\n%s\nfresh:\n%s", got, want)
	}
}
