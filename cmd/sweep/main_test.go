package main

import (
	"bytes"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// sweepArgs is a small but real grid: two ROB sizes × one benchmark,
// epoch sampling on, test scale shrunk via the reads axis to keep the
// run fast.
func sweepArgs(dir, cacheDir string, j string) []string {
	args := []string{
		"-bench", "libquantum", "-config", "rl",
		"-param", "robsize", "-values", "32,64",
		"-scale", "test",
		"-epoch-interval", "50000",
		"-epoch-csv", filepath.Join(dir, "epochs.csv"),
		"-epoch-jsonl", filepath.Join(dir, "epochs.jsonl"),
		"-j", j,
	}
	if cacheDir != "" {
		args = append(args, "-cache-dir", cacheDir)
	}
	return args
}

// runSweep performs one full in-process invocation, returning stdout,
// stderr, and the two epoch file contents.
func runSweep(t *testing.T, cacheDir, j string) (stdout, stderr, epochCSV, epochJSONL string) {
	t.Helper()
	dir := t.TempDir()
	var out, errb bytes.Buffer
	if err := run(sweepArgs(dir, cacheDir, j), &out, &errb); err != nil {
		t.Fatalf("sweep failed: %v\nstderr: %s", err, errb.String())
	}
	csvB, err := os.ReadFile(filepath.Join(dir, "epochs.csv"))
	if err != nil {
		t.Fatal(err)
	}
	jsonlB, err := os.ReadFile(filepath.Join(dir, "epochs.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	return out.String(), errb.String(), string(csvB), string(jsonlB)
}

var cacheLine = regexp.MustCompile(`sweep: cache .*: (\d+) hits, (\d+) misses, (\d+) writes, (\d+) corrupt`)

// TestSweepCacheEquivalence is the acceptance gate for the durable
// cache: a repeated invocation with -cache-dir performs zero simulator
// runs on the second pass and produces byte-identical stdout CSV,
// epoch CSV, and epoch JSONL.
func TestSweepCacheEquivalence(t *testing.T) {
	cacheDir := filepath.Join(t.TempDir(), "cache")

	// Reference: no cache at all.
	refOut, _, refECSV, refEJSONL := runSweep(t, "", "2")

	// Cold: populates the cache; output must match the cache-free run.
	coldOut, coldErr, coldECSV, coldEJSONL := runSweep(t, cacheDir, "2")
	if coldOut != refOut || coldECSV != refECSV || coldEJSONL != refEJSONL {
		t.Fatal("-cache-dir changed the cold run's output")
	}
	m := cacheLine.FindStringSubmatch(coldErr)
	if m == nil {
		t.Fatalf("no cache summary on stderr:\n%s", coldErr)
	}
	if m[1] != "0" || m[2] != "2" || m[3] != "2" {
		t.Fatalf("cold pass should be 0 hits / 2 misses / 2 writes, got %v", m[1:])
	}

	// Warm: all hits, zero runs, byte-identical everywhere.
	warmOut, warmErr, warmECSV, warmEJSONL := runSweep(t, cacheDir, "8")
	if warmOut != coldOut {
		t.Fatalf("warm stdout diverged:\ncold:\n%s\nwarm:\n%s", coldOut, warmOut)
	}
	if warmECSV != coldECSV {
		t.Fatal("warm epoch CSV diverged")
	}
	if warmEJSONL != coldEJSONL {
		t.Fatal("warm epoch JSONL diverged")
	}
	m = cacheLine.FindStringSubmatch(warmErr)
	if m == nil {
		t.Fatalf("no cache summary on stderr:\n%s", warmErr)
	}
	if m[1] != "2" || m[2] != "0" || m[3] != "0" {
		t.Fatalf("warm pass should be 2 hits / 0 misses / 0 writes (zero simulator runs), got %v", m[1:])
	}
	if !strings.Contains(warmOut, "robsize") {
		t.Fatal("output lost the summary CSV")
	}
}

// TestSweepBadFlags pins clean error paths (no os.Exit in run).
func TestSweepBadFlags(t *testing.T) {
	var out, errb bytes.Buffer
	if err := run([]string{"-config", "warp9"}, &out, &errb); err == nil {
		t.Fatal("unknown config accepted")
	}
	if err := run([]string{"-epoch-csv", "x.csv"}, &out, &errb); err == nil {
		t.Fatal("-epoch-csv without -epoch-interval accepted")
	}
	if err := run([]string{"-param", "warp", "-values", "1"}, &out, &errb); err == nil {
		t.Fatal("unknown param accepted")
	}
	if err := run([]string{"-cache-max-bytes", "1000"}, &out, &errb); err == nil {
		t.Fatal("-cache-max-bytes without -cache-dir accepted")
	}
	if err := run([]string{"-cache-max-bytes", "-1", "-cache-dir", t.TempDir()}, &out, &errb); err == nil {
		t.Fatal("negative -cache-max-bytes accepted")
	}
}

// TestSweepDedupsRepeatedValues: a grid that lists the same cell twice
// simulates it once — one store miss and one write on a cold cache —
// and emits the shared result on both rows.
func TestSweepDedupsRepeatedValues(t *testing.T) {
	var out, errb bytes.Buffer
	args := []string{
		"-bench", "libquantum", "-config", "rl",
		"-param", "robsize", "-values", "32,32",
		"-scale", "quick", "-j", "2",
		"-cache-dir", filepath.Join(t.TempDir(), "cache"),
	}
	if err := run(args, &out, &errb); err != nil {
		t.Fatalf("sweep failed: %v\nstderr: %s", err, errb.String())
	}
	m := cacheLine.FindStringSubmatch(errb.String())
	if m == nil {
		t.Fatalf("no cache summary on stderr:\n%s", errb.String())
	}
	if m[1] != "0" || m[2] != "1" || m[3] != "1" {
		t.Fatalf("repeated cell should be 0 hits / 1 misses / 1 writes, got %v", m[1:])
	}
	rows := strings.Split(strings.TrimSpace(out.String()), "\n")
	if len(rows) != 3 || rows[1] != rows[2] {
		t.Fatalf("want a header and two identical rows, got:\n%s", out.String())
	}
}

// TestSweepOutputWriteError: a summary CSV that cannot be written is an
// error, not a silent exit 0 with nothing on disk.
func TestSweepOutputWriteError(t *testing.T) {
	if _, err := os.Stat("/dev/full"); err != nil {
		t.Skip("no /dev/full on this system")
	}
	var out, errb bytes.Buffer
	args := []string{
		"-bench", "libquantum", "-config", "rl",
		"-param", "reads", "-values", "200",
		"-scale", "quick", "-o", "/dev/full",
	}
	if err := run(args, &out, &errb); err == nil {
		t.Fatal("writing -o /dev/full reported success")
	}
}
