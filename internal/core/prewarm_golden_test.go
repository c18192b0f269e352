package core_test

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"reflect"
	"testing"

	"hetsim/internal/core"
	"hetsim/internal/grid"
	"hetsim/internal/workload"
)

// prewarmGoldenPath pins runs that start from a functional prewarm.
// Its one section, prewarm, holds a SHA-256 per
// <config>/<benchmark>/<cores> case.
const prewarmGoldenPath = "testdata/prewarm.golden"

// prewarmScale is the golden's run scale: TestScale's prewarm ahead of
// a short measured window with epochs.
var prewarmScale = core.RunScale{PrewarmOps: 20_000, WarmupReads: 150, MeasureReads: 900,
	MaxCycles: 20_000_000, EpochInterval: 20_000}

// prewarmDigest runs cfg on spec from its prewarm and digests the
// Results and the epoch JSONL stream, less the host-work sim.events
// column.
func prewarmDigest(t *testing.T, cfg core.SystemConfig, spec workload.Spec) string {
	t.Helper()
	sys, err := core.NewSystem(cfg, spec)
	if err != nil {
		t.Fatal(err)
	}
	res := sys.Run(prewarmScale)
	if res.Epochs == nil {
		t.Fatal("no epochs recorded")
	}
	var epochs bytes.Buffer
	if err := res.Epochs.WriteJSONL(&epochs, nil, nil); err != nil {
		t.Fatal(err)
	}
	res.Epochs = nil // digested via the serialized stream
	b := core.AppendBits(nil, reflect.ValueOf(res))
	b = append(b, core.StripHostWork(epochs.Bytes())...)
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// TestPrewarmGolden pins every named grid config on mcf (a SPEC copy
// per core, with a reuse-history ring) and stream (multithreaded, one
// shared address space) at 1 and 8 cores, each run starting from a
// 20,000-op-per-core prewarm. The file was written by the code that
// replayed the prewarm in every system, so it is the reference for the
// shared checkpoints that replaced that replay.
func TestPrewarmGolden(t *testing.T) {
	got := map[string]string{}
	want := core.GoldenSection(t, prewarmGoldenPath, "prewarm", got)
	for _, name := range grid.ConfigNames() {
		for _, bench := range []string{"mcf", "stream"} {
			spec, err := workload.Get(bench)
			if err != nil {
				t.Fatal(err)
			}
			for _, cores := range []int{1, 8} {
				cfg, err := grid.Config(name, cores)
				if err != nil {
					t.Fatal(err)
				}
				key := fmt.Sprintf("%s/%s/%d", name, bench, cores)
				got[key] = prewarmDigest(t, cfg, spec)
				core.CheckDigest(t, want, key, got[key])
			}
		}
	}
}
