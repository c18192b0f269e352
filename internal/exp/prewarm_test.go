package exp

import (
	"testing"

	"hetsim/internal/core"
)

// TestFig6SharesCheckpoints counts a Fig. 6 pass's prewarm work. Four
// configs over four benchmarks are 16 RunPair cells of three systems
// each, 48 prewarms, but only two distinct checkpoints per benchmark:
// the 8-core one of the shared runs and the 1-core one of the alone
// runs. So the pass builds exactly 8, restores the other 40, and holds
// none once it returns.
func TestFig6SharesCheckpoints(t *testing.T) {
	r := NewRunner(Options{
		Scale:      core.RunScale{PrewarmOps: 2000, WarmupReads: 50, MeasureReads: 300, MaxCycles: 20_000_000},
		Benchmarks: []string{"libquantum", "mcf", "lbm", "omnetpp"},
		Workers:    2,
	})
	if _, err := Fig6(r); err != nil {
		t.Fatal(err)
	}
	if got, want := r.Prewarms(), (core.CheckpointStats{Built: 8, Reused: 40}); got != want {
		t.Errorf("prewarms = %+v, want %+v", got, want)
	}
}
