package exp

import (
	"errors"
	"reflect"
	"testing"

	"hetsim/internal/core"
	"hetsim/internal/grid"
)

// TestFig6SharesCheckpoints counts a Fig. 6 pass's prewarm work. Four
// configs over four benchmarks are 16 RunPair cells, each a shared run
// and two stand-alone references. Only 16 of the 32 references are
// distinct (see TestPairReferencesShared), so 32 systems run: 16 shared
// and 16 references, with two distinct checkpoints per benchmark, the
// 8-core one of the shared runs and the 1-core one of the references.
// So the pass builds exactly 8, restores the other 24, and holds none
// once it returns.
func TestFig6SharesCheckpoints(t *testing.T) {
	r := NewRunner(Options{
		Scale:      core.RunScale{PrewarmOps: 2000, WarmupReads: 50, MeasureReads: 300, MaxCycles: 20_000_000},
		Benchmarks: []string{"libquantum", "mcf", "lbm", "omnetpp"},
		Workers:    2,
	})
	if _, err := Fig6(r); err != nil {
		t.Fatal(err)
	}
	if got, want := r.Prewarms(), (core.CheckpointStats{Built: 8, Reused: 24, RefsRun: 16, RefsReused: 16}); got != want {
		t.Errorf("prewarms = %+v, want %+v", got, want)
	}
}

// TestPairReferencesShared checks that RunPair's stand-alone references
// run once per benchmark while the one-core key is held, without
// changing any result. A Fig. 6 pass over four benchmarks needs 32
// references, two per cell, but only 16 distinct ones: each benchmark's
// DDR3 reference (shared by all four configs, and the DDR3 column's self
// reference too) and the self references of RD, RL and DL. A reference
// its cell's Cancel cut short is never shared: the next cell of that
// benchmark runs the full one itself.
func TestPairReferencesShared(t *testing.T) {
	r := NewRunner(Options{
		Scale:      core.RunScale{PrewarmOps: 2000, WarmupReads: 50, MeasureReads: 300, MaxCycles: 20_000_000},
		Benchmarks: []string{"libquantum", "mcf", "lbm", "omnetpp"},
		Workers:    2,
	})
	cfgs := []core.SystemConfig{core.Baseline(0), core.RD(0), core.RL(0), core.DL(0)}

	t.Run("fig6", func(t *testing.T) {
		if _, err := Fig6(r); err != nil {
			t.Fatal(err)
		}
		if st := r.Prewarms(); st.RefsRun != 4+12 || st.RefsReused != 32-16 {
			t.Errorf("references run %d, reused %d; want 16 and 16", st.RefsRun, st.RefsReused)
		}
		for _, cfg := range cfgs {
			for _, b := range r.Opts.Benchmarks {
				got, err := r.Run(cfg, b)
				if err != nil {
					t.Fatal(err)
				}
				want, err := r.cell(cfg, b).Run(nil)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(got, want) {
					t.Errorf("%s on %s: shared references give\n%+v\nprivate runs give\n%+v", cfg.Name, b, got, want)
				}
			}
		}
	})

	t.Run("cancel", func(t *testing.T) {
		cps := core.NewCheckpoints()
		cut, next := r.cell(core.RL(0), "mcf"), r.cell(core.RD(0), "mcf")
		for _, c := range []grid.Cell{cut, next} {
			cps.Acquire(c.Prewarms()...)
			defer cps.Release(c.Prewarms()...)
		}
		// The hook trips once a second system has restored its prewarm:
		// the shared run's system is the first, the DDR3 reference's the
		// second, so that reference is cut at its first stop poll.
		cut.Cfg.Cancel = func() bool {
			st := cps.Stats()
			return st.Built+st.Reused >= 2
		}
		if _, err := cut.Run(cps); !errors.Is(err, core.ErrCanceled) {
			t.Fatalf("cell cut inside its reference: err = %v, want ErrCanceled", err)
		}
		if st := cps.Stats(); st.RefsRun != 0 || st.RefsReused != 0 {
			t.Fatalf("after the cut cell: %+v, want no reference kept", st)
		}
		got, err := next.Run(cps)
		if err != nil {
			t.Fatal(err)
		}
		want, err := next.Run(nil)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("cell after a cut reference:\n%+v\nwant\n%+v", got, want)
		}
		if st := cps.Stats(); st.RefsRun != 2 || st.RefsReused != 0 {
			t.Errorf("after the next cell: %+v, want its two references run in full", st)
		}
	})
}
