package grid

import (
	"context"
	"errors"
	"reflect"
	"testing"
	"time"

	"hetsim/internal/faults"
)

// TestSweepIDGolden pins job IDs: sweepd names each checkpoint in its
// -state-dir after the ID, so a changed encoding would orphan every
// existing checkpoint. The IDs were recorded from sweepd's original
// spec type before it moved here.
func TestSweepIDGolden(t *testing.T) {
	for _, tc := range []struct {
		name string
		spec Sweep
		want string
	}{
		{"defaults", Sweep{Config: "rl", Benchmarks: []string{"libquantum"}}, "deaa9ad5d0a8"},
		{"param", Sweep{Config: "RL", Benchmarks: []string{"libquantum", " mcf"},
			Param: "robsize", Values: []string{"32", " 64", "128"}}, "03177d8154d2"},
		{"topology-pair-epochs", Sweep{Config: "baseline", Benchmarks: []string{"lbm"},
			Topology: "cwf-rl", Pair: true, EpochInterval: 5000, Scale: "quick", Cores: 4}, "26c7d995cb62"},
	} {
		if got := tc.spec.Normalize().ID(); got != tc.want {
			t.Errorf("%s: ID = %s, want %s", tc.name, got, tc.want)
		}
	}
	// The fault overlay is local to cmd/sweep and never reaches the wire.
	s := Sweep{Config: "rl", Benchmarks: []string{"libquantum"}, Faults: faults.Config{Seed: 7}}
	if got := s.Normalize().ID(); got != "deaa9ad5d0a8" {
		t.Errorf("fault overlay changed the ID: %s", got)
	}
}

// TestSweepCells checks the expansion order (value-major, then
// benchmark), the per-cell names and scales, and that the fault
// overlay is applied before the swept parameter.
func TestSweepCells(t *testing.T) {
	cells, err := Sweep{
		Config: "rl", Benchmarks: []string{"mcf", "lbm"}, Param: "faultrate",
		Values: []string{"0", "1e-3"}, Cores: 2, Pair: true, EpochInterval: 1000,
		Faults: faults.Config{Seed: 7},
	}.Cells()
	if err != nil {
		t.Fatal(err)
	}
	want := []struct{ bench, value, name string }{
		{"mcf", "0", "RL[faultrate=0]"},
		{"lbm", "0", "RL[faultrate=0]"},
		{"mcf", "1e-3", "RL[faultrate=1e-3]"},
		{"lbm", "1e-3", "RL[faultrate=1e-3]"},
	}
	if len(cells) != len(want) {
		t.Fatalf("%d cells, want %d", len(cells), len(want))
	}
	for i, c := range cells {
		w := want[i]
		if c.Bench != w.bench || c.Value != w.value || c.Cfg.Name != w.name {
			t.Errorf("cell %d = %s/%s/%s, want %s/%s/%s", i, c.Bench, c.Value, c.Cfg.Name, w.bench, w.value, w.name)
		}
		if !c.Pair || c.Cfg.NCores != 2 || c.Scale.EpochInterval != 1000 {
			t.Errorf("cell %d: pair=%v cores=%d epoch=%d", i, c.Pair, c.Cfg.NCores, c.Scale.EpochInterval)
		}
		if c.Cfg.Faults.Seed != 7 {
			t.Errorf("cell %d lost the fault overlay", i)
		}
	}
	if got := cells[2].Cfg.Faults.Line.TransientBit; got != 1e-3 {
		t.Errorf("param did not override the overlay: line bit rate %v", got)
	}
}

// runCell is one small test-scale cell, paired or alone.
func runCell(t *testing.T, pair bool) Cell {
	t.Helper()
	cells, err := Sweep{Config: "rl", Benchmarks: []string{"libquantum"}, Cores: 2, Pair: pair}.Cells()
	if err != nil {
		t.Fatal(err)
	}
	return cells[0]
}

// TestCellRunCanceled: a Cancel hook that fires mid-run fails the cell
// with ErrCanceled instead of returning a silently short result.
func TestCellRunCanceled(t *testing.T) {
	for _, pair := range []bool{true, false} {
		c := runCell(t, pair)
		polls := 0
		c.Cfg.Cancel = func() bool {
			polls++
			return polls > 50
		}
		if _, err := c.Run(nil); !errors.Is(err, ErrCanceled) {
			t.Errorf("pair=%v: got %v, want ErrCanceled", pair, err)
		}
	}
}

// TestCellRunDeadlineCanceled arms an unmeetable deadline through the
// hook, the way sweepd's -cell-timeout does, and checks the cell fails
// with ErrCanceled instead of hanging or returning a short result.
func TestCellRunDeadlineCanceled(t *testing.T) {
	for _, pair := range []bool{true, false} {
		c := runCell(t, pair)
		deadline := time.Now().Add(time.Nanosecond)
		c.Cfg.Cancel = func() bool { return time.Now().After(deadline) }
		if _, err := c.Run(nil); !errors.Is(err, ErrCanceled) {
			t.Errorf("pair=%v: got %v, want ErrCanceled", pair, err)
		}
	}
}

// TestCellRunContextCanceled: a hook reading an already-canceled
// context fails the cell the same way.
func TestCellRunContextCanceled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, pair := range []bool{true, false} {
		c := runCell(t, pair)
		c.Cfg.Cancel = func() bool { return ctx.Err() != nil }
		if _, err := c.Run(nil); !errors.Is(err, ErrCanceled) {
			t.Errorf("pair=%v: got %v, want ErrCanceled", pair, err)
		}
	}
}

// TestCellRunIdleCancelIdentical pins that merely arming a hook that
// never fires cannot change the simulated outcome.
func TestCellRunIdleCancelIdentical(t *testing.T) {
	for _, pair := range []bool{true, false} {
		c := runCell(t, pair)
		want, err := c.Run(nil)
		if err != nil {
			t.Fatal(err)
		}
		c.Cfg.Cancel = func() bool { return false }
		got, err := c.Run(nil)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(want, got) {
			t.Errorf("pair=%v: an idle cancel hook changed the results", pair)
		}
	}
}
