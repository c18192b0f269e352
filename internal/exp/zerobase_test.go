package exp

import (
	"strings"
	"testing"

	"hetsim/internal/core"
	"hetsim/internal/store"
)

// zeroRefStore serves every run from memory without simulating: each
// Results has throughput 1 in both columns, except that runs of the
// configuration named ref get zero in the column zero clears.
type zeroRefStore struct {
	ref  string
	zero func(*core.Results)
}

func (s zeroRefStore) Get(k store.RunKey) (core.Results, bool) {
	res := core.Results{Throughput: 1, ThroughputSelf: 1, IPCs: []float64{1}}
	if k.Cfg.Name == s.ref {
		s.zero(&res)
	}
	return res, true
}

func (zeroRefStore) Put(store.RunKey, core.Results) error { return nil }

// TestZeroReferenceThroughputFails: a table whose reference run has
// zero throughput must fail with the error every Study returns, not
// drop the benchmark from its geomean or print a zero ratio.
func TestZeroReferenceThroughputFails(t *testing.T) {
	zeroTP := func(r *core.Results) { r.Throughput = 0 }
	zeroSelf := func(r *core.Results) { r.ThroughputSelf = 0 }
	cases := []struct {
		name string
		st   zeroRefStore
		run  func(*Runner) error
	}{
		{"rob", zeroRefStore{"DDR3-rob64", zeroTP}, func(r *Runner) error {
			_, err := ROBSensitivity(r, nil)
			return err
		}},
		{"faults", zeroRefStore{core.RL(0).Name, zeroTP}, func(r *Runner) error {
			_, err := FaultSensitivity(r)
			return err
		}},
		{"pageplacement-self", zeroRefStore{core.Baseline(0).Name, zeroSelf}, func(r *Runner) error {
			_, err := PagePlacement(r)
			return err
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			r := NewRunner(Options{Scale: core.TestScale(), Benchmarks: []string{"libquantum"},
				NCores: 2, Workers: 1, Store: tc.st})
			err := tc.run(r)
			if err == nil || !strings.Contains(err.Error(), "exp: zero baseline throughput for libquantum") {
				t.Fatalf("err = %v, want a zero-baseline error for libquantum", err)
			}
		})
	}
}
