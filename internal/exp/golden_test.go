package exp

import (
	"testing"

	"hetsim/internal/core"
)

// TestGoldenPaperDirections pins the paper's headline directions at
// TestScale so future performance PRs cannot silently break fidelity:
//
//   - the heterogeneous RD and RL systems beat the DDR3 baseline,
//   - oracle placement is at least as good as static word-0 placement,
//   - the all-RLDRAM3 homogeneous system is the upper bound of the
//     placement study (Figure 9),
//   - critical word latency drops under RD and RL (Figure 7).
//
// Directions, not point values, are pinned: scales and tolerances are
// chosen so legitimate timing-model refinements pass while a broken
// CWF path fails.
func TestGoldenPaperDirections(t *testing.T) {
	benches := []string{"libquantum", "leslie3d", "mcf"}
	r := NewRunner(Options{
		Scale:      core.TestScale(),
		Benchmarks: benches,
		NCores:     8,
		Seed:       1,
	})
	or := core.RL(0)
	or.Placement = core.PlaceOracle
	or.Name = "RL-OR"
	s, err := study(r, ratios("paper directions"),
		col("RD", core.RD(0)), col("RL", core.RL(0)), col("RL-OR", or),
		col("RLDRAM3-homog", core.HomogeneousRLDRAM3(0)))
	if err != nil {
		t.Fatal(err)
	}
	// Mean critical word latency per config, arithmetic over the
	// benchmarks.
	base := core.Baseline(0)
	crit, err := study(r, layout{title: "crit latency", format: "%.0f", summary: mean},
		column{"DDR3", base, base, critLatency}, column{"RD", core.RD(0), base, critLatency},
		column{"RL", core.RL(0), base, critLatency})
	if err != nil {
		t.Fatal(err)
	}

	meanRD, meanRL, meanOR, meanHom := s.Means[0], s.Means[1], s.Means[2], s.Means[3]
	t.Logf("geomeans: RD %.3f RL %.3f RL-OR %.3f RLDRAM3 %.3f", meanRD, meanRL, meanOR, meanHom)

	// Headline gains: RD and RL beat the DDR3 baseline (paper: +21%,
	// +12.9%).
	if meanRD <= 1.0 {
		t.Errorf("RD geomean %.3f does not beat the DDR3 baseline", meanRD)
	}
	if meanRL <= 1.0 {
		t.Errorf("RL geomean %.3f does not beat the DDR3 baseline", meanRL)
	}
	// Oracle placement dominates static word-0 placement (Figure 9;
	// small tolerance for run-scale noise on word-0-friendly suites).
	if meanOR < meanRL*0.99 {
		t.Errorf("oracle placement %.3f below static %.3f", meanOR, meanRL)
	}
	// The all-RLDRAM3 system is the upper bound of the study.
	for i, m := range s.Means {
		if m > meanHom*1.01 {
			t.Errorf("%s geomean %.3f exceeds the all-RLDRAM3 bound %.3f", s.Columns[i], m, meanHom)
		}
	}
	// Critical word latency falls under both heterogeneous systems
	// (Figure 7: RD −30%, RL −22%).
	mb, mrd, mrl := crit.Means[0], crit.Means[1], crit.Means[2]
	t.Logf("crit latency: base %.0f RD %.0f RL %.0f", mb, mrd, mrl)
	if mrd >= mb {
		t.Errorf("RD critical latency %.0f not below baseline %.0f", mrd, mb)
	}
	if mrl >= mb {
		t.Errorf("RL critical latency %.0f not below baseline %.0f", mrl, mb)
	}
}
