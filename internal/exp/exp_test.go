package exp

import (
	"strings"
	"testing"

	"hetsim/internal/core"
	"hetsim/internal/workload"
)

// testOpts keeps experiment tests fast: 4 cores, a few benchmarks, and
// the short test scale. Shape checks use generous tolerances.
func testOpts(benches ...string) Options {
	return Options{
		Scale:      core.RunScale{WarmupReads: 300, MeasureReads: 2000, MaxCycles: 30_000_000},
		Benchmarks: benches,
		NCores:     4,
	}
}

func TestFig1aShape(t *testing.T) {
	r := NewRunner(testOpts("libquantum", "mcf"))
	res, err := Fig1a(r)
	if err != nil {
		t.Fatal(err)
	}
	if rld := res.Means[1]; rld <= 1.0 {
		t.Errorf("RLDRAM3 homogeneous mean %v not above baseline", rld)
	}
	if lp := res.Means[2]; lp >= 1.0 {
		t.Errorf("LPDDR2 homogeneous mean %v not below baseline", lp)
	}
	if !strings.Contains(res.Table, "libquantum") {
		t.Error("table missing benchmark row")
	}
}

func TestFig1bShape(t *testing.T) {
	r := NewRunner(testOpts("mcf"))
	res, err := Fig1b(r)
	if err != nil {
		t.Fatal(err)
	}
	rld := res.Queue["RLDRAM3-homog"] + res.Core["RLDRAM3-homog"]
	ddr := res.Queue["DDR3-baseline"] + res.Core["DDR3-baseline"]
	lp := res.Queue["LPDDR2-homog"] + res.Core["LPDDR2-homog"]
	if !(rld < ddr && ddr < lp) {
		t.Errorf("latency ordering wrong: rld=%v ddr=%v lp=%v", rld, ddr, lp)
	}
}

func TestFig2Shape(t *testing.T) {
	res := Fig2()
	if len(res.Utils) != 11 {
		t.Fatalf("utils = %d", len(res.Utils))
	}
	if res.PowerMW["RLDRAM3"][0] <= 2*res.PowerMW["DDR3"][0] {
		t.Error("idle RLDRAM3 power not >> DDR3")
	}
	if res.PowerMW["LPDDR2"][0] >= res.PowerMW["DDR3"][0] {
		t.Error("idle LPDDR2 not below DDR3")
	}
}

func TestFig3Shape(t *testing.T) {
	opts := testOpts("leslie3d", "mcf")
	r := NewRunner(opts)
	res, err := Fig3(r, 5)
	if err != nil {
		t.Fatal(err)
	}
	for _, bench := range []string{"leslie3d", "mcf"} {
		lines := res.TopLines[bench]
		if len(lines) == 0 {
			t.Fatalf("%s: no per-line census", bench)
		}
		// Every hot line must have a dominant word (Figure 3).
		dominated := 0
		for _, pct := range lines {
			for _, p := range pct {
				if p > 50 {
					dominated++
					break
				}
			}
		}
		if dominated == 0 {
			t.Errorf("%s: no line with a dominant word", bench)
		}
	}
}

func TestFig4Shape(t *testing.T) {
	r := NewRunner(testOpts("libquantum", "mcf", "leslie3d"))
	res, err := Fig4(r)
	if err != nil {
		t.Fatal(err)
	}
	if res.PerBench["libquantum"][0] < 0.6 {
		t.Errorf("libquantum word0 = %v", res.PerBench["libquantum"][0])
	}
	if res.PerBench["mcf"][0] > 0.5 {
		t.Errorf("mcf word0 = %v, want < 0.5", res.PerBench["mcf"][0])
	}
	if res.Word0Count != 2 {
		t.Errorf("word0-dominant count = %d, want 2 of 3", res.Word0Count)
	}
}

func TestFig6And7And8Shapes(t *testing.T) {
	r := NewRunner(testOpts("libquantum", "mcf"))
	f6, err := Fig6(r)
	if err != nil {
		t.Fatal(err)
	}
	rd, rl, dl := f6.Means[0], f6.Means[1], f6.Means[2]
	// RD must not lose to RL on average (faster line channel).
	if rd < rl*0.97 {
		t.Errorf("RD %v well below RL %v", rd, rl)
	}
	// DL must be the weakest of the three.
	if dl > rl || dl > rd {
		t.Errorf("DL %v not the weakest (RD %v RL %v)", dl, rd, rl)
	}
	f7, err := Fig7(r)
	if err != nil {
		t.Fatal(err)
	}
	redRD, redRL := critReduction(f7, r.Opts.Benchmarks, 1), critReduction(f7, r.Opts.Benchmarks, 2)
	if redRD <= 0 || redRL <= 0 {
		t.Errorf("critical word latency reductions RD=%v RL=%v, want positive", redRD, redRL)
	}
	f8, err := Fig8(r)
	if err != nil {
		t.Fatal(err)
	}
	if !(f8.PerBench["libquantum"][0] > f8.PerBench["mcf"][0]) {
		t.Errorf("fig8: libquantum %v not above mcf %v",
			f8.PerBench["libquantum"][0], f8.PerBench["mcf"][0])
	}
}

func TestFig9Shape(t *testing.T) {
	r := NewRunner(testOpts("mcf"))
	res, err := Fig9(r)
	if err != nil {
		t.Fatal(err)
	}
	// Oracle must top static for a pointer chaser.
	v := res.PerBench["mcf"]
	if !(v[2] >= v[0]) {
		t.Errorf("oracle %v below static %v", v[2], v[0])
	}
	if !strings.Contains(res.Table, "RL-OR") {
		t.Error("table missing RL-OR column")
	}
}

func TestFig10And11Shapes(t *testing.T) {
	r := NewRunner(testOpts("libquantum", "bzip2"))
	f10, err := Fig10(r)
	if err != nil {
		t.Fatal(err)
	}
	rd, rl, dl := f10.Means[0], f10.Means[1], f10.Means[2]
	if rl <= 0 || dl <= 0 {
		t.Fatal("zero energy ratios")
	}
	// DL (no RLDRAM3 background power) must consume less than RD.
	if dl >= rd {
		t.Errorf("DL energy %v not below RD %v", dl, rd)
	}
	f11, err := Fig11(r)
	if err != nil {
		t.Fatal(err)
	}
	if len(f11.Points) != 2 {
		t.Fatalf("points = %d", len(f11.Points))
	}
}

func TestRandomMappingShape(t *testing.T) {
	r := NewRunner(testOpts("libquantum"))
	rnd, err := RandomMapping(r)
	if err != nil {
		t.Fatal(err)
	}
	f6, err := Fig6(r)
	if err != nil {
		t.Fatal(err)
	}
	if !(rnd.Means[0] < f6.Means[1]) {
		t.Errorf("random mapping %v not below intelligent %v", rnd.Means[0], f6.Means[1])
	}
}

func TestReuseGapShape(t *testing.T) {
	r := NewRunner(testOpts("libquantum", "tonto"))
	res, err := ReuseGap(r)
	if err != nil {
		t.Fatal(err)
	}
	// tonto reuses lines almost immediately; libquantum does not.
	if !(res.PerBench["tonto"][0] < res.PerBench["libquantum"][0]) {
		t.Errorf("tonto tolerance %v not below libquantum %v",
			res.PerBench["tonto"][0], res.PerBench["libquantum"][0])
	}
}

func TestProfileHotPages(t *testing.T) {
	spec, err := workload.Get("mcf")
	if err != nil {
		t.Fatal(err)
	}
	hot := ProfileHotPages(spec, 2, 1, 20000)
	if len(hot) == 0 {
		t.Fatal("no hot pages profiled")
	}
	// The cut must be a small fraction of touched pages.
	if len(hot) > 20000 {
		t.Fatalf("hot set too large: %d", len(hot))
	}
}

func TestPagePlacementShape(t *testing.T) {
	r := NewRunner(testOpts("leslie3d"))
	res, err := PagePlacement(r)
	if err != nil {
		t.Fatal(err)
	}
	if res.Mean <= 0 {
		t.Fatal("no page placement result")
	}
}

func TestMalladiShape(t *testing.T) {
	r := NewRunner(testOpts("bzip2"))
	res, err := Malladi(r)
	if err != nil {
		t.Fatal(err)
	}
	f10, err := Fig10(r)
	if err != nil {
		t.Fatal(err)
	}
	if !(res.Means[0] < f10.Means[1]) {
		t.Errorf("Malladi energy %v not below server-adapted RL %v", res.Means[0], f10.Means[1])
	}
}

func TestNoPrefetcherShape(t *testing.T) {
	r := NewRunner(testOpts("leslie3d"))
	res, err := NoPrefetcher(r)
	if err != nil {
		t.Fatal(err)
	}
	if res.Means[0] <= 0 || res.Means[1] <= 0 {
		t.Fatal("missing ablation results")
	}
	// The no-pf column is measured against the no-prefetch baseline,
	// not the DDR3 one.
	baseNo, rlNo := core.Baseline(0), core.RL(0)
	baseNo.Prefetch, rlNo.Prefetch = false, false
	baseNo.Name, rlNo.Name = "DDR3-nopf", "RL-nopf"
	for _, b := range r.Opts.Benchmarks {
		bn, err := r.Run(baseNo, b)
		if err != nil {
			t.Fatal(err)
		}
		rn, err := r.Run(rlNo, b)
		if err != nil {
			t.Fatal(err)
		}
		if got, want := res.PerBench[b][1], rn.Throughput/bn.Throughput; got != want {
			t.Errorf("%s no-pf = %v, want RL-nopf/DDR3-nopf throughput %v", b, got, want)
		}
	}
}

func TestTablesRender(t *testing.T) {
	if !strings.Contains(Table1(), "8-core") || !strings.Contains(Table1(), "48 entries") {
		t.Error("Table1 incomplete")
	}
	if !strings.Contains(Table2(), "tRC") {
		t.Error("Table2 incomplete")
	}
	wt := WorkloadTable()
	if !strings.Contains(wt, "mcf") || !strings.Contains(wt, "pointer-chase") {
		t.Error("workload table incomplete")
	}
}

func TestRunnerMemoizes(t *testing.T) {
	r := NewRunner(testOpts("libquantum"))
	a, err := r.Run(coreBaseline(), "libquantum")
	if err != nil {
		t.Fatal(err)
	}
	b, err := r.Run(coreBaseline(), "libquantum")
	if err != nil {
		t.Fatal(err)
	}
	if st := r.Stats(); a.Cycles != b.Cycles || st.Submitted != 1 || st.Deduped != 1 {
		t.Errorf("runner did not memoize: stats %+v", r.Stats())
	}
}

func coreBaseline() core.SystemConfig { return core.Baseline(0) }

func TestCmdBusAblationShape(t *testing.T) {
	r := NewRunner(testOpts("milc"))
	res, err := CmdBusAblation(r)
	if err != nil {
		t.Fatal(err)
	}
	// Private buses remove contention: never slower than shared.
	if shared, private := res.Means[0], res.Means[1]; private < shared*0.97 {
		t.Errorf("private cmd bus %v well below shared %v", private, shared)
	}
}

func TestSubRankAblationShape(t *testing.T) {
	r := NewRunner(testOpts("libquantum"))
	res, err := SubRankAblation(r)
	if err != nil {
		t.Fatal(err)
	}
	narrowPerf, widePerf, narrowEn, wideEn := res.Means[0], res.Means[1], res.Means[2], res.Means[3]
	if narrowPerf <= 0 || widePerf <= 0 || narrowEn <= 0 || wideEn <= 0 {
		t.Fatalf("missing ablation results: %+v", res)
	}
	// §4.2.4: narrow ranks add rank/bank parallelism — the shipping
	// narrow organization must not lose to the wide rank.
	if narrowPerf < widePerf*0.97 {
		t.Errorf("narrow ranks %v well below wide rank %v", narrowPerf, widePerf)
	}
}

func TestFutureHMCShape(t *testing.T) {
	r := NewRunner(testOpts("libquantum", "mcf"))
	res, err := FutureHMC(r)
	if err != nil {
		t.Fatal(err)
	}
	// Stacked links beat DIMM buses: the HMC system must not lose to RL.
	if rl, hmc := res.Means[0], res.Means[1]; hmc < rl*0.97 {
		t.Errorf("HMC-hetero %v well below RL %v", hmc, rl)
	}
}

func TestAddressMappingShape(t *testing.T) {
	r := NewRunner(testOpts("libquantum", "mcf"))
	res, err := AddressMapping(r)
	if err != nil {
		t.Fatal(err)
	}
	// The paper's claim: the open-row mapping is the best-performing
	// baseline on average.
	if res.Columns[0] != "open-row" || res.Means[0] != 1.0 {
		t.Fatalf("%s mean = %v, want open-row at 1.0 by construction", res.Columns[0], res.Means[0])
	}
	for i, m := range res.Means[1:] {
		if m > 1.05 {
			t.Errorf("%s mean %v beats the open-row baseline by >5%%", res.Columns[i+1], m)
		}
	}
}

func TestROBSensitivityShape(t *testing.T) {
	r := NewRunner(testOpts("libquantum"))
	res, err := ROBSensitivity(r, []int{32, 128})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Gains) != 2 || res.Gains[0] <= 0 || res.Gains[1] <= 0 {
		t.Fatalf("gains = %v", res.Gains)
	}
	// The shallow window must benefit at least as much from the
	// critical word head start as the deep one (simple-core motivation
	// of §1).
	if res.Gains[0] < res.Gains[1]*0.95 {
		t.Errorf("rob32 gain %v well below rob128 gain %v", res.Gains[0], res.Gains[1])
	}
}

func TestSchedulerPoliciesShape(t *testing.T) {
	r := NewRunner(testOpts("leslie3d"))
	res, err := SchedulerPolicies(r)
	if err != nil {
		t.Fatal(err)
	}
	// The paper's choices must not lose to the alternatives on a
	// row-locality-heavy benchmark: FR-FCFS >= FCFS and open-page >=
	// close-page.
	if fcfs := res.Means[0]; fcfs > 1.03 {
		t.Errorf("FCFS %v beats FR-FCFS", fcfs)
	}
	if cp := res.Means[1]; cp > 1.03 {
		t.Errorf("close-page %v beats open-page", cp)
	}
}

func TestFigureCharts(t *testing.T) {
	r := NewRunner(testOpts("libquantum"))
	f6, err := Fig6(r)
	if err != nil {
		t.Fatal(err)
	}
	if chart := f6.Chart("Figure 6, RL bars", 1); !strings.Contains(chart, "libquantum") || !strings.Contains(chart, "#") {
		t.Fatalf("RL chart malformed:\n%s", chart)
	}
	f1, err := Fig1a(r)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(f1.Chart("Figure 1a, all-RLDRAM3 bars", 1), "#") {
		t.Fatal("Fig1a chart malformed")
	}
}
