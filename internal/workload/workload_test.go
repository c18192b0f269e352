package workload

import (
	"math"
	"strings"
	"testing"

	"hetsim/internal/cache"
	"hetsim/internal/sim"
)

func TestAllSpecsValidate(t *testing.T) {
	for _, n := range Names() {
		s, err := Get(n)
		if err != nil {
			t.Fatalf("Get(%s): %v", n, err)
		}
		if err := s.Validate(); err != nil {
			t.Errorf("%s: %v", n, err)
		}
	}
}

func TestNamesCount(t *testing.T) {
	// 6 NPB + STREAM + 19 SPEC (the 18 listed in §5 plus GemsFDTD).
	if got := len(Names()); got != 26 {
		t.Fatalf("benchmark count = %d, want 26", got)
	}
	if _, err := Get("nonexistent"); err == nil {
		t.Fatal("unknown benchmark accepted")
	}
}

func TestFig4Shape(t *testing.T) {
	// The paper: word 0 is critical in >50% of fetches for most
	// programs; a handful (pointer chasers) have no strong bias; the
	// suite-wide mean is ~67%.
	biased, unbiased := 0, 0
	var sum float64
	for _, n := range Names() {
		s, _ := Get(n)
		if s.CritDist[0] > 0.5 {
			biased++
		} else {
			unbiased++
		}
		sum += s.CritDist[0]
	}
	if biased < 18 {
		t.Errorf("only %d benchmarks word-0-biased", biased)
	}
	if unbiased != 6 {
		t.Errorf("%d unbiased benchmarks, want 6 (astar lbm mcf milc omnetpp xalancbmk)", unbiased)
	}
	mean := sum / float64(len(Names()))
	if mean < 0.60 || mean > 0.75 {
		t.Errorf("suite mean word-0 weight = %v, want ~0.67", mean)
	}
}

func TestMemoryIntensiveSubsetValid(t *testing.T) {
	for _, n := range MemoryIntensive() {
		if _, err := Get(n); err != nil {
			t.Errorf("MemoryIntensive contains unknown %s", n)
		}
	}
}

func TestGeneratorDeterminism(t *testing.T) {
	s, _ := Get("mcf")
	a := NewGenerator(s, 0, 8, 0, 42)
	b := NewGenerator(s, 0, 8, 0, 42)
	for i := 0; i < 1000; i++ {
		if a.Next() != b.Next() {
			t.Fatal("same seed diverged")
		}
	}
	c := NewGenerator(s, 1, 8, 0, 42)
	diff := false
	for i := 0; i < 100; i++ {
		if a.Next() != c.Next() {
			diff = true
			break
		}
	}
	if !diff {
		t.Fatal("different cores produced identical streams")
	}
}

func TestGeneratorStaysInRegion(t *testing.T) {
	for _, name := range []string{"mcf", "stream", "libquantum", "gobmk"} {
		s, _ := Get(name)
		base := uint64(1) << 33
		g := NewGenerator(s, 2, 8, base, 7)
		limit := base + s.FootprintLines()*64
		for i := 0; i < 20000; i++ {
			op := g.Next()
			if op.Addr < base || op.Addr >= limit {
				t.Fatalf("%s: addr %#x outside [%#x,%#x)", name, op.Addr, base, limit)
			}
			if op.Addr%8 != 0 {
				t.Fatalf("%s: unaligned address %#x", name, op.Addr)
			}
		}
	}
}

func TestCriticalWordDistributionMatchesSpec(t *testing.T) {
	// First-touch word frequencies over distinct lines must track the
	// spec's distribution (within sampling noise).
	for _, name := range []string{"libquantum", "mcf"} {
		s, _ := Get(name)
		g := NewGenerator(s, 0, 1, 0, 3)
		counts := [8]int{}
		seen := map[uint64]bool{}
		total := 0
		for i := 0; i < 60000 && total < 20000; i++ {
			op := g.Next()
			la := cache.LineAddr(op.Addr)
			if seen[la] {
				continue
			}
			seen[la] = true
			counts[cache.WordIndex(op.Addr)]++
			total++
		}
		frac0 := float64(counts[0]) / float64(total)
		want := s.CritDist[0]
		if frac0 < want-0.12 || frac0 > want+0.12 {
			t.Errorf("%s: measured word-0 frac %v, spec %v", name, frac0, want)
		}
	}
}

func TestPerLineRegularity(t *testing.T) {
	// Figure 3: repeated touches of the same line must be dominated by
	// one word.
	s, _ := Get("leslie3d")
	g := NewGenerator(s, 0, 1, 0, 9)
	byLine := map[uint64]map[int]int{}
	for i := 0; i < 200000; i++ {
		op := g.Next()
		la := cache.LineAddr(op.Addr)
		if byLine[la] == nil {
			byLine[la] = map[int]int{}
		}
		byLine[la][cache.WordIndex(op.Addr)]++
	}
	checked, dominated := 0, 0
	for _, words := range byLine {
		total, max := 0, 0
		for _, c := range words {
			total += c
			if c > max {
				max = c
			}
		}
		if total < 5 {
			continue
		}
		checked++
		if float64(max)/float64(total) > 0.5 {
			dominated++
		}
	}
	if checked == 0 {
		t.Skip("no hot lines sampled")
	}
	if frac := float64(dominated) / float64(checked); frac < 0.7 {
		t.Errorf("only %v of hot lines have a dominant word", frac)
	}
}

func TestPointerChaseEmitsDependentLoads(t *testing.T) {
	s, _ := Get("mcf")
	g := NewGenerator(s, 0, 1, 0, 5)
	dep, total := 0, 0
	for i := 0; i < 10000; i++ {
		op := g.Next()
		total++
		if op.DepPrev {
			dep++
		}
	}
	frac := float64(dep) / float64(total)
	if frac < 0.3 {
		t.Errorf("mcf dependent-load fraction = %v", frac)
	}
	// Streaming benchmarks must emit none.
	s2, _ := Get("stream")
	g2 := NewGenerator(s2, 0, 1, 0, 5)
	for i := 0; i < 5000; i++ {
		if g2.Next().DepPrev {
			t.Fatal("stream emitted a dependent load")
		}
	}
}

func TestStoreFraction(t *testing.T) {
	s, _ := Get("lbm")
	g := NewGenerator(s, 0, 1, 0, 11)
	stores := 0
	const n = 20000
	for i := 0; i < n; i++ {
		if g.Next().Store {
			stores++
		}
	}
	if f := float64(stores) / n; f < s.StoreFrac-0.05 || f > s.StoreFrac+0.05 {
		t.Errorf("store fraction %v, want ~%v", f, s.StoreFrac)
	}
}

func TestSequentialityByClass(t *testing.T) {
	seqFrac := func(name string) float64 {
		s, _ := Get(name)
		g := NewGenerator(s, 0, 1, 0, 13)
		var prev uint64
		seq, total := 0, 0
		for i := 0; i < 20000; i++ {
			op := g.Next()
			la := cache.LineAddr(op.Addr)
			if i > 0 && (la == prev+1 || la == prev) {
				seq++
			}
			prev = la
			total++
		}
		return float64(seq) / float64(total)
	}
	if s, m := seqFrac("stream"), seqFrac("mcf"); s <= m+0.2 {
		t.Errorf("stream sequentiality %v not well above mcf %v", s, m)
	}
}

func TestMultithreadedPartitioning(t *testing.T) {
	s, _ := Get("mg")
	// Different threads must mostly touch disjoint partitions.
	g0 := NewGenerator(s, 0, 8, 0, 17)
	g7 := NewGenerator(s, 7, 8, 0, 17)
	lines0 := map[uint64]bool{}
	for i := 0; i < 5000; i++ {
		lines0[cache.LineAddr(g0.Next().Addr)] = true
	}
	overlap, total := 0, 0
	for i := 0; i < 5000; i++ {
		la := cache.LineAddr(g7.Next().Addr)
		total++
		if lines0[la] {
			overlap++
		}
	}
	if f := float64(overlap) / float64(total); f > 0.15 {
		t.Errorf("thread overlap %v too high", f)
	}
}

func TestGapMeanTracksSpec(t *testing.T) {
	s, _ := Get("sjeng")
	g := NewGenerator(s, 0, 1, 0, 19)
	var sum float64
	const n = 20000
	for i := 0; i < n; i++ {
		sum += float64(g.Next().Gap)
	}
	mean := sum / n
	if mean < s.GapMean*0.8 || mean > s.GapMean*1.2 {
		t.Errorf("gap mean %v, spec %v", mean, s.GapMean)
	}
}

func TestPreferredWordStable(t *testing.T) {
	s, _ := Get("mcf")
	g := NewGenerator(s, 0, 1, 0, 1)
	for line := uint64(0); line < 100; line++ {
		a, b := g.PreferredWord(line), g.PreferredWord(line)
		if a != b {
			t.Fatal("preferred word not stable")
		}
		if a < 0 || a > 7 {
			t.Fatalf("preferred word %d out of range", a)
		}
	}
}

func TestClassString(t *testing.T) {
	for c := Streaming; c <= ComputeBound; c++ {
		if c.String() == "unknown" {
			t.Fatalf("class %d unnamed", c)
		}
	}
	if Class(99).String() != "unknown" {
		t.Fatal("bad class must be unknown")
	}
}

func TestMidReuseRevisitsLines(t *testing.T) {
	s, _ := Get("mcf") // high MidReuseProb
	g := NewGenerator(s, 0, 1, 0, 23)
	seen := map[uint64]int{}
	revisits := 0
	const n = 30000
	for i := 0; i < n; i++ {
		la := cache.LineAddr(g.Next().Addr)
		if seen[la] > 0 {
			revisits++
		}
		seen[la]++
	}
	frac := float64(revisits) / n
	// mcf must revisit a substantial fraction of its lines (the
	// temporal locality adaptive placement learns from).
	if frac < 0.25 {
		t.Errorf("mcf revisit fraction = %v, want substantial", frac)
	}
	// stream must not (pure scan).
	s2, _ := Get("stream")
	g2 := NewGenerator(s2, 0, 1, 0, 23)
	seen2 := map[uint64]int{}
	revisits2 := 0
	for i := 0; i < n; i++ {
		la := cache.LineAddr(g2.Next().Addr)
		if seen2[la] > 0 {
			revisits2++
		}
		seen2[la]++
	}
	if f2 := float64(revisits2) / n; f2 > frac/2 {
		t.Errorf("stream revisit fraction %v not well below mcf %v", f2, frac)
	}
}

func TestRevisitedLinesKeepPreferredWord(t *testing.T) {
	// The Figure 3 regularity must survive revisits: the same line's
	// accesses keep hitting its preferred word.
	s, _ := Get("omnetpp")
	g := NewGenerator(s, 0, 1, 0, 29)
	words := map[uint64]map[int]int{}
	for i := 0; i < 50000; i++ {
		op := g.Next()
		la := cache.LineAddr(op.Addr)
		if words[la] == nil {
			words[la] = map[int]int{}
		}
		words[la][cache.WordIndex(op.Addr)]++
	}
	dominated, checked := 0, 0
	for _, ws := range words {
		total, max := 0, 0
		for _, c := range ws {
			total += c
			if c > max {
				max = c
			}
		}
		if total >= 4 {
			checked++
			if float64(max)/float64(total) > 0.5 {
				dominated++
			}
		}
	}
	if checked == 0 {
		t.Skip("no multi-touch lines")
	}
	if f := float64(dominated) / float64(checked); f < 0.6 {
		t.Errorf("dominant-word fraction among revisited lines = %v", f)
	}
}

// perCallGeometric is the geometric draw as it was written before
// sim.Geo: the denominator's logarithm recomputed at every call.
func perCallGeometric(r *sim.RNG, mean float64) int {
	if mean <= 0 {
		return 0
	}
	p := 1 / (1 + mean)
	u := r.Float64()
	g := int(math.Log(1-u) / math.Log(1-p))
	if g < 0 {
		g = 0
	}
	return g
}

// The generator's geometric draws, one sim.Geo per mean, must equal
// the per-call formula draw for draw, and consume the same randomness,
// for every mean a registered spec asks for (and the edge means).
func TestGeoMatchesPerCallFormula(t *testing.T) {
	means := []float64{0, -1, 1e-300, 0.5, 1e20}
	for _, n := range Names() {
		s, _ := Get(n)
		means = append(means, s.GapMean, s.SeqRun-1, s.ReuseGapMean)
	}
	for _, mean := range means {
		a, b := sim.NewRNG(uint64(len(means))), sim.NewRNG(uint64(len(means)))
		geo := sim.NewGeo(mean)
		for i := 0; i < 20000; i++ {
			if x, y := b.Geometric(geo), perCallGeometric(a, mean); x != y {
				t.Fatalf("mean %v draw %d: Geo %d, per-call formula %d", mean, i, x, y)
			}
		}
		if a.Uint64() != b.Uint64() {
			t.Fatalf("mean %v: the two forms consumed different randomness", mean)
		}
	}
}

// The reuse-history ring is 32 bits wide: Validate rejects a footprint
// whose line indices could outgrow it, a remembered index keeps all 32
// bits, and one that does not fit panics instead of being truncated.
func TestReuseRingWidth(t *testing.T) {
	s, _ := Get("mcf")
	s.FootprintMB = maxFootprintMB
	if err := s.Validate(); err != nil {
		t.Fatalf("largest footprint rejected: %v", err)
	}
	s.FootprintMB++
	if err := s.Validate(); err == nil || !strings.Contains(err.Error(), "32 bits") {
		t.Fatalf("footprint past 32-bit line indices: err = %v", err)
	}

	g := NewGenerator(s, 0, 1, 0, 1)
	for i := 0; i < 64; i++ {
		g.remember(math.MaxUint32)
	}
	if la, ok := g.recallLine(); !ok || la != math.MaxUint32 {
		t.Fatalf("recalled %d (%v), want %d", la, ok, uint64(math.MaxUint32))
	}
	defer func() {
		msg, _ := recover().(string)
		if !strings.Contains(msg, "does not fit the 32-bit reuse-history ring") {
			t.Fatalf("out-of-range index: recovered %q, want the ring-width panic", msg)
		}
	}()
	g.remember(math.MaxUint32 + 1)
	t.Fatal("out-of-range index was stored")
}
