package workload

import (
	"fmt"
	"math"
	"slices"

	"hetsim/internal/cpu"
	"hetsim/internal/sim"
)

// LinesPerPage is a 4KB OS page in 64-byte lines.
const LinesPerPage = 64

// prefConcentration is how strongly a line's first-touch word sticks to
// its per-line preferred word. Figure 3 shows strong per-line bias;
// 0.85 reproduces the "one or two dominant words per line" shape while
// leaving the tail the adaptive scheme can't capture.
const prefConcentration = 0.85

// sharedFrac is the fraction of multithreaded accesses that touch the
// shared region at the bottom of the address space (boundary exchange).
const sharedFrac = 0.04

// Generator produces one core's instruction trace for a benchmark. It
// implements cpu.Trace deterministically from (spec, core, seed).
type Generator struct {
	spec  Spec
	rng   *sim.RNG
	base  uint64 // byte base of this program's region
	lines uint64 // lines in this core's partition
	part  uint64 // line offset of this core's partition within region

	curLine uint64
	runLeft int

	// gapGeo, runGeo and reuseGeo draw the spec's GapMean, SeqRun-1 and
	// ReuseGapMean geometric lengths.
	gapGeo, runGeo, reuseGeo sim.Geo

	// pending is a fixed ring of reuse accesses waiting to mature: a
	// slice that pops from the front loses capacity and re-allocates on
	// every push, which the hot path cannot afford.
	pending   [8]delayed
	pendHead  int
	pendCount int

	// history is a ring of recently touched line indices used for
	// medium-distance reuse (MidReuseProb): revisits of lines that may
	// have aged out of the LLC, the pattern adaptive placement learns
	// from. Slots hold unwrapped line indices (PreferredWord hashes
	// them) in 32 bits; remember panics on one that does not fit.
	history    []uint32
	histPos    int
	histFilled bool
}

// delayed is a reuse access waiting for its gap to elapse.
type delayed struct {
	op    cpu.MemOp
	after int // memory ops to wait before emitting
}

// NewGenerator builds the trace for one core.
//
// Multiprogrammed benchmarks (SPEC) run one program copy per core: base
// must differ per core (disjoint address spaces). Multithreaded ones
// (NPB/STREAM) share base across cores and partition the footprint.
func NewGenerator(spec Spec, coreID, nCores int, base uint64, seed uint64) *Generator {
	total := spec.FootprintLines()
	g := &Generator{
		spec: spec,
		rng:  sim.NewRNG(seed ^ uint64(coreID)*0x9e3779b97f4a7c15 ^ hash64(uint64(len(spec.Name)))),
		base: base,

		gapGeo:   sim.NewGeo(spec.GapMean),
		runGeo:   sim.NewGeo(spec.SeqRun - 1),
		reuseGeo: sim.NewGeo(spec.ReuseGapMean),
	}
	if spec.Multithreaded && nCores > 1 {
		g.lines = total / uint64(nCores)
		g.part = g.lines * uint64(coreID)
	} else {
		g.lines = total
	}
	if g.lines < LinesPerPage {
		g.lines = LinesPerPage
	}
	if spec.MidReuseProb > 0 {
		size := int(g.lines / 4)
		if size > 32768 {
			size = 32768
		}
		if size < 256 {
			size = 256
		}
		g.history = make([]uint32, size)
	}
	g.jump()
	return g
}

// Checkpoint returns a copy of g's state for Restore: its RNG, cursor,
// pending ring and the filled part of its reuse-history ring. The copy
// is only a restore source; it emits no operations itself.
func (g *Generator) Checkpoint() *Generator {
	c := *g
	rng := *g.rng
	c.rng = &rng
	n := g.histPos
	if g.histFilled {
		n = len(g.history)
	}
	c.history = slices.Clone(g.history[:n])
	return &c
}

// Restore sets g, a generator that has emitted nothing, to the state of
// src, a Checkpoint of a generator built from the same (spec, core,
// cores, seed). The state is copied, so g shares no storage with src,
// and src is only read. Ring slots past src's filled part stay zero:
// nothing reads a slot before remember writes it.
func (g *Generator) Restore(src *Generator) {
	rng, hist := g.rng, g.history
	*g = *src
	*rng = *src.rng
	g.rng = rng
	g.history = hist
	copy(hist, src.history)
}

// remember records a touched line for medium-distance reuse.
func (g *Generator) remember(lineIdx uint64) {
	if g.history == nil {
		return
	}
	if lineIdx > math.MaxUint32 {
		panic(fmt.Sprintf("workload %s: line index %d does not fit the 32-bit reuse-history ring", g.spec.Name, lineIdx))
	}
	g.history[g.histPos] = uint32(lineIdx)
	g.histPos++
	if g.histPos == len(g.history) {
		g.histPos = 0
		g.histFilled = true
	}
}

// recallLine returns a line touched in the medium past, or false when
// the history is still too cold.
func (g *Generator) recallLine() (uint64, bool) {
	if g.history == nil {
		return 0, false
	}
	n := g.histPos
	if g.histFilled {
		n = len(g.history)
	}
	if n < 64 {
		return 0, false
	}
	return uint64(g.history[g.rng.Intn(n)]), true
}

// hash64 is a splitmix64 finalizer for per-line preferred words.
func hash64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// PreferredWord returns the stable per-line critical word for a line
// index, drawn from the benchmark's critical-word distribution via the
// line's hash (Figure 3 regularity: the same line keeps the same
// dominant word across the run).
func (g *Generator) PreferredWord(lineIdx uint64) int {
	u := float64(hash64(lineIdx)>>11) / (1 << 53)
	var cum float64
	for w, p := range g.spec.CritDist {
		cum += p
		if u < cum {
			return w
		}
	}
	return 7
}

// jump repositions the scan at a fresh page (Zipf-skewed) and draws a
// new sequential run length.
func (g *Generator) jump() {
	pages := int(g.lines / LinesPerPage)
	if pages < 1 {
		pages = 1
	}
	p := uint64(g.rng.Zipf(pages, g.spec.PageZipf))
	g.curLine = g.part + p*LinesPerPage + uint64(g.rng.Intn(LinesPerPage))
	g.runLeft = 1 + g.rng.Geometric(g.runGeo)
}

// addr builds the byte address for (line, word), wrapping within the
// program region.
func (g *Generator) addr(lineIdx uint64, word int) uint64 {
	wrapped := g.part + (lineIdx-g.part)%g.lines
	return g.base + wrapped*64 + uint64(word)*8
}

// sharedAddr picks a line in the shared region (first page span of the
// program region), used by multithreaded benchmarks.
func (g *Generator) sharedAddr() (uint64, int) {
	span := g.spec.FootprintLines() / 64
	if span < LinesPerPage {
		span = LinesPerPage
	}
	line := uint64(g.rng.Intn(int(span)))
	return g.base + line*64, int(line)
}

// Next emits the next memory operation (cpu.Trace).
func (g *Generator) Next() cpu.MemOp {
	// Emit a matured reuse access first.
	for i := 0; i < g.pendCount; i++ {
		g.pending[(g.pendHead+i)&7].after--
	}
	if g.pendCount > 0 && g.pending[g.pendHead].after <= 0 {
		op := g.pending[g.pendHead].op
		g.pendHead = (g.pendHead + 1) & 7
		g.pendCount--
		return op
	}

	sp := &g.spec
	op := cpu.MemOp{
		Gap:   g.rng.Geometric(g.gapGeo),
		Store: g.rng.Bool(sp.StoreFrac),
	}

	// Multithreaded sharing traffic.
	if sp.Multithreaded && g.rng.Bool(sharedFrac) {
		a, line := g.sharedAddr()
		w := g.PreferredWord(uint64(line))
		op.Addr = a + uint64(w)*8
		return op
	}

	var lineIdx uint64
	switch {
	case g.rng.Bool(sp.MidReuseProb):
		// Medium-distance reuse: revisit a line from the history ring.
		if la, ok := g.recallLine(); ok {
			lineIdx = la
			w := g.PreferredWord(lineIdx)
			if !g.rng.Bool(prefConcentration) {
				w = g.rng.Pick(sp.CritDist[:])
			}
			op.Addr = g.addr(lineIdx, w)
			op.DepPrev = !op.Store && g.rng.Bool(sp.DepFrac)
			return op
		}
		fallthrough
	case g.rng.Bool(sp.DepFrac):
		// Pointer chase: dependent random jump.
		op.DepPrev = !op.Store
		lineIdx = g.part + uint64(g.rng.Intn(int(g.lines)))
		g.curLine = lineIdx
		g.runLeft = 1 + g.rng.Geometric(g.runGeo)
	default:
		if g.runLeft <= 0 {
			g.jump()
		}
		lineIdx = g.curLine
		g.curLine++
		g.runLeft--
	}

	g.remember(lineIdx)

	// First-touch word: the line's preferred word most of the time.
	w := g.PreferredWord(lineIdx)
	if !g.rng.Bool(prefConcentration) {
		w = g.rng.Pick(sp.CritDist[:])
	}
	op.Addr = g.addr(lineIdx, w)

	// Schedule a second access to a different word of this line.
	if g.rng.Bool(sp.ReuseProb) && g.pendCount < len(g.pending) {
		w2 := (w + 1 + g.rng.Intn(7)) % 8
		gapOps := 1 + int(sp.ReuseGapMean/(sp.GapMean+1))
		g.pending[(g.pendHead+g.pendCount)&7] = delayed{
			op: cpu.MemOp{
				Gap:   g.rng.Geometric(g.reuseGeo),
				Addr:  g.addr(lineIdx, w2),
				Store: g.rng.Bool(sp.StoreFrac),
			},
			after: gapOps,
		}
		g.pendCount++
	}
	return op
}

var _ cpu.Trace = (*Generator)(nil)
