// Package workload provides synthetic trace generators standing in for
// the paper's benchmark binaries (SPEC CPU2006, NAS Parallel Benchmarks
// and STREAM, §5), which are not redistributable. Each named benchmark
// is modelled by the published statistics that the critical-word result
// actually depends on: memory intensity, store fraction, footprint,
// sequential-run length (row locality), pointer-chase fraction (MLP),
// page-access skew, the critical-word distribution of Figure 4, and the
// line reuse-gap behaviour discussed in §6.1.1. Generators are
// deterministic given (benchmark, core, seed).
package workload

import (
	"fmt"
	"sort"
)

// Class is the qualitative access-pattern family (Appendix A).
type Class int

// Access-pattern classes.
const (
	Streaming    Class = iota // unit/short-stride scans: word 0 critical
	Strided                   // regular strides with favorable alignment
	PointerChase              // dependent random walks: flat distribution
	Mixed
	ComputeBound
)

// String names the class.
func (c Class) String() string {
	switch c {
	case Streaming:
		return "streaming"
	case Strided:
		return "strided"
	case PointerChase:
		return "pointer-chase"
	case Mixed:
		return "mixed"
	case ComputeBound:
		return "compute-bound"
	default:
		return "unknown"
	}
}

// Spec parameterizes one benchmark's synthetic generator.
type Spec struct {
	Name          string
	Suite         string // "NPB", "SPEC", "STREAM"
	Class         Class
	Multithreaded bool // NPB/STREAM: 8 threads share one address space

	// GapMean is the mean count of plain ALU instructions between
	// memory operations (memory intensity knob).
	GapMean float64
	// StoreFrac is the fraction of memory ops that are stores.
	StoreFrac float64
	// FootprintMB is the per-program data footprint.
	FootprintMB int
	// SeqRun is the mean run length (in lines) of sequential scans;
	// long runs give row-buffer locality and prefetcher coverage.
	SeqRun float64
	// DepFrac is the fraction of loads whose address depends on the
	// previous load (pointer chasing).
	DepFrac float64
	// PageZipf skews page popularity (0 = uniform; §7.1 profiling).
	PageZipf float64
	// CritDist is the distribution of the first-touched (critical)
	// word within a line, Figure 4.
	CritDist [8]float64
	// ReuseProb is the probability that a missed line sees a near-term
	// second access to a different word; ReuseGapMean is the mean
	// plain-instruction distance to it (§6.1.1 gap analysis).
	ReuseProb    float64
	ReuseGapMean float64

	// MidReuseProb is the probability that an access revisits a line
	// touched in the medium past (a history window spanning beyond the
	// LLC), instead of breaking new ground. This models the temporal
	// locality that gives real programs their LLC hit rates — and the
	// evict-dirty-then-refetch loop that adaptive placement (§4.2.5)
	// learns from.
	MidReuseProb float64
}

// critW0 builds a Figure-4-style distribution: weight w0 on word 0 and
// the remainder spread per class (decaying toward late words for scans,
// flat for pointer chasing). extra optionally adds a secondary spike
// (e.g. mcf's word 3).
func critW0(w0 float64, c Class, extraWord int, extraWeight float64) [8]float64 {
	var d [8]float64
	d[0] = w0
	rest := 1 - w0 - extraWeight
	switch c {
	case PointerChase, Mixed:
		for i := 1; i < 8; i++ {
			d[i] = rest / 7
		}
	default:
		// Geometric decay over words 1..7.
		weights := [7]float64{0.30, 0.20, 0.15, 0.12, 0.09, 0.08, 0.06}
		for i := 1; i < 8; i++ {
			d[i] = rest * weights[i-1]
		}
	}
	if extraWeight > 0 {
		d[extraWord] += extraWeight
	}
	return d
}

// specs is the full benchmark table: the 6 NPB programs, STREAM, and
// the 19 SPEC CPU2006 programs named in §5/§6 (the 18 of the workload
// list plus GemsFDTD, which the evaluation figures discuss).
var specs = map[string]Spec{
	"cg": {Name: "cg", Suite: "NPB", Class: Strided, Multithreaded: true,
		GapMean: 340, StoreFrac: 0.15, FootprintMB: 96, SeqRun: 6, DepFrac: 0.10,
		PageZipf: 0.4, CritDist: critW0(0.75, Strided, 0, 0), ReuseProb: 0.3, ReuseGapMean: 1500, MidReuseProb: 0.12},
	"is": {Name: "is", Suite: "NPB", Class: Mixed, Multithreaded: true,
		GapMean: 450, StoreFrac: 0.30, FootprintMB: 128, SeqRun: 2, DepFrac: 0.05,
		PageZipf: 0.2, CritDist: critW0(0.55, Mixed, 0, 0), ReuseProb: 0.2, ReuseGapMean: 1200, MidReuseProb: 0.2},
	"ep": {Name: "ep", Suite: "NPB", Class: ComputeBound, Multithreaded: true,
		GapMean: 2600, StoreFrac: 0.10, FootprintMB: 16, SeqRun: 8, DepFrac: 0,
		PageZipf: 0.3, CritDist: critW0(0.60, Streaming, 0, 0), ReuseProb: 0.2, ReuseGapMean: 1800, MidReuseProb: 0.1},
	"lu": {Name: "lu", Suite: "NPB", Class: Streaming, Multithreaded: true,
		GapMean: 280, StoreFrac: 0.20, FootprintMB: 96, SeqRun: 16, DepFrac: 0,
		PageZipf: 0.3, CritDist: critW0(0.80, Streaming, 0, 0), ReuseProb: 0.3, ReuseGapMean: 1600, MidReuseProb: 0.08},
	"mg": {Name: "mg", Suite: "NPB", Class: Streaming, Multithreaded: true,
		GapMean: 200, StoreFrac: 0.20, FootprintMB: 192, SeqRun: 24, DepFrac: 0,
		PageZipf: 0.2, CritDist: critW0(0.85, Streaming, 0, 0), ReuseProb: 0.35, ReuseGapMean: 900, MidReuseProb: 0.05},
	"sp": {Name: "sp", Suite: "NPB", Class: Streaming, Multithreaded: true,
		GapMean: 220, StoreFrac: 0.25, FootprintMB: 128, SeqRun: 20, DepFrac: 0,
		PageZipf: 0.2, CritDist: critW0(0.80, Streaming, 0, 0), ReuseProb: 0.3, ReuseGapMean: 1700, MidReuseProb: 0.06},
	"stream": {Name: "stream", Suite: "STREAM", Class: Streaming, Multithreaded: true,
		GapMean: 120, StoreFrac: 0.33, FootprintMB: 256, SeqRun: 64, DepFrac: 0,
		PageZipf: 0, CritDist: critW0(0.95, Streaming, 0, 0), ReuseProb: 0.2, ReuseGapMean: 800, MidReuseProb: 0},

	"astar": {Name: "astar", Suite: "SPEC", Class: PointerChase,
		GapMean: 560, StoreFrac: 0.15, FootprintMB: 48, SeqRun: 1.5, DepFrac: 0.50,
		PageZipf: 0.6, CritDist: critW0(0.42, PointerChase, 0, 0), ReuseProb: 0.25, ReuseGapMean: 1300, MidReuseProb: 0.45},
	"bzip2": {Name: "bzip2", Suite: "SPEC", Class: Mixed,
		GapMean: 800, StoreFrac: 0.20, FootprintMB: 32, SeqRun: 3, DepFrac: 0.15,
		PageZipf: 0.5, CritDist: critW0(0.52, Mixed, 0, 0), ReuseProb: 0.5, ReuseGapMean: 60, MidReuseProb: 0.3},
	"dealII": {Name: "dealII", Suite: "SPEC", Class: Strided,
		GapMean: 950, StoreFrac: 0.15, FootprintMB: 24, SeqRun: 4, DepFrac: 0.10,
		PageZipf: 0.5, CritDist: critW0(0.70, Strided, 0, 0), ReuseProb: 0.6, ReuseGapMean: 40, MidReuseProb: 0.3},
	"GemsFDTD": {Name: "GemsFDTD", Suite: "SPEC", Class: Streaming,
		GapMean: 190, StoreFrac: 0.20, FootprintMB: 256, SeqRun: 32, DepFrac: 0,
		PageZipf: 0.2, CritDist: critW0(0.85, Streaming, 0, 0), ReuseProb: 0.3, ReuseGapMean: 900, MidReuseProb: 0.05},
	"gobmk": {Name: "gobmk", Suite: "SPEC", Class: ComputeBound,
		GapMean: 1400, StoreFrac: 0.15, FootprintMB: 8, SeqRun: 2, DepFrac: 0.20,
		PageZipf: 0.5, CritDist: critW0(0.55, Mixed, 0, 0), ReuseProb: 0.3, ReuseGapMean: 1100, MidReuseProb: 0.35},
	"gromacs": {Name: "gromacs", Suite: "SPEC", Class: Strided,
		GapMean: 1100, StoreFrac: 0.20, FootprintMB: 16, SeqRun: 4, DepFrac: 0.05,
		PageZipf: 0.4, CritDist: critW0(0.60, Strided, 0, 0), ReuseProb: 0.3, ReuseGapMean: 1300, MidReuseProb: 0.18},
	"h264ref": {Name: "h264ref", Suite: "SPEC", Class: Strided,
		GapMean: 750, StoreFrac: 0.25, FootprintMB: 24, SeqRun: 6, DepFrac: 0.05,
		PageZipf: 0.4, CritDist: critW0(0.62, Strided, 0, 0), ReuseProb: 0.35, ReuseGapMean: 1200, MidReuseProb: 0.18},
	"hmmer": {Name: "hmmer", Suite: "SPEC", Class: Strided,
		GapMean: 600, StoreFrac: 0.20, FootprintMB: 16, SeqRun: 8, DepFrac: 0,
		PageZipf: 0.3, CritDist: critW0(0.90, Strided, 0, 0), ReuseProb: 0.3, ReuseGapMean: 1400, MidReuseProb: 0.12},
	"lbm": {Name: "lbm", Suite: "SPEC", Class: Mixed,
		GapMean: 300, StoreFrac: 0.35, FootprintMB: 384, SeqRun: 16, DepFrac: 0,
		PageZipf: 0.1, CritDist: critW0(0.40, Mixed, 2, 0.15), ReuseProb: 0.4, ReuseGapMean: 900, MidReuseProb: 0.08},
	"leslie3d": {Name: "leslie3d", Suite: "SPEC", Class: Streaming,
		GapMean: 180, StoreFrac: 0.25, FootprintMB: 128, SeqRun: 24, DepFrac: 0,
		PageZipf: 0.2, CritDist: critW0(0.90, Streaming, 0, 0), ReuseProb: 0.25, ReuseGapMean: 800, MidReuseProb: 0.05},
	"libquantum": {Name: "libquantum", Suite: "SPEC", Class: Streaming,
		GapMean: 140, StoreFrac: 0.25, FootprintMB: 64, SeqRun: 48, DepFrac: 0,
		PageZipf: 0, CritDist: critW0(0.95, Streaming, 0, 0), ReuseProb: 0.15, ReuseGapMean: 900, MidReuseProb: 0},
	"mcf": {Name: "mcf", Suite: "SPEC", Class: PointerChase,
		GapMean: 550, StoreFrac: 0.20, FootprintMB: 512, SeqRun: 2.0, DepFrac: 0.70,
		PageZipf: 0.7, CritDist: critW0(0.28, PointerChase, 3, 0.22), ReuseProb: 0.3, ReuseGapMean: 1100, MidReuseProb: 0.55},
	"milc": {Name: "milc", Suite: "SPEC", Class: Mixed,
		GapMean: 320, StoreFrac: 0.25, FootprintMB: 256, SeqRun: 8, DepFrac: 0.10,
		PageZipf: 0.2, CritDist: critW0(0.45, Mixed, 0, 0), ReuseProb: 0.3, ReuseGapMean: 1100, MidReuseProb: 0.35},
	"omnetpp": {Name: "omnetpp", Suite: "SPEC", Class: PointerChase,
		GapMean: 380, StoreFrac: 0.25, FootprintMB: 96, SeqRun: 1.5, DepFrac: 0.55,
		PageZipf: 0.6, CritDist: critW0(0.38, PointerChase, 0, 0), ReuseProb: 0.25, ReuseGapMean: 1200, MidReuseProb: 0.5},
	"sjeng": {Name: "sjeng", Suite: "SPEC", Class: ComputeBound,
		GapMean: 1600, StoreFrac: 0.15, FootprintMB: 12, SeqRun: 2, DepFrac: 0.25,
		PageZipf: 0.5, CritDist: critW0(0.55, Mixed, 0, 0), ReuseProb: 0.25, ReuseGapMean: 1200, MidReuseProb: 0.35},
	"soplex": {Name: "soplex", Suite: "SPEC", Class: Strided,
		GapMean: 340, StoreFrac: 0.20, FootprintMB: 96, SeqRun: 6, DepFrac: 0.10,
		PageZipf: 0.4, CritDist: critW0(0.68, Strided, 0, 0), ReuseProb: 0.3, ReuseGapMean: 1400, MidReuseProb: 0.15},
	"tonto": {Name: "tonto", Suite: "SPEC", Class: Strided,
		GapMean: 1050, StoreFrac: 0.20, FootprintMB: 16, SeqRun: 6, DepFrac: 0.05,
		PageZipf: 0.4, CritDist: critW0(0.80, Strided, 0, 0), ReuseProb: 0.65, ReuseGapMean: 35, MidReuseProb: 0.3},
	"xalancbmk": {Name: "xalancbmk", Suite: "SPEC", Class: PointerChase,
		GapMean: 500, StoreFrac: 0.20, FootprintMB: 64, SeqRun: 1.5, DepFrac: 0.60,
		PageZipf: 0.6, CritDist: critW0(0.35, PointerChase, 0, 0), ReuseProb: 0.25, ReuseGapMean: 1200, MidReuseProb: 0.5},
	"zeusmp": {Name: "zeusmp", Suite: "SPEC", Class: Streaming,
		GapMean: 320, StoreFrac: 0.25, FootprintMB: 128, SeqRun: 12, DepFrac: 0,
		PageZipf: 0.3, CritDist: critW0(0.72, Streaming, 0, 0), ReuseProb: 0.3, ReuseGapMean: 1500, MidReuseProb: 0.1},
}

// Get returns the spec for a benchmark name.
func Get(name string) (Spec, error) {
	s, ok := specs[name]
	if !ok {
		return Spec{}, fmt.Errorf("workload: unknown benchmark %q", name)
	}
	return s, nil
}

// Names lists all benchmarks in sorted order.
func Names() []string {
	out := make([]string, 0, len(specs))
	for n := range specs {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// MemoryIntensive lists the benchmarks used for quick smoke runs
// (highest DRAM pressure, spanning the three pattern families).
func MemoryIntensive() []string {
	return []string{"libquantum", "leslie3d", "mcf", "lbm", "stream", "mg"}
}

// maxFootprintMB bounds FootprintMB so that every line index a
// generator remembers fits its 32-bit reuse-history ring: 2^31 lines,
// leaving as many again for a sequential run carried past the
// footprint's end (indices are stored unwrapped).
const maxFootprintMB = (1 << 31) * 64 / (1 << 20)

// FootprintLines converts the spec footprint to 64-byte lines.
func (s Spec) FootprintLines() uint64 { return uint64(s.FootprintMB) * 1024 * 1024 / 64 }

// Validate checks internal consistency of a spec.
func (s Spec) Validate() error {
	var sum float64
	for _, p := range s.CritDist {
		if p < 0 {
			return fmt.Errorf("workload %s: negative critical-word weight", s.Name)
		}
		sum += p
	}
	if sum < 0.999 || sum > 1.001 {
		return fmt.Errorf("workload %s: critical-word weights sum to %v", s.Name, sum)
	}
	if s.GapMean <= 0 || s.FootprintMB <= 0 {
		return fmt.Errorf("workload %s: non-positive gap or footprint", s.Name)
	}
	if s.FootprintMB > maxFootprintMB {
		return fmt.Errorf("workload %s: footprint %d MB exceeds %d MB, whose line indices fit 32 bits", s.Name, s.FootprintMB, maxFootprintMB)
	}
	if s.StoreFrac < 0 || s.StoreFrac > 1 || s.DepFrac < 0 || s.DepFrac > 1 ||
		s.ReuseProb < 0 || s.ReuseProb > 1 {
		return fmt.Errorf("workload %s: fraction out of range", s.Name)
	}
	return nil
}
