package stats

import (
	"math"
	"strings"
	"testing"
	"testing/quick"
)

func TestMean(t *testing.T) {
	var m Mean
	if m.Value() != 0 {
		t.Fatal("empty mean must be 0")
	}
	m.Add(2)
	m.Add(4)
	if m.Value() != 3 || m.N() != 2 || m.Sum() != 6 {
		t.Fatalf("mean = %v n=%d sum=%v", m.Value(), m.N(), m.Sum())
	}
}

func TestHistogramBasics(t *testing.T) {
	h := NewHistogram(11, 10) // bucket 10 is the unbounded overflow bucket
	for _, v := range []float64{5, 15, 15, 95, 250} {
		h.Add(v)
	}
	if h.Total() != 5 {
		t.Fatalf("total = %d", h.Total())
	}
	if h.Min() != 5 || h.Max() != 250 {
		t.Fatalf("min/max = %v/%v", h.Min(), h.Max())
	}
	if got := h.Mean(); got != 76 {
		t.Fatalf("mean = %v, want 76", got)
	}
	// 250 lands in the overflow bucket.
	if h.FracBelow(100) != 0.8 {
		t.Fatalf("FracBelow(100) = %v, want 0.8", h.FracBelow(100))
	}
}

func TestHistogramPercentile(t *testing.T) {
	h := NewHistogram(100, 1)
	for i := 0; i < 100; i++ {
		h.Add(float64(i))
	}
	if p := h.Percentile(0.5); p < 49 || p > 51 {
		t.Errorf("p50 = %v", p)
	}
	if p := h.Percentile(0.99); p < 98 || p > 100 {
		t.Errorf("p99 = %v", p)
	}
	empty := NewHistogram(4, 1)
	if empty.Percentile(0.5) != 0 || empty.Mean() != 0 {
		t.Error("empty histogram must report zeros")
	}
}

func TestHistogramNegativeClamped(t *testing.T) {
	h := NewHistogram(4, 1)
	h.Add(-5)
	if h.Total() != 1 {
		t.Fatal("negative sample dropped")
	}
	if h.FracBelow(1) != 1 {
		t.Fatal("negative sample must land in first bucket")
	}
}

// TestHistogramEdgeCases covers NaN samples (counted separately, must
// not poison sum/min/max), negatives (clamped to bucket 0), and values
// landing exactly on bucket boundaries.
func TestHistogramEdgeCases(t *testing.T) {
	cases := []struct {
		name    string
		samples []float64
		total   int64
		nans    int64
		sum     float64
		min     float64
		max     float64
		// fracBelowAt/fracBelow probe bucket placement.
		fracBelowAt float64
		fracBelow   float64
	}{
		{
			name:    "nan only",
			samples: []float64{math.NaN()},
			total:   0, nans: 1, sum: 0, min: 0, max: 0,
			fracBelowAt: 10, fracBelow: 0,
		},
		{
			name:    "nan mixed with reals",
			samples: []float64{5, math.NaN(), 15, math.NaN()},
			total:   2, nans: 2, sum: 20, min: 5, max: 15,
			fracBelowAt: 10, fracBelow: 0.5,
		},
		{
			name:    "negative clamped to first bucket",
			samples: []float64{-7, -0.5, 3},
			total:   3, nans: 0, sum: -4.5, min: -7, max: 3,
			fracBelowAt: 10, fracBelow: 1,
		},
		{
			name: "exact boundary goes to upper bucket",
			// width 10: 10 belongs to bucket 1, so FracBelow(10)
			// counts only bucket 0.
			samples: []float64{0, 10, 20},
			total:   3, nans: 0, sum: 30, min: 0, max: 20,
			fracBelowAt: 10, fracBelow: 1.0 / 3.0,
		},
		{
			name:    "zero sample",
			samples: []float64{0},
			total:   1, nans: 0, sum: 0, min: 0, max: 0,
			fracBelowAt: 10, fracBelow: 1,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			h := NewHistogram(8, 10)
			for _, v := range tc.samples {
				h.Add(v)
			}
			if h.Total() != tc.total || h.NaNs() != tc.nans {
				t.Fatalf("total/nans = %d/%d, want %d/%d", h.Total(), h.NaNs(), tc.total, tc.nans)
			}
			if math.IsNaN(h.Sum()) || h.Sum() != tc.sum {
				t.Fatalf("sum = %v, want %v", h.Sum(), tc.sum)
			}
			if h.Min() != tc.min || h.Max() != tc.max {
				t.Fatalf("min/max = %v/%v, want %v/%v", h.Min(), h.Max(), tc.min, tc.max)
			}
			if got := h.FracBelow(tc.fracBelowAt); got != tc.fracBelow {
				t.Fatalf("FracBelow(%v) = %v, want %v", tc.fracBelowAt, got, tc.fracBelow)
			}
			if math.IsNaN(h.Mean()) {
				t.Fatal("mean must never be NaN")
			}
		})
	}
}

func TestLatencyBreakdown(t *testing.T) {
	var l LatencyBreakdown
	l.Add(100, 50, 16)
	l.Add(200, 50, 16)
	if l.N() != 2 {
		t.Fatalf("N = %d", l.N())
	}
	if got := l.TotalMean(); got != 216 {
		t.Fatalf("TotalMean = %v, want 216", got)
	}
	if l.Queue.Value() != 150 {
		t.Fatalf("queue mean = %v", l.Queue.Value())
	}
}

func TestTableRendering(t *testing.T) {
	tb := &Table{Title: "Fig X", Headers: []string{"bench", "speedup"}}
	tb.AddRow("mcf", "1.12")
	tb.AddRowf("leslie3d", "%.2f", 1.25)
	out := tb.String()
	for _, want := range []string{"Fig X", "bench", "mcf", "1.12", "leslie3d", "1.25", "-----"} {
		if !strings.Contains(out, want) {
			t.Errorf("table output missing %q:\n%s", want, out)
		}
	}
}

func TestGeoMean(t *testing.T) {
	if g := GeoMean([]float64{1, 4}); math.Abs(g-2) > 1e-9 {
		t.Errorf("GeoMean(1,4) = %v, want 2", g)
	}
	if g := GeoMean(nil); g != 0 {
		t.Errorf("GeoMean(nil) = %v", g)
	}
	if g := GeoMean([]float64{0, -1}); g != 0 {
		t.Errorf("GeoMean of non-positives = %v", g)
	}
}

func TestArithMean(t *testing.T) {
	if m := ArithMean([]float64{1, 2, 3}); m != 2 {
		t.Errorf("ArithMean = %v", m)
	}
	if m := ArithMean(nil); m != 0 {
		t.Errorf("ArithMean(nil) = %v", m)
	}
}

func TestSortedKeys(t *testing.T) {
	m := map[string]int{"b": 1, "a": 2, "c": 3}
	ks := SortedKeys(m)
	if len(ks) != 3 || ks[0] != "a" || ks[1] != "b" || ks[2] != "c" {
		t.Errorf("SortedKeys = %v", ks)
	}
}

// Property: histogram mean equals the true sample mean regardless of
// bucketing (mean is tracked exactly, not from buckets).
func TestHistogramMeanProperty(t *testing.T) {
	f := func(raw []uint8) bool {
		h := NewHistogram(8, 3)
		var sum float64
		for _, v := range raw {
			h.Add(float64(v))
			sum += float64(v)
		}
		if len(raw) == 0 {
			return h.Mean() == 0
		}
		return math.Abs(h.Mean()-sum/float64(len(raw))) < 1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: FracBelow is monotonically non-decreasing in its argument.
func TestFracBelowMonotonicProperty(t *testing.T) {
	f := func(raw []uint8) bool {
		h := NewHistogram(16, 4)
		for _, v := range raw {
			h.Add(float64(v))
		}
		prev := -1.0
		for v := 0.0; v <= 300; v += 7 {
			fb := h.FracBelow(v)
			if fb < prev {
				return false
			}
			prev = fb
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestBarChart(t *testing.T) {
	out := BarChart("Fig X", []string{"a", "bb"}, []float64{0.5, 1.5}, 1.0, 20)
	if !strings.Contains(out, "Fig X") || !strings.Contains(out, "bb") {
		t.Fatalf("chart missing parts:\n%s", out)
	}
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 3 {
		t.Fatalf("lines = %d", len(lines))
	}
	// The larger value draws the longer bar.
	if strings.Count(lines[1], "#") >= strings.Count(lines[2], "#") {
		t.Fatal("bar lengths not ordered")
	}
	// Reference tick appears inside the shorter bar's line.
	if !strings.Contains(lines[1], "|") {
		t.Fatal("reference tick missing")
	}
	if BarChart("", nil, nil, 0, 0) != "" {
		t.Fatal("empty chart must be empty")
	}
}
