// Package stats provides the light-weight metric primitives used across
// the simulator: counters, running means, histograms, and the latency
// breakdown record kept for every DRAM request (queue time vs. device
// core time vs. transfer time, mirroring Figure 1b of the paper).
package stats

import (
	"fmt"
	"math"
	"sort"
	"strings"
)

// Mean accumulates a running arithmetic mean without storing samples.
// The zero value is ready to use.
type Mean struct {
	n   int64
	sum float64
}

// Add records one sample.
func (m *Mean) Add(v float64) { m.n++; m.sum += v }

// N reports the number of samples.
func (m *Mean) N() int64 { return m.n }

// Sum reports the total of all samples.
func (m *Mean) Sum() float64 { return m.sum }

// Value reports the mean, or 0 when empty.
func (m *Mean) Value() float64 {
	if m.n == 0 {
		return 0
	}
	return m.sum / float64(m.n)
}

// Histogram is a fixed-bucket histogram over [0, max) with overflow
// accumulated in the last bucket. NaN samples are counted separately
// and never touch the buckets, sum, or extrema.
type Histogram struct {
	bucketWidth float64
	counts      []int64
	total       int64
	nans        int64
	sum         float64
	min, max    float64
}

// NewHistogram creates a histogram with n buckets of the given width.
func NewHistogram(n int, width float64) *Histogram {
	if n <= 0 || width <= 0 {
		panic("stats: histogram needs positive bucket count and width")
	}
	return &Histogram{bucketWidth: width, counts: make([]int64, n),
		min: math.Inf(1), max: math.Inf(-1)}
}

// Add records one sample. A NaN sample increments the NaNs counter and
// is otherwise dropped: before this guard, int(NaN/width) landed in an
// arbitrary bucket and sum += NaN poisoned Mean/Min/Max for the rest of
// the run.
func (h *Histogram) Add(v float64) {
	if math.IsNaN(v) {
		h.nans++
		return
	}
	i := int(v / h.bucketWidth)
	if i < 0 {
		i = 0
	}
	if i >= len(h.counts) {
		i = len(h.counts) - 1
	}
	h.counts[i]++
	h.total++
	h.sum += v
	if v < h.min {
		h.min = v
	}
	if v > h.max {
		h.max = v
	}
}

// Total reports the number of samples (excluding NaN samples).
func (h *Histogram) Total() int64 { return h.total }

// NaNs reports the number of NaN samples seen (and dropped) by Add.
func (h *Histogram) NaNs() int64 { return h.nans }

// Sum reports the total of all non-NaN samples.
func (h *Histogram) Sum() float64 { return h.sum }

// Mean reports the sample mean, or 0 when empty.
func (h *Histogram) Mean() float64 {
	if h.total == 0 {
		return 0
	}
	return h.sum / float64(h.total)
}

// Min and Max report sample extrema (0 when empty).
func (h *Histogram) Min() float64 {
	if h.total == 0 {
		return 0
	}
	return h.min
}

// Max reports the largest sample (0 when empty).
func (h *Histogram) Max() float64 {
	if h.total == 0 {
		return 0
	}
	return h.max
}

// Percentile returns the approximate p-quantile (p in [0,1]) using the
// lower edge of the bucket that contains it.
func (h *Histogram) Percentile(p float64) float64 {
	if h.total == 0 {
		return 0
	}
	target := int64(p * float64(h.total))
	var cum int64
	for i, c := range h.counts {
		cum += c
		if cum > target {
			return float64(i) * h.bucketWidth
		}
	}
	return float64(len(h.counts)) * h.bucketWidth
}

// FracBelow reports the fraction of samples strictly below v, at bucket
// granularity. The final bucket is unbounded (it holds overflow), so it
// is never counted as below any v.
func (h *Histogram) FracBelow(v float64) float64 {
	if h.total == 0 {
		return 0
	}
	edge := int(v / h.bucketWidth)
	if edge > len(h.counts)-1 {
		edge = len(h.counts) - 1
	}
	var cum int64
	for i := 0; i < edge; i++ {
		cum += h.counts[i]
	}
	return float64(cum) / float64(h.total)
}

// LatencyBreakdown accumulates the three components of a DRAM read's
// latency, as in Figure 1b: time spent queued in the controller, time
// spent in the DRAM core (ACT/CAS/array access), and data transfer time.
type LatencyBreakdown struct {
	Queue Mean
	Core  Mean
	Xfer  Mean
}

// Add records one request's components.
func (l *LatencyBreakdown) Add(queue, core, xfer float64) {
	l.Queue.Add(queue)
	l.Core.Add(core)
	l.Xfer.Add(xfer)
}

// TotalMean reports the mean end-to-end latency.
func (l *LatencyBreakdown) TotalMean() float64 {
	return l.Queue.Value() + l.Core.Value() + l.Xfer.Value()
}

// N reports the number of requests recorded.
func (l *LatencyBreakdown) N() int64 { return l.Queue.N() }

// Table formats rows of labelled values as a fixed-width text table, the
// output format used by cmd/experiments to mirror the paper's figures.
type Table struct {
	Title   string
	Headers []string
	rows    [][]string
}

// AddRow appends a row; cells beyond the header count are dropped.
func (t *Table) AddRow(cells ...string) { t.rows = append(t.rows, cells) }

// AddRowf appends a row of a label followed by formatted float cells.
func (t *Table) AddRowf(label string, format string, vals ...float64) {
	row := []string{label}
	for _, v := range vals {
		row = append(row, fmt.Sprintf(format, v))
	}
	t.rows = append(t.rows, row)
}

// String renders the table.
func (t *Table) String() string {
	var b strings.Builder
	if t.Title != "" {
		fmt.Fprintf(&b, "%s\n", t.Title)
	}
	widths := make([]int, len(t.Headers))
	for i, h := range t.Headers {
		widths[i] = len(h)
	}
	for _, r := range t.rows {
		for i, c := range r {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	line := func(cells []string) {
		for i := range widths {
			c := ""
			if i < len(cells) {
				c = cells[i]
			}
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], c)
		}
		b.WriteByte('\n')
	}
	line(t.Headers)
	sep := make([]string, len(t.Headers))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	line(sep)
	for _, r := range t.rows {
		line(r)
	}
	return b.String()
}

// GeoMean computes the geometric mean of vs, ignoring non-positive
// entries (which would otherwise poison the product). Returns 0 for an
// empty input.
func GeoMean(vs []float64) float64 {
	var logSum float64
	var n int
	for _, v := range vs {
		if v > 0 {
			logSum += math.Log(v)
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return math.Exp(logSum / float64(n))
}

// ArithMean computes the arithmetic mean, 0 for empty input.
func ArithMean(vs []float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	var s float64
	for _, v := range vs {
		s += v
	}
	return s / float64(len(vs))
}

// SortedKeys returns the keys of m in sorted order, for deterministic
// iteration when printing per-benchmark results.
func SortedKeys[V any](m map[string]V) []string {
	ks := make([]string, 0, len(m))
	for k := range m {
		ks = append(ks, k)
	}
	sort.Strings(ks)
	return ks
}

// BarChart renders labelled horizontal bars scaled to width characters,
// the terminal stand-in for the paper's bar figures. A reference value
// (e.g. the baseline's 1.0) is marked with '|' when it falls inside the
// plotted range.
func BarChart(title string, labels []string, values []float64, reference float64, width int) string {
	if width <= 0 {
		width = 50
	}
	var b strings.Builder
	if title != "" {
		fmt.Fprintf(&b, "%s\n", title)
	}
	maxVal := reference
	labW := 0
	for i, v := range values {
		if v > maxVal {
			maxVal = v
		}
		if i < len(labels) && len(labels[i]) > labW {
			labW = len(labels[i])
		}
	}
	if maxVal <= 0 {
		maxVal = 1
	}
	refCol := int(reference / maxVal * float64(width))
	for i, v := range values {
		label := ""
		if i < len(labels) {
			label = labels[i]
		}
		n := int(v / maxVal * float64(width))
		if n < 0 {
			n = 0
		}
		bar := make([]byte, width+1)
		for j := range bar {
			switch {
			case j < n:
				bar[j] = '#'
			case j == refCol && reference > 0:
				bar[j] = '|'
			default:
				bar[j] = ' '
			}
		}
		fmt.Fprintf(&b, "  %-*s %s %.3f\n", labW, label, string(bar), v)
	}
	return b.String()
}
