// Package telemetry is the simulator's unified metrics layer: a typed
// registry that components self-register into at construction time, an
// epoch sampler that records registry snapshots as a per-epoch
// time-series, allocating only its amortized growth, and CSV and JSONL
// writers for that series, used after the run.
//
// The registry holds *probes*, not storage: components keep their
// plain counter fields and hot-path increments exactly as before, and
// register typed references (a *uint64, a *stats.Mean, a gauge
// closure) under stable dotted names. Reading a probe is a pointer
// dereference or a closure call — registration is the only moment
// that allocates.
package telemetry

import (
	"fmt"

	"hetsim/internal/sim"
	"hetsim/internal/stats"
)

// Mode says how the sampler turns two successive snapshots of a metric
// into one epoch-row value, and how collect-style views interpret it.
type Mode uint8

const (
	// ModeDelta reports the increase of a cumulative quantity over the
	// epoch (counters, accumulated energy, state-cycle totals).
	ModeDelta Mode = iota
	// ModeLevel reports the instantaneous value at the epoch boundary
	// (queue depths, MSHR occupancy).
	ModeLevel
	// ModeRate reports the epoch delta divided by elapsed cycles
	// (retired instructions -> IPC).
	ModeRate
	// ModeWindowMean reports delta(sum)/delta(n) of a running mean or
	// histogram: the mean of only the samples recorded this epoch.
	ModeWindowMean
)

// Metric is one registered probe. read returns the primary value and a
// secondary count (zero except for means/histograms, where the window
// mean needs both the sum and the sample count).
type Metric struct {
	Name string
	Mode Mode
	read func() (primary, secondary float64)
}

// Registry is an ordered collection of named probes. Registration
// order is sampling and column order, so it must be deterministic;
// NewSystem registers components in a fixed sequence. Duplicate names
// panic — they are construction bugs, not runtime conditions.
type Registry struct {
	metrics []Metric
	index   map[string]int
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{index: make(map[string]int)}
}

func (r *Registry) add(name string, mode Mode, read func() (float64, float64)) {
	if name == "" {
		panic("telemetry: empty metric name")
	}
	if _, dup := r.index[name]; dup {
		panic(fmt.Sprintf("telemetry: duplicate metric %q", name))
	}
	r.index[name] = len(r.metrics)
	r.metrics = append(r.metrics, Metric{Name: name, Mode: mode, read: read})
}

// Counter registers a cumulative uint64 counter; epochs report its
// delta. The component keeps owning and incrementing the field.
func (r *Registry) Counter(name string, c *uint64) {
	r.add(name, ModeDelta, func() (float64, float64) { return float64(*c), 0 })
}

// CounterRate registers a cumulative uint64 counter whose epoch value
// is delta/elapsed-cycles — e.g. retired instructions read as IPC.
func (r *Registry) CounterRate(name string, c *uint64) {
	r.add(name, ModeRate, func() (float64, float64) { return float64(*c), 0 })
}

// Gauge registers an instantaneous level read through a closure.
func (r *Registry) Gauge(name string, f func() float64) {
	r.add(name, ModeLevel, func() (float64, float64) { return f(), 0 })
}

// Accum registers a cumulative quantity read through a closure (an
// aggregate over sub-components, or a derived total like energy);
// epochs report its delta.
func (r *Registry) Accum(name string, f func() float64) {
	r.add(name, ModeDelta, func() (float64, float64) { return f(), 0 })
}

// Mean registers a stats.Mean; epochs report the mean of just that
// window's samples (delta sum / delta n).
func (r *Registry) Mean(name string, m *stats.Mean) {
	r.add(name, ModeWindowMean, func() (float64, float64) { return m.Sum(), float64(m.N()) })
}

// MeanFunc registers a window-mean metric whose running (sum, n) pair
// is computed by a closure — an aggregate over several stats.Means,
// e.g. the queue latency summed across every memory controller.
func (r *Registry) MeanFunc(name string, f func() (sum, n float64)) {
	r.add(name, ModeWindowMean, f)
}

// Histogram registers a stats.Histogram; epochs report the window mean
// of its samples.
func (r *Registry) Histogram(name string, h *stats.Histogram) {
	r.add(name, ModeWindowMean, func() (float64, float64) { return h.Sum(), float64(h.Total()) })
}

// Len reports the number of registered metrics.
func (r *Registry) Len() int { return len(r.metrics) }

// Names returns the metric names in registration order (a copy).
func (r *Registry) Names() []string {
	ns := make([]string, len(r.metrics))
	for i, m := range r.metrics {
		ns[i] = m.Name
	}
	return ns
}

// Snapshot is one atomic reading of every probe: two float64 per
// metric (primary, secondary) plus the cycle it was taken at.
type Snapshot struct {
	Cycle sim.Cycle
	vals  []float64 // 2*len(metrics): primary at 2i, secondary at 2i+1
}

// Snapshot reads every probe, allocating the backing array. Use
// ReadInto from hot paths.
func (r *Registry) Snapshot(now sim.Cycle) Snapshot {
	s := Snapshot{vals: make([]float64, 2*len(r.metrics))}
	r.ReadInto(now, &s)
	return s
}

// ReadInto reads every probe into s, reusing its storage when already
// sized; this is the sampler's zero-allocation read path.
func (r *Registry) ReadInto(now sim.Cycle, s *Snapshot) {
	if cap(s.vals) < 2*len(r.metrics) {
		s.vals = make([]float64, 2*len(r.metrics))
	}
	s.vals = s.vals[:2*len(r.metrics)]
	s.Cycle = now
	for i := range r.metrics {
		s.vals[2*i], s.vals[2*i+1] = r.metrics[i].read()
	}
}

// View is the window between two snapshots of the same registry — the
// measured portion of a run, or one epoch. System.collect is a View
// consumer: every Results field is a delta, rate, or window mean over
// the measured window.
type View struct {
	reg        *Registry
	Start, End Snapshot
}

// NewView pairs two snapshots taken from reg.
func NewView(reg *Registry, start, end Snapshot) View {
	return View{reg: reg, Start: start, End: end}
}

// Elapsed reports the window length in cycles.
func (v View) Elapsed() sim.Cycle { return v.End.Cycle - v.Start.Cycle }

func (v View) idx(name string) int {
	i, ok := v.reg.index[name]
	if !ok {
		panic(fmt.Sprintf("telemetry: unknown metric %q", name))
	}
	return i
}

// Delta reports end-start of the metric's primary value. For counters
// below 2^53 this is exact: both readings are integer-valued float64s.
func (v View) Delta(name string) float64 {
	i := v.idx(name)
	return v.End.vals[2*i] - v.Start.vals[2*i]
}

// Count reports end-start of the metric's secondary value (the sample
// count of a mean or histogram).
func (v View) Count(name string) float64 {
	i := v.idx(name)
	return v.End.vals[2*i+1] - v.Start.vals[2*i+1]
}

// Level reports the metric's primary value at the end of the window.
func (v View) Level(name string) float64 {
	return v.End.vals[2*v.idx(name)]
}

// WindowMean reports delta(sum)/delta(n) for a mean or histogram
// metric, or 0 when the window recorded no samples.
func (v View) WindowMean(name string) float64 {
	i := v.idx(name)
	dn := v.End.vals[2*i+1] - v.Start.vals[2*i+1]
	if dn <= 0 {
		return 0
	}
	return (v.End.vals[2*i] - v.Start.vals[2*i]) / dn
}
