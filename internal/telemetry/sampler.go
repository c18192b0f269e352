package telemetry

import "hetsim/internal/sim"

// Sampler turns a registry into a per-epoch time-series: every
// Interval cycles it reads all probes, converts the (prev, cur)
// snapshot pair into one row of float64s according to each metric's
// Mode, and appends the row to its Series. Both snapshots and the row
// scratch are preallocated at Reset, so steady-state ticking allocates
// only what the series' amortized append grows by.
//
// The core System calls Tick from its own drive loop at exact epoch
// boundaries, which keeps the engine queue free of recurring events
// that would mask the deadlock watchdog.
type Sampler struct {
	reg      *Registry
	interval sim.Cycle
	series   Series
	prev     Snapshot
	cur      Snapshot
	row      []float64
}

// NewSampler creates a sampler over reg with the given epoch interval.
// Call Reset before the measured window starts.
func NewSampler(reg *Registry, interval sim.Cycle) *Sampler {
	if interval <= 0 {
		panic("telemetry: epoch interval must be positive")
	}
	return &Sampler{reg: reg, interval: interval}
}

// Interval reports the epoch length in cycles.
func (s *Sampler) Interval() sim.Cycle { return s.interval }

// Reset begins a sampling window at now: the series takes the column
// list, the baseline snapshot is taken, and all row storage is sized.
func (s *Sampler) Reset(now sim.Cycle) {
	s.series = Series{Cols: s.reg.Names()}
	s.row = make([]float64, s.reg.Len())
	s.reg.ReadInto(now, &s.prev)
	s.reg.ReadInto(now, &s.cur) // size cur's storage up front
}

// Tick closes the epoch ending at now: it reads all probes, fills the
// row, and appends it to the series.
func (s *Sampler) Tick(now sim.Cycle) {
	s.fillRow(now)
	s.series.Cycles = append(s.series.Cycles, now)
	s.series.Data = append(s.series.Data, s.row...)
}

// fillRow reads all probes at now into the row scratch and makes the
// new snapshot the baseline of the next epoch. It never allocates.
func (s *Sampler) fillRow(now sim.Cycle) {
	s.reg.ReadInto(now, &s.cur)
	elapsed := float64(s.cur.Cycle - s.prev.Cycle)
	for i, m := range s.reg.metrics {
		p, sec := s.cur.vals[2*i], s.cur.vals[2*i+1]
		pp, psec := s.prev.vals[2*i], s.prev.vals[2*i+1]
		switch m.Mode {
		case ModeDelta:
			s.row[i] = p - pp
		case ModeLevel:
			s.row[i] = p
		case ModeRate:
			if elapsed > 0 {
				s.row[i] = (p - pp) / elapsed
			} else {
				s.row[i] = 0
			}
		case ModeWindowMean:
			if dn := sec - psec; dn > 0 {
				s.row[i] = (p - pp) / dn
			} else {
				s.row[i] = 0
			}
		}
	}
	s.prev, s.cur = s.cur, s.prev
}

// Series hands over the window's recorded series. The caller owns it;
// the next Reset starts a fresh one.
func (s *Sampler) Series() *Series {
	out := s.series
	s.series = Series{}
	return &out
}
