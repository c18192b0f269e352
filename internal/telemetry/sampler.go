package telemetry

import "hetsim/internal/sim"

// Sampler turns a registry into a per-epoch time-series: every
// Interval cycles it reads all probes, converts the (prev, cur)
// snapshot pair into one row of float64s according to each metric's
// Mode, and hands the row to every sink. All storage — both
// snapshots and the row — is preallocated at Reset, so steady-state
// ticking allocates only what the sinks' amortized buffers grow by.
//
// The core System calls Tick from its own drive loop at exact epoch
// boundaries, which keeps the engine queue free of recurring events
// that would mask the deadlock watchdog.
type Sampler struct {
	reg      *Registry
	interval sim.Cycle
	sinks    []Sink
	prev     Snapshot
	cur      Snapshot
	row      []float64
}

// NewSampler creates a sampler over reg with the given epoch interval.
// Call Reset before the measured window starts.
func NewSampler(reg *Registry, interval sim.Cycle, sinks ...Sink) *Sampler {
	if interval <= 0 {
		panic("telemetry: epoch interval must be positive")
	}
	return &Sampler{reg: reg, interval: interval, sinks: sinks}
}

// Interval reports the epoch length in cycles.
func (s *Sampler) Interval() sim.Cycle { return s.interval }

// AddSink appends a sink; must be called before Reset.
func (s *Sampler) AddSink(k Sink) { s.sinks = append(s.sinks, k) }

// Reset begins a sampling window at now: sinks receive the column
// list, the baseline snapshot is taken, and all row storage is sized.
func (s *Sampler) Reset(now sim.Cycle) {
	cols := s.reg.Names()
	for _, k := range s.sinks {
		k.Begin(cols)
	}
	s.row = make([]float64, s.reg.Len())
	s.reg.ReadInto(now, &s.prev)
	s.reg.ReadInto(now, &s.cur) // size cur's storage up front
}

// Tick closes the epoch ending at now: it reads all probes, fills the
// row, and feeds it to every sink. Sinks must not retain the row.
func (s *Sampler) Tick(now sim.Cycle) {
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
	for _, k := range s.sinks {
		k.Sample(now, s.row)
	}
	s.prev, s.cur = s.cur, s.prev
}

// Flush drains every sink, outside the timed path. The first error
// wins; all sinks are still flushed.
func (s *Sampler) Flush() error {
	var first error
	for _, k := range s.sinks {
		if err := k.Flush(); err != nil && first == nil {
			first = err
		}
	}
	return first
}
