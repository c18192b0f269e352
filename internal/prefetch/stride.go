// Package prefetch implements the stride stream prefetcher of §5: a
// small per-core table of detected streams; on a confident stride match
// it emits prefetch candidates ahead of the miss stream. The memory
// controller deprioritizes these behind demand requests unless they age
// past a threshold (handled in internal/memctrl).
package prefetch

// stream is one tracked miss stream.
type stream struct {
	lastLine uint64
	stride   int64
	conf     int
	valid    bool
	lruTick  uint64
}

// Config tunes the prefetcher.
type Config struct {
	Streams int   // table entries
	Degree  int   // lines fetched per confident trigger
	MinConf int   // confirmations before issuing
	MaxDist int64 // |stride| beyond which we don't chase
}

// DefaultConfig matches a modest stream prefetcher (degree 2, as the
// throughput calibration against the paper's §6.1.1 prefetcher
// sensitivity requires — see EXPERIMENTS.md).
func DefaultConfig() Config {
	return Config{Streams: 8, Degree: 2, MinConf: 2, MaxDist: 8}
}

// Stats counts prefetcher events.
type Stats struct {
	Trains uint64
	Issues uint64
}

// Prefetcher is one core's stride detector. Not safe for concurrent use.
type Prefetcher struct {
	cfg     Config
	streams []stream
	tick    uint64
	Stat    Stats
}

// New builds a prefetcher; a zero Streams count disables it entirely
// (the §6.1.1 no-prefetcher ablation).
func New(cfg Config) *Prefetcher {
	return &Prefetcher{cfg: cfg, streams: make([]stream, cfg.Streams)}
}

// OnMiss trains on a demand miss at lineAddr and returns the line
// addresses to prefetch (possibly none).
func (p *Prefetcher) OnMiss(lineAddr uint64) []uint64 {
	if len(p.streams) == 0 {
		return nil
	}
	p.tick++
	// Find the stream whose last line is closest to this miss.
	best := -1
	var bestDist int64 = 1 << 62
	for i := range p.streams {
		s := &p.streams[i]
		if !s.valid {
			continue
		}
		d := int64(lineAddr) - int64(s.lastLine)
		if d < 0 {
			d = -d
		}
		if d <= p.cfg.MaxDist && d < bestDist {
			best, bestDist = i, d
		}
	}
	if best == -1 {
		// Allocate a new stream over the LRU slot.
		v := 0
		for i := range p.streams {
			if !p.streams[i].valid {
				v = i
				break
			}
			if p.streams[i].lruTick < p.streams[v].lruTick {
				v = i
			}
		}
		p.streams[v] = stream{lastLine: lineAddr, valid: true, lruTick: p.tick}
		return nil
	}
	s := &p.streams[best]
	stride := int64(lineAddr) - int64(s.lastLine)
	if stride == 0 {
		s.lruTick = p.tick
		return nil
	}
	if stride == s.stride {
		s.conf++
	} else {
		s.stride = stride
		s.conf = 1
	}
	s.lastLine = lineAddr
	s.lruTick = p.tick
	p.Stat.Trains++
	if s.conf < p.cfg.MinConf {
		return nil
	}
	out := make([]uint64, 0, p.cfg.Degree)
	next := int64(lineAddr)
	for i := 0; i < p.cfg.Degree; i++ {
		next += s.stride
		if next < 0 {
			break
		}
		out = append(out, uint64(next))
	}
	p.Stat.Issues += uint64(len(out))
	return out
}
