// Package cache provides the on-chip cache substrate of Table 1: the
// generic set-associative write-back cache used for the private 32KB
// 2-way L1s and the shared 4MB 8-way L2/LLC, plus the LLC miss-status
// holding registers (MSHRs) that merge secondary misses and drive the
// split-transaction critical-word protocol in internal/core.
package cache

// LineSize is the cache line size in bytes (Table 1).
const LineSize = 64

// WordsPerLine is the number of 8-byte words per line.
const WordsPerLine = 8

// LineAddr converts a byte address to a line address.
func LineAddr(byteAddr uint64) uint64 { return byteAddr / LineSize }

// WordIndex extracts which of the 8 words a byte address touches.
func WordIndex(byteAddr uint64) int { return int(byteAddr / 8 % WordsPerLine) }

// line is one cache line's bookkeeping. Data values are not modelled —
// only placement, dirtiness and the per-line metadata byte used by the
// adaptive critical-word scheme (§4.2.5: a 3-bit critical word tag).
type line struct {
	tag   uint64
	valid bool
	dirty bool
	meta  uint8
	lru   uint64 // larger = more recently used
}

// Eviction describes a victim pushed out by Insert.
type Eviction struct {
	LineAddr uint64
	Dirty    bool
	Meta     uint8
}

// Stats counts cache events.
type Stats struct {
	Hits       uint64
	Misses     uint64
	Evictions  uint64
	Writebacks uint64
}

// Cache is a set-associative, write-back, write-allocate cache with
// true-LRU replacement. It tracks placement only; the simulator's
// timing comes from who consults it and when. Not safe for concurrent
// use (the simulator is single-threaded).
type Cache struct {
	sets    [][]line
	ways    int
	setMask uint64
	tick    uint64
	Stat    Stats
}

// New builds a cache of capacityBytes with the given associativity.
// The set count must come out a power of two.
func New(capacityBytes, ways int) *Cache {
	lines := capacityBytes / LineSize
	nsets := lines / ways
	if nsets <= 0 || nsets&(nsets-1) != 0 {
		panic("cache: set count must be a positive power of two")
	}
	sets := make([][]line, nsets)
	backing := make([]line, nsets*ways)
	for i := range sets {
		sets[i], backing = backing[:ways], backing[ways:]
	}
	return &Cache{sets: sets, ways: ways, setMask: uint64(nsets - 1)}
}

// Sets and Ways report the geometry.
func (c *Cache) Sets() int { return len(c.sets) }

// Ways reports the associativity.
func (c *Cache) Ways() int { return c.ways }

func (c *Cache) find(lineAddr uint64) *line {
	set := c.sets[lineAddr&c.setMask]
	tag := lineAddr >> 0
	for i := range set {
		if set[i].valid && set[i].tag == tag {
			return &set[i]
		}
	}
	return nil
}

// Lookup probes for a line; on a hit it refreshes LRU and, when write
// is set, marks the line dirty.
func (c *Cache) Lookup(lineAddr uint64, write bool) bool {
	if l := c.find(lineAddr); l != nil {
		c.tick++
		l.lru = c.tick
		if write {
			l.dirty = true
		}
		c.Stat.Hits++
		return true
	}
	c.Stat.Misses++
	return false
}

// Contains probes without touching LRU, dirtiness or stats.
func (c *Cache) Contains(lineAddr uint64) bool { return c.find(lineAddr) != nil }

// Insert places a line, evicting the LRU way if the set is full. The
// eviction (if any) is returned so the caller can write back dirty data
// and maintain inclusion.
func (c *Cache) Insert(lineAddr uint64, dirty bool, meta uint8) (Eviction, bool) {
	if l := c.find(lineAddr); l != nil {
		// Already present (racing fills): refresh.
		c.tick++
		l.lru = c.tick
		l.dirty = l.dirty || dirty
		l.meta = meta
		return Eviction{}, false
	}
	set := c.sets[lineAddr&c.setMask]
	victim := 0
	for i := range set {
		if !set[i].valid {
			victim = i
			break
		}
		if set[i].lru < set[victim].lru {
			victim = i
		}
	}
	var ev Eviction
	evicted := false
	if set[victim].valid {
		ev = Eviction{LineAddr: set[victim].tag, Dirty: set[victim].dirty, Meta: set[victim].meta}
		evicted = true
		c.Stat.Evictions++
		if ev.Dirty {
			c.Stat.Writebacks++
		}
	}
	c.tick++
	set[victim] = line{tag: lineAddr, valid: true, dirty: dirty, meta: meta, lru: c.tick}
	return ev, evicted
}

// MarkDirty sets a resident line's dirty bit without touching LRU state
// or hit/miss statistics (used for write-backs from an inner cache).
func (c *Cache) MarkDirty(lineAddr uint64) bool {
	if l := c.find(lineAddr); l != nil {
		l.dirty = true
		return true
	}
	return false
}

// Invalidate drops a line, reporting whether it was present and dirty.
func (c *Cache) Invalidate(lineAddr uint64) (present, dirty bool) {
	if l := c.find(lineAddr); l != nil {
		l.valid = false
		return true, l.dirty
	}
	return false, false
}

// Meta reads the metadata byte of a resident line.
func (c *Cache) Meta(lineAddr uint64) (uint8, bool) {
	if l := c.find(lineAddr); l != nil {
		return l.meta, true
	}
	return 0, false
}

// SetMeta updates the metadata byte of a resident line.
func (c *Cache) SetMeta(lineAddr uint64, meta uint8) bool {
	if l := c.find(lineAddr); l != nil {
		l.meta = meta
		return true
	}
	return false
}

// Snapshot is a copy of a cache's resident lines, to be restored into
// fresh caches of the same geometry. It holds only the valid lines,
// each with its slot, so a restore costs time in proportion to them
// rather than to the cache's capacity.
type Snapshot struct {
	slots []int32 // set*ways + way of each line
	lines []line
	tick  uint64
	stat  Stats
}

// Snapshot copies the cache's resident lines, LRU clock and stats.
func (c *Cache) Snapshot() Snapshot {
	n := 0
	for _, set := range c.sets {
		for _, l := range set {
			if l.valid {
				n++
			}
		}
	}
	s := Snapshot{slots: make([]int32, 0, n), lines: make([]line, 0, n), tick: c.tick, stat: c.Stat}
	for si, set := range c.sets {
		for w, l := range set {
			if l.valid {
				s.slots = append(s.slots, int32(si*c.ways+w))
				s.lines = append(s.lines, l)
			}
		}
	}
	return s
}

// Restore installs s into c, which must be empty and of the geometry s
// was taken from. s is only read, so one snapshot may be restored into
// many caches at once.
func (c *Cache) Restore(s Snapshot) {
	for i, slot := range s.slots {
		c.sets[int(slot)/c.ways][int(slot)%c.ways] = s.lines[i]
	}
	c.tick = s.tick
	c.Stat = s.stat
}

// MissRate reports misses / (hits+misses), 0 when no accesses.
func (s Stats) MissRate() float64 {
	t := s.Hits + s.Misses
	if t == 0 {
		return 0
	}
	return float64(s.Misses) / float64(t)
}
