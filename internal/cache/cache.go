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
//
// Line state lives in flat parallel slices indexed set*ways+way, so a
// probe scans ways consecutive tags (one 64-byte host line for the
// 8-way LLC). Data values are not modelled, only placement, dirtiness
// and the per-line metadata byte used by the adaptive critical-word
// scheme (§4.2.5: a 3-bit critical word tag).
type Cache struct {
	tags    []uint64 // lineAddr+1 of a valid line; 0 = invalid
	lru     []uint64 // larger = more recently used
	dirty   []bool
	meta    []uint8
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
	n := nsets * ways
	return &Cache{
		tags: make([]uint64, n), lru: make([]uint64, n),
		dirty: make([]bool, n), meta: make([]uint8, n),
		ways: ways, setMask: uint64(nsets - 1),
	}
}

// Sets and Ways report the geometry.
func (c *Cache) Sets() int { return len(c.tags) / c.ways }

// Ways reports the associativity.
func (c *Cache) Ways() int { return c.ways }

// find returns the slot holding lineAddr, or -1.
func (c *Cache) find(lineAddr uint64) int {
	base := int(lineAddr&c.setMask) * c.ways
	tag := lineAddr + 1
	for i, t := range c.tags[base : base+c.ways] {
		if t == tag {
			return base + i
		}
	}
	return -1
}

// hit refreshes slot i's LRU and, when write is set, dirties it.
func (c *Cache) hit(i int, write bool) {
	c.tick++
	c.lru[i] = c.tick
	if write {
		c.dirty[i] = true
	}
	c.Stat.Hits++
}

// Lookup probes for a line; on a hit it refreshes LRU and, when write
// is set, marks the line dirty.
func (c *Cache) Lookup(lineAddr uint64, write bool) bool {
	if i := c.find(lineAddr); i >= 0 {
		c.hit(i, write)
		return true
	}
	c.Stat.Misses++
	return false
}

// Contains probes without touching LRU, dirtiness or stats.
func (c *Cache) Contains(lineAddr uint64) bool { return c.find(lineAddr) >= 0 }

// Insert places a line, evicting the LRU way if the set is full. The
// eviction (if any) is returned so the caller can write back dirty data
// and maintain inclusion.
func (c *Cache) Insert(lineAddr uint64, dirty bool, meta uint8) (Eviction, bool) {
	if i := c.find(lineAddr); i >= 0 {
		// Already present (racing fills): refresh.
		c.tick++
		c.lru[i] = c.tick
		c.dirty[i] = c.dirty[i] || dirty
		c.meta[i] = meta
		return Eviction{}, false
	}
	return c.install(lineAddr, dirty, meta)
}

// LookupOrInsert is one probe for a functional access: on a hit it
// does what Lookup does (LRU refresh, dirty on write, a counted hit);
// on a miss it installs the line as Insert does, counting no miss.
func (c *Cache) LookupOrInsert(lineAddr uint64, write bool, meta uint8) (Eviction, bool) {
	if i := c.find(lineAddr); i >= 0 {
		c.hit(i, write)
		return Eviction{}, false
	}
	return c.install(lineAddr, write, meta)
}

// install places an absent line in the first invalid way of its set,
// else in its least recently used way.
func (c *Cache) install(lineAddr uint64, dirty bool, meta uint8) (Eviction, bool) {
	base := int(lineAddr&c.setMask) * c.ways
	tags, lru := c.tags[base:base+c.ways], c.lru[base:base+c.ways]
	victim := 0
	for i, t := range tags {
		if t == 0 {
			victim = i
			break
		}
		if lru[i] < lru[victim] {
			victim = i
		}
	}
	v := base + victim
	var ev Eviction
	evicted := tags[victim] != 0
	if evicted {
		ev = Eviction{LineAddr: tags[victim] - 1, Dirty: c.dirty[v], Meta: c.meta[v]}
		c.Stat.Evictions++
		if ev.Dirty {
			c.Stat.Writebacks++
		}
	}
	c.tick++
	tags[victim], lru[victim], c.dirty[v], c.meta[v] = lineAddr+1, c.tick, dirty, meta
	return ev, evicted
}

// MarkDirty sets a resident line's dirty bit without touching LRU state
// or hit/miss statistics (used for write-backs from an inner cache).
func (c *Cache) MarkDirty(lineAddr uint64) bool {
	if i := c.find(lineAddr); i >= 0 {
		c.dirty[i] = true
		return true
	}
	return false
}

// Invalidate drops a line, reporting whether it was present and dirty.
func (c *Cache) Invalidate(lineAddr uint64) (present, dirty bool) {
	if i := c.find(lineAddr); i >= 0 {
		c.tags[i] = 0
		return true, c.dirty[i]
	}
	return false, false
}

// Meta reads the metadata byte of a resident line.
func (c *Cache) Meta(lineAddr uint64) (uint8, bool) {
	if i := c.find(lineAddr); i >= 0 {
		return c.meta[i], true
	}
	return 0, false
}

// SetMeta updates the metadata byte of a resident line.
func (c *Cache) SetMeta(lineAddr uint64, meta uint8) bool {
	if i := c.find(lineAddr); i >= 0 {
		c.meta[i] = meta
		return true
	}
	return false
}

// Snapshot is a copy of a cache's resident lines, to be restored into
// fresh caches of the same geometry. It holds only the valid lines,
// each with its slot, so a restore costs time in proportion to them
// rather than to the cache's capacity.
type Snapshot struct {
	lines []snapLine
	tick  uint64
	stat  Stats
}

// snapLine is one resident line of a Snapshot.
type snapLine struct {
	tag, lru uint64
	slot     int32 // set*ways + way
	dirty    bool
	meta     uint8
}

// Snapshot copies the cache's resident lines, LRU clock and stats.
func (c *Cache) Snapshot() Snapshot {
	n := 0
	for _, t := range c.tags {
		if t != 0 {
			n++
		}
	}
	s := Snapshot{lines: make([]snapLine, 0, n), tick: c.tick, stat: c.Stat}
	for i, t := range c.tags {
		if t != 0 {
			s.lines = append(s.lines, snapLine{tag: t, lru: c.lru[i], slot: int32(i), dirty: c.dirty[i], meta: c.meta[i]})
		}
	}
	return s
}

// Restore installs s into c, which must be empty and of the geometry s
// was taken from. s is only read, so one snapshot may be restored into
// many caches at once.
func (c *Cache) Restore(s Snapshot) {
	for _, l := range s.lines {
		c.tags[l.slot], c.lru[l.slot], c.dirty[l.slot], c.meta[l.slot] = l.tag, l.lru, l.dirty, l.meta
	}
	c.tick = s.tick
	c.Stat = s.stat
}
