package cache

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestAddressHelpers(t *testing.T) {
	if LineAddr(0) != 0 || LineAddr(63) != 0 || LineAddr(64) != 1 {
		t.Fatal("LineAddr wrong")
	}
	if WordIndex(0) != 0 || WordIndex(8) != 1 || WordIndex(63) != 7 || WordIndex(64) != 0 {
		t.Fatal("WordIndex wrong")
	}
}

func TestGeometry(t *testing.T) {
	l1 := New(32*1024, 2) // Table 1 L1
	if l1.Sets() != 256 || l1.Ways() != 2 {
		t.Fatalf("L1 geometry %dx%d", l1.Sets(), l1.Ways())
	}
	l2 := New(4*1024*1024, 8) // Table 1 L2
	if l2.Sets() != 8192 || l2.Ways() != 8 {
		t.Fatalf("L2 geometry %dx%d", l2.Sets(), l2.Ways())
	}
}

func TestNewValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("non-power-of-two sets did not panic")
		}
	}()
	New(3*LineSize, 1)
}

func TestMissThenHit(t *testing.T) {
	c := New(1024, 2)
	if c.Lookup(5, false) {
		t.Fatal("hit in empty cache")
	}
	c.Insert(5, false, 0)
	if !c.Lookup(5, false) {
		t.Fatal("miss after insert")
	}
	if c.Stat.Hits != 1 || c.Stat.Misses != 1 {
		t.Fatalf("stats %+v", c.Stat)
	}
}

func TestLRUEviction(t *testing.T) {
	c := New(2*LineSize, 2) // one set, two ways
	c.Insert(0, false, 0)
	c.Insert(1, false, 0)
	c.Lookup(0, false) // make 0 most recent
	ev, evicted := c.Insert(2, false, 0)
	if !evicted || ev.LineAddr != 1 {
		t.Fatalf("evicted %+v (flag %v), want line 1", ev, evicted)
	}
	if !c.Contains(0) || !c.Contains(2) || c.Contains(1) {
		t.Fatal("wrong resident set after eviction")
	}
}

func TestDirtyEvictionReported(t *testing.T) {
	c := New(2*LineSize, 2)
	c.Insert(0, false, 0)
	c.Lookup(0, true) // dirty it
	c.Insert(1, false, 0)
	c.Lookup(1, false)
	ev, _ := c.Insert(2, false, 0) // evicts 0 (LRU)
	if ev.LineAddr != 0 || !ev.Dirty {
		t.Fatalf("eviction %+v, want dirty line 0", ev)
	}
	if c.Stat.Writebacks != 1 {
		t.Fatalf("writebacks = %d", c.Stat.Writebacks)
	}
}

func TestInsertExistingMergesDirty(t *testing.T) {
	c := New(1024, 2)
	c.Insert(7, true, 3)
	if _, evicted := c.Insert(7, false, 5); evicted {
		t.Fatal("re-insert evicted something")
	}
	meta, ok := c.Meta(7)
	if !ok || meta != 5 {
		t.Fatalf("meta = %d, %v", meta, ok)
	}
	// Dirtiness must not be lost by the clean re-insert.
	_, dirty := c.Invalidate(7)
	if !dirty {
		t.Fatal("dirty bit lost on re-insert")
	}
}

func TestInvalidate(t *testing.T) {
	c := New(1024, 2)
	c.Insert(9, true, 0)
	present, dirty := c.Invalidate(9)
	if !present || !dirty {
		t.Fatalf("invalidate = %v,%v", present, dirty)
	}
	if c.Contains(9) {
		t.Fatal("line survived invalidate")
	}
	if p, _ := c.Invalidate(9); p {
		t.Fatal("double invalidate reported present")
	}
}

func TestMetaRoundTrip(t *testing.T) {
	c := New(1024, 2)
	if _, ok := c.Meta(1); ok {
		t.Fatal("meta of absent line")
	}
	c.Insert(1, false, 0)
	if !c.SetMeta(1, 6) {
		t.Fatal("SetMeta failed")
	}
	if m, _ := c.Meta(1); m != 6 {
		t.Fatalf("meta = %d", m)
	}
	if c.SetMeta(2, 1) {
		t.Fatal("SetMeta on absent line succeeded")
	}
}

// Property: the cache never holds more lines than its capacity and a
// just-inserted line is always resident.
func TestCapacityInvariantProperty(t *testing.T) {
	f := func(addrs []uint16) bool {
		c := New(16*LineSize, 4)
		resident := map[uint64]bool{}
		for _, a := range addrs {
			la := uint64(a)
			ev, evicted := c.Insert(la, false, 0)
			resident[la] = true
			if evicted {
				delete(resident, ev.LineAddr)
			}
			if !c.Contains(la) {
				return false
			}
			if len(resident) > 16 {
				return false
			}
		}
		for la := range resident {
			if !c.Contains(la) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// Property: LRU never evicts the most recently used line of a set.
func TestLRUNeverEvictsMRUProperty(t *testing.T) {
	f := func(addrs []uint8) bool {
		c := New(4*LineSize, 4) // single set
		var last uint64
		havePrev := false
		for _, a := range addrs {
			la := uint64(a)
			ev, evicted := c.Insert(la, false, 0)
			if evicted && havePrev && ev.LineAddr == last && last != la {
				return false
			}
			last = la
			havePrev = true
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestMSHRLifecycle(t *testing.T) {
	m := NewMSHR(2)
	if m.Full() {
		t.Fatal("empty MSHR full")
	}
	e := m.Alloc(10, false, false, 3, 0)
	if e.MissWord != 3 || e.CritWord != 0 {
		t.Fatalf("entry %+v", e)
	}
	if got, ok := m.Lookup(10); !ok || got != e {
		t.Fatal("lookup failed")
	}
	m.Merge(e, Waiter{Core: 1, Word: 5})
	if len(e.Waiters) != 1 || m.Merges != 1 {
		t.Fatal("merge not recorded")
	}
	m.Alloc(11, true, false, 0, 0)
	if !m.Full() {
		t.Fatal("MSHR not full at capacity")
	}
	m.Free(10)
	if m.Full() || m.Occupancy() != 1 {
		t.Fatal("free did not release")
	}
	if m.PeakOccupancy != 2 {
		t.Fatalf("peak = %d", m.PeakOccupancy)
	}
}

func TestMSHROverflowPanics(t *testing.T) {
	m := NewMSHR(1)
	m.Alloc(1, false, false, 0, 0)
	defer func() {
		if recover() == nil {
			t.Fatal("overflow alloc did not panic")
		}
	}()
	m.Alloc(2, false, false, 0, 0)
}

func TestMSHRDuplicatePanics(t *testing.T) {
	m := NewMSHR(2)
	m.Alloc(1, false, false, 0, 0)
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate alloc did not panic")
		}
	}()
	m.Alloc(1, false, false, 0, 0)
}

func TestMSHRFreeUnknownPanics(t *testing.T) {
	m := NewMSHR(2)
	defer func() {
		if recover() == nil {
			t.Fatal("free of unknown entry did not panic")
		}
	}()
	m.Free(42)
}

func TestEntryDone(t *testing.T) {
	e := &Entry{}
	if e.Done() {
		t.Fatal("fresh entry done")
	}
	e.CritArrived = true
	if e.Done() {
		t.Fatal("half-arrived entry done")
	}
	e.LineArrived = true
	if !e.Done() {
		t.Fatal("complete entry not done")
	}
}

// refLine and refCache are the cache as it was written before its
// flat tag arrays: a [][]line of records with a valid bit. They are the
// reference TestCacheMatchesReferenceModel holds the flat layout to.
type refLine struct {
	tag   uint64
	valid bool
	dirty bool
	meta  uint8
	lru   uint64
}

type refCache struct {
	sets    [][]refLine
	setMask uint64
	tick    uint64
	stat    Stats
}

type refSnapshot struct {
	slots []int
	lines []refLine
	tick  uint64
	stat  Stats
}

func newRefCache(capacityBytes, ways int) *refCache {
	nsets := capacityBytes / LineSize / ways
	r := &refCache{sets: make([][]refLine, nsets), setMask: uint64(nsets - 1)}
	backing := make([]refLine, nsets*ways)
	for i := range r.sets {
		r.sets[i], backing = backing[:ways], backing[ways:]
	}
	return r
}

func (r *refCache) find(la uint64) *refLine {
	set := r.sets[la&r.setMask]
	for i := range set {
		if set[i].valid && set[i].tag == la {
			return &set[i]
		}
	}
	return nil
}

func (r *refCache) lookup(la uint64, write bool) bool {
	if l := r.find(la); l != nil {
		r.tick++
		l.lru = r.tick
		if write {
			l.dirty = true
		}
		r.stat.Hits++
		return true
	}
	r.stat.Misses++
	return false
}

func (r *refCache) insert(la uint64, dirty bool, meta uint8) (Eviction, bool) {
	if l := r.find(la); l != nil {
		r.tick++
		l.lru = r.tick
		l.dirty = l.dirty || dirty
		l.meta = meta
		return Eviction{}, false
	}
	set := r.sets[la&r.setMask]
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
		r.stat.Evictions++
		if ev.Dirty {
			r.stat.Writebacks++
		}
	}
	r.tick++
	set[victim] = refLine{tag: la, valid: true, dirty: dirty, meta: meta, lru: r.tick}
	return ev, evicted
}

// lookupOrInsert is the prewarm probe as it was spelled: Contains,
// then Lookup on a hit or Insert on a miss.
func (r *refCache) lookupOrInsert(la uint64, write bool, meta uint8) (Eviction, bool) {
	if r.find(la) != nil {
		r.lookup(la, write)
		return Eviction{}, false
	}
	return r.insert(la, write, meta)
}

func (r *refCache) snapshot() refSnapshot {
	s := refSnapshot{tick: r.tick, stat: r.stat}
	for si, set := range r.sets {
		for w, l := range set {
			if l.valid {
				s.slots = append(s.slots, si*len(set)+w)
				s.lines = append(s.lines, l)
			}
		}
	}
	return s
}

func (r *refCache) restore(s refSnapshot) {
	ways := len(r.sets[0])
	for i, slot := range s.slots {
		r.sets[slot/ways][slot%ways] = s.lines[i]
	}
	r.tick, r.stat = s.tick, s.stat
}

// The flat cache must behave exactly like the record-based reference
// under a random mix of every operation, a snapshot restored into a
// fresh cache included, on the L1 and LLC geometries. Addresses come
// from the first two sets and the last (so sets fill and evict, and
// the highest slot is used) and include line 0, whose tag would read
// as invalid without the +1 offset.
func TestCacheMatchesReferenceModel(t *testing.T) {
	for _, geo := range []struct{ bytes, ways int }{{32 * 1024, 2}, {4 * 1024 * 1024, 8}} {
		rng := rand.New(rand.NewSource(int64(geo.ways)))
		c, r := New(geo.bytes, geo.ways), newRefCache(geo.bytes, geo.ways)
		nsets := uint64(c.Sets())
		sets := []uint64{0, 1, nsets - 1}
		addrs := []uint64{0}
		for len(addrs) < 6*geo.ways {
			addrs = append(addrs, uint64(rng.Intn(3*geo.ways))*nsets+sets[rng.Intn(len(sets))])
		}
		for step := 0; step < 100000; step++ {
			la := addrs[rng.Intn(len(addrs))]
			write, meta := rng.Intn(2) == 0, uint8(rng.Intn(256))
			var got, want any
			// One step in 500 restores a snapshot into fresh caches.
			switch op := rng.Intn(1000); {
			case op < 200:
				got, want = c.Lookup(la, write), r.lookup(la, write)
			case op < 300:
				got, want = c.Contains(la), r.find(la) != nil
			case op < 500:
				ev, ok := c.Insert(la, write, meta)
				rev, rok := r.insert(la, write, meta)
				got, want = [2]any{ev, ok}, [2]any{rev, rok}
			case op < 750:
				ev, ok := c.LookupOrInsert(la, write, meta)
				rev, rok := r.lookupOrInsert(la, write, meta)
				got, want = [2]any{ev, ok}, [2]any{rev, rok}
			case op < 820:
				p, d := c.Invalidate(la)
				var rp, rd bool
				if l := r.find(la); l != nil {
					l.valid, rp, rd = false, true, l.dirty
				}
				got, want = [2]bool{p, d}, [2]bool{rp, rd}
			case op < 880:
				var rok bool
				if l := r.find(la); l != nil {
					l.dirty, rok = true, true
				}
				got, want = c.MarkDirty(la), rok
			case op < 930:
				m, ok := c.Meta(la)
				var rm uint8
				l := r.find(la)
				if l != nil {
					rm = l.meta
				}
				got, want = [2]any{m, ok}, [2]any{rm, l != nil}
			case op < 998:
				var rok bool
				if l := r.find(la); l != nil {
					l.meta, rok = meta, true
				}
				got, want = c.SetMeta(la, meta), rok
			default:
				fresh, freshRef := New(geo.bytes, geo.ways), newRefCache(geo.bytes, geo.ways)
				fresh.Restore(c.Snapshot())
				freshRef.restore(r.snapshot())
				c, r = fresh, freshRef
			}
			if got != want {
				t.Fatalf("%d-way step %d line %d: got %v, reference %v", geo.ways, step, la, got, want)
			}
			if c.Stat != r.stat {
				t.Fatalf("%d-way step %d: stats %+v, reference %+v", geo.ways, step, c.Stat, r.stat)
			}
		}
		for _, la := range addrs {
			m, ok := c.Meta(la)
			if l := r.find(la); ok != (l != nil) || ok && m != l.meta {
				t.Fatalf("%d-way: line %d resident %v meta %d at the end, reference %+v", geo.ways, la, ok, m, l)
			}
		}
	}
}
