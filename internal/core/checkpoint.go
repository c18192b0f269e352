package core

import (
	"maps"
	"sync"

	"hetsim/internal/cache"
	"hetsim/internal/workload"
)

// CheckpointKey names a prewarm checkpoint by everything its replay
// reads: the benchmark, the core count, the run seed and the memory
// operations replayed per core (RunScale.PrewarmOps). No other field
// of a SystemConfig or RunScale changes what the replay leaves behind.
type CheckpointKey struct {
	Spec  workload.Spec
	Cores int
	Seed  uint64
	Ops   uint64
}

// Checkpoint is the machine state a functional prewarm leaves behind.
// It is built once and restored into any number of systems, which only
// read it. It holds copies, so the system it was built in shares no
// storage with it.
type Checkpoint struct {
	// llc holds the lines the replay installed in the LLC.
	llc cache.Snapshot
	// gens is each core's generator where the replay stopped
	// (workload.Generator.Checkpoint).
	gens []*workload.Generator
	// placed is the DRAM layout the replay's dirty victims left under
	// adaptive placement (§4.2.5).
	placed map[uint64]uint8
}

// replay runs k's prewarm in llc and gens, an empty LLC and k's fresh
// generators, and returns the checkpoint of the state it leaves. It
// replays k.Ops memory operations per core functionally: no cycles
// pass, no DRAM traffic is generated, evicted victims vanish. Installed
// lines carry the critical-word prediction a long history would have
// left behind, and dirty victims leave the layout their write-backs
// would have.
func replay(k CheckpointKey, llc *cache.Cache, gens []*workload.Generator) *Checkpoint {
	ck := &Checkpoint{placed: map[uint64]uint8{}}
	for _, gen := range gens {
		for n := uint64(0); n < k.Ops; n++ {
			op := gen.Next()
			la := cache.LineAddr(op.Addr)
			if llc.Contains(la) {
				llc.Lookup(la, op.Store) // refresh LRU; dirty on store
				continue
			}
			meta := metaValid | uint8(cache.WordIndex(op.Addr))
			if ev, evicted := llc.Insert(la, op.Store, meta); evicted && ev.Dirty {
				relayoutInto(ck.placed, ev)
			}
		}
		ck.gens = append(ck.gens, gen.Checkpoint())
	}
	ck.llc = llc.Snapshot()
	return ck
}

// Checkpoints is a set of prewarm checkpoints shared by the systems of
// many runs; it is safe for concurrent use. A key is held from Acquire
// to the matching Release. While it is held, its checkpoint is built
// once, by the first system that needs it, and later systems restore
// it; the last Release drops it. A system needing a key no one holds
// builds a private checkpoint, and so does every system prewarmed
// through a nil *Checkpoints.
type Checkpoints struct {
	mu    sync.Mutex
	held  map[CheckpointKey]*heldCheckpoint
	stats CheckpointStats
}

// heldCheckpoint is one held key: its holders and its checkpoint, built
// on first use.
type heldCheckpoint struct {
	refs int
	once sync.Once
	ck   *Checkpoint
}

// CheckpointStats counts a set's work, as exact counts.
type CheckpointStats struct {
	Built  int // prewarm replays run
	Reused int // restores of a checkpoint an earlier system built
	Held   int // keys held now
}

// NewCheckpoints returns an empty set.
func NewCheckpoints() *Checkpoints {
	return &Checkpoints{held: map[CheckpointKey]*heldCheckpoint{}}
}

// Acquire holds each key once more.
func (cs *Checkpoints) Acquire(keys ...CheckpointKey) {
	cs.mu.Lock()
	defer cs.mu.Unlock()
	for _, k := range keys {
		e := cs.held[k]
		if e == nil {
			e = &heldCheckpoint{}
			cs.held[k] = e
		}
		e.refs++
	}
}

// Release undoes one Acquire of each key, dropping a key's checkpoint
// with its last holder.
func (cs *Checkpoints) Release(keys ...CheckpointKey) {
	cs.mu.Lock()
	defer cs.mu.Unlock()
	for _, k := range keys {
		if e := cs.held[k]; e != nil {
			if e.refs--; e.refs == 0 {
				delete(cs.held, k)
			}
		}
	}
}

// Stats returns a snapshot of the set's counters.
func (cs *Checkpoints) Stats() CheckpointStats {
	cs.mu.Lock()
	defer cs.mu.Unlock()
	s := cs.stats
	s.Held = len(cs.held)
	return s
}

// prewarm brings s, a system of key k that has not run, to k's
// checkpoint. The first system of a held key builds the checkpoint by
// replaying in its own LLC and generators, so a build allocates no
// second machine; later systems restore it. Without a holder, and
// through a nil set, each system replays for itself. The layout
// applies only where it exists: a split organization that places
// adaptively.
func (cs *Checkpoints) prewarm(k CheckpointKey, s *System) {
	ck, built := cs.get(k, s)
	if !built {
		s.Hier.l2.Restore(ck.llc)
		for i, g := range s.gens {
			g.Restore(ck.gens[i])
		}
	}
	if s.Hier.adaptive() {
		maps.Copy(s.Hier.placed, ck.placed)
	}
}

// get returns k's checkpoint; built reports that it was replayed in s.
func (cs *Checkpoints) get(k CheckpointKey, s *System) (ck *Checkpoint, built bool) {
	var e *heldCheckpoint
	if cs != nil {
		cs.mu.Lock()
		if e = cs.held[k]; e == nil {
			cs.stats.Built++
		}
		cs.mu.Unlock()
	}
	if e == nil {
		return replay(k, s.Hier.l2, s.gens), true
	}
	e.once.Do(func() {
		e.ck = replay(k, s.Hier.l2, s.gens)
		built = true
	})
	cs.mu.Lock()
	if built {
		cs.stats.Built++
	} else {
		cs.stats.Reused++
	}
	cs.mu.Unlock()
	return e.ck, built
}

// PrewarmKeys lists the checkpoints a run of cfg on spec at scale
// restores: its own system's and, for a RunPair, the one-core key its
// two alone runs share. A run without prewarm restores none.
func PrewarmKeys(cfg SystemConfig, spec workload.Spec, scale RunScale, pair bool) []CheckpointKey {
	if scale.PrewarmOps == 0 {
		return nil
	}
	keys := []CheckpointKey{{spec, cfg.NCores, cfg.Seed, scale.PrewarmOps}}
	if pair {
		keys = append(keys, CheckpointKey{spec, 1, cfg.Seed, scale.PrewarmOps})
	}
	return keys
}
