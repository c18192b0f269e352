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

// warm runs k's prewarm in place in llc and gens, an empty LLC and k's
// fresh generators. It replays k.Ops memory operations per core
// functionally: no cycles pass, no DRAM traffic is generated, evicted
// victims vanish. Installed lines carry the critical-word prediction a
// long history would have left behind; dirty victims re-lay out placed
// (nil: no layout is kept) as their write-backs would have.
func warm(k CheckpointKey, llc *cache.Cache, gens []*workload.Generator, placed map[uint64]uint8) {
	for _, gen := range gens {
		for n := uint64(0); n < k.Ops; n++ {
			op := gen.Next()
			meta := metaValid | uint8(cache.WordIndex(op.Addr))
			if ev, evicted := llc.LookupOrInsert(cache.LineAddr(op.Addr), op.Store, meta); evicted && ev.Dirty && placed != nil {
				relayoutInto(placed, ev)
			}
		}
	}
}

// replay warms llc and gens with k's prewarm and returns the
// checkpoint of the state it leaves, copied out of them.
func replay(k CheckpointKey, llc *cache.Cache, gens []*workload.Generator) *Checkpoint {
	ck := &Checkpoint{placed: map[uint64]uint8{}}
	warm(k, llc, gens, ck.placed)
	ck.llc = llc.Snapshot()
	for _, gen := range gens {
		ck.gens = append(ck.gens, gen.Checkpoint())
	}
	return ck
}

// Checkpoints is a set of prewarm checkpoints shared by the systems of
// many runs; it is safe for concurrent use. A key is held from Acquire
// to the matching Release. While it is held, its checkpoint is built
// once, by the first system that needs it, and later systems restore
// it; the last Release drops it. A system needing a key no one holds
// replays in place and keeps no checkpoint, and so does every system
// prewarmed through a nil *Checkpoints. A held one-core key also keeps
// the stand-alone references RunPair runs under it (see reference).
type Checkpoints struct {
	mu    sync.Mutex
	held  map[CheckpointKey]*heldCheckpoint
	stats CheckpointStats
}

// heldCheckpoint is one held key: its holders, its checkpoint, built
// on first use, and the stand-alone references run under it.
type heldCheckpoint struct {
	holders int
	once    sync.Once
	ck      *Checkpoint
	refs    map[refKey]*aloneRef
}

// refKey names a stand-alone reference under its one-core checkpoint
// key by the rest of what the run reads: its config and run scale.
type refKey struct {
	cfg   ConfigKey
	scale RunScale
}

// aloneRef is one stand-alone reference: done closes when its run
// ends, and ok reports that it ran in full, so ipc may be shared.
type aloneRef struct {
	done chan struct{}
	ok   bool
	ipc  float64
}

// CheckpointStats counts a set's work, as exact counts.
type CheckpointStats struct {
	Built      int // prewarm replays run
	Reused     int // restores of a checkpoint an earlier system built
	Held       int // keys held now
	RefsRun    int // stand-alone references run in full under a held key
	RefsReused int // reads of a reference an earlier cell ran
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
			e = &heldCheckpoint{refs: map[refKey]*aloneRef{}}
			cs.held[k] = e
		}
		e.holders++
	}
}

// Release undoes one Acquire of each key, dropping a key's checkpoint
// and references with its last holder.
func (cs *Checkpoints) Release(keys ...CheckpointKey) {
	cs.mu.Lock()
	defer cs.mu.Unlock()
	for _, k := range keys {
		if e := cs.held[k]; e != nil {
			if e.holders--; e.holders == 0 {
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
// through a nil set, each system replays in place and copies nothing
// out. The layout applies only where it exists: a split organization
// that places adaptively.
func (cs *Checkpoints) prewarm(k CheckpointKey, s *System) {
	var placed map[uint64]uint8
	if s.Hier.adaptive() {
		placed = s.Hier.placed
	}
	var e *heldCheckpoint
	if cs != nil {
		cs.mu.Lock()
		e = cs.held[k]
		cs.mu.Unlock()
	}
	built := e == nil
	if built {
		warm(k, s.Hier.l2, s.gens, placed)
	} else {
		e.once.Do(func() {
			e.ck = replay(k, s.Hier.l2, s.gens)
			built = true
		})
		if !built {
			s.Hier.l2.Restore(e.ck.llc)
			for i, g := range s.gens {
				g.Restore(e.ck.gens[i])
			}
		}
		if placed != nil {
			maps.Copy(placed, e.ck.placed)
		}
	}
	if cs != nil {
		cs.mu.Lock()
		if built {
			cs.stats.Built++
		} else {
			cs.stats.Reused++
		}
		cs.mu.Unlock()
	}
}

// reference returns the IPC of the stand-alone reference rk under the
// one-core key k, which run computes. While k is held the reference
// runs once: the first cell to need it runs it and later cells read its
// IPC, waiting for it if it is still running. A run that returned an
// error (ErrCanceled included) is never shared: its cell gets the
// error, and the next cell to need the reference, a waiting one
// included, runs it itself. Without a holder, and through a nil set,
// every call runs.
func (cs *Checkpoints) reference(k CheckpointKey, rk refKey, run func() (float64, error)) (float64, error) {
	var e *heldCheckpoint
	if cs != nil {
		cs.mu.Lock()
		e = cs.held[k]
		cs.mu.Unlock()
	}
	if e == nil {
		return run()
	}
	cs.mu.Lock()
	for {
		r := e.refs[rk]
		if r == nil {
			break
		}
		cs.mu.Unlock()
		<-r.done
		cs.mu.Lock()
		if r.ok {
			cs.stats.RefsReused++
			cs.mu.Unlock()
			return r.ipc, nil
		}
	}
	r := &aloneRef{done: make(chan struct{})}
	e.refs[rk] = r
	cs.mu.Unlock()
	// Deferred, so a run that panics still lets its waiters go.
	defer func() {
		cs.mu.Lock()
		if r.ok {
			cs.stats.RefsRun++
		} else {
			delete(e.refs, rk)
		}
		cs.mu.Unlock()
		close(r.done)
	}()
	ipc, err := run()
	r.ipc, r.ok = ipc, err == nil
	return ipc, err
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
