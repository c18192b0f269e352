package store

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"hetsim/internal/core"
)

// Interface is the store API the memo layers consume: the durable
// tier under exp.Runner and the sweepd cell cache both depend on this
// rather than the concrete Store, so a fault-injecting wrapper
// (internal/chaos) or an in-memory fake can stand in anywhere.
type Interface interface {
	Get(RunKey) (core.Results, bool)
	Put(RunKey, core.Results) error
}

// Store is a durable, content-addressed result cache rooted at one
// directory. It is safe for concurrent use by any number of goroutines
// and — because writes are temp-file + rename and object content is
// a pure function of its path — by any number of processes sharing
// the directory: concurrent writers of the same key race to install
// byte-identical files, and a reader sees either a complete entry or
// none.
type Store struct {
	dir string

	mu    sync.Mutex
	stats Stats

	// maxBytes caps the total size of the objects tree (0 = unlimited).
	// liveBytes is the total measured by the last sweep plus bytes
	// written since; when it crosses the cap, Put triggers an
	// LRU-by-atime eviction sweep. Both are guarded by mu.
	maxBytes  int64
	liveBytes int64

	// degraded latches when a Put hits a full or read-only filesystem.
	// While set, Put returns ErrDegraded immediately — the callers'
	// in-memory memo tiers keep the sweep running (degraded to
	// memory-only memoization) instead of every run paying a doomed
	// write. Get still works: reads usually survive the conditions that
	// break writes. Writable re-probes the directory and clears the
	// latch when the disk recovers.
	degraded atomic.Bool
}

var _ Interface = (*Store)(nil)

// ErrDegraded is returned by Put while the store is in degraded
// (memory-only) mode after a write hit ENOSPC or a read-only
// filesystem. Callers already treat Put errors as warnings; this one
// additionally means "stop expecting writes to work until Writable
// says otherwise".
var ErrDegraded = errors.New("store: degraded to memory-only (disk full or read-only)")

// degradeClass reports whether err is an environmental write failure
// — disk full, quota, read-only filesystem, or a permission-denied
// objects tree — that should flip the store into degraded mode rather
// than merely fail one Put.
func degradeClass(err error) bool {
	return errors.Is(err, syscall.ENOSPC) || errors.Is(err, syscall.EROFS) ||
		errors.Is(err, syscall.EDQUOT) || errors.Is(err, syscall.EACCES)
}

// Stats counts store activity since Open.
type Stats struct {
	// Hits is the number of Gets served from a verified entry.
	Hits uint64
	// Misses is the number of Gets that found no entry.
	Misses uint64
	// Corrupt is the number of Gets that found an entry but rejected
	// it (truncation, checksum, stale schema, key mismatch). Each is
	// also counted as a miss, and the bad file is removed so the next
	// Put heals it.
	Corrupt uint64
	// Writes is the number of entries installed by Put.
	Writes uint64
	// Evictions counts entries removed by the size-cap sweep, and
	// EvictedBytes the space they released.
	Evictions    uint64
	EvictedBytes uint64
}

// Open creates (if needed) and opens a store rooted at dir.
func Open(dir string) (*Store, error) {
	if dir == "" {
		return nil, fmt.Errorf("store: empty directory")
	}
	if err := os.MkdirAll(filepath.Join(dir, "objects"), 0o755); err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	return &Store{dir: dir}, nil
}

// Dir reports the store's root directory.
func (s *Store) Dir() string { return s.dir }

// SetMaxBytes caps the objects tree at n bytes (0 removes the cap) and
// sweeps immediately, so a long-lived cache directory is trimmed at
// startup before any new entries land. While capped, every Put that
// pushes the tree past the limit re-sweeps: entries are evicted in
// least-recently-accessed order (see atime) until the tree fits. The
// cap is advisory across processes — each process enforces it against
// its own view of the tree, refreshed at every sweep.
func (s *Store) SetMaxBytes(n int64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.maxBytes = n
	if n > 0 {
		s.sweepLocked()
	}
}

// objectPath maps a key hash to its entry file, fanned out over a
// two-hex-digit directory level so huge sweeps don't pile every entry
// into one directory.
func (s *Store) objectPath(hash string) string {
	return filepath.Join(s.dir, "objects", hash[:2], hash+".run")
}

// Get looks the key up, returning ok=false on a miss or on any entry
// that fails verification — a corrupt entry is deleted so the re-run's
// Put can heal it. The returned Results are freshly decoded and owned
// by the caller; mutating them cannot affect later Gets.
func (s *Store) Get(k RunKey) (core.Results, bool) {
	hash := k.Hash()
	path := s.objectPath(hash)
	b, err := os.ReadFile(path)
	if err != nil {
		s.count(func(st *Stats) { st.Misses++ })
		return core.Results{}, false
	}
	res, err := decodeEntry(b, hash)
	if err != nil {
		// Quarantine by deletion: a bad entry must never shadow the
		// path its healthy replacement will be renamed onto.
		os.Remove(path)
		s.count(func(st *Stats) { st.Misses++; st.Corrupt++ })
		return core.Results{}, false
	}
	s.count(func(st *Stats) { st.Hits++ })
	touch(path)
	return res, true
}

// fsyncFile and fsyncDir are seams for the crash-simulation tests:
// production always syncs, tests count the calls or script failures.
var (
	fsyncFile = func(f *os.File) error { return f.Sync() }
	fsyncDir  = func(dir string) error {
		d, err := os.Open(dir)
		if err != nil {
			return err
		}
		defer d.Close()
		return d.Sync()
	}
)

// Put installs the entry for the key atomically and durably: encode,
// write to a temp file in the same directory, fsync the file, rename
// into place, fsync the directory. The rename gives atomicity against
// concurrent readers; the two fsyncs give durability against a host
// crash — without them the rename can be journalled before the data
// blocks land, and power loss leaves a zero-length (or torn) file at
// the committed path. The checksum layer would catch and heal such an
// entry, but an fsynced rename never produces one in the first place.
//
// A Put on a full or read-only filesystem flips the store into
// degraded mode: the one Put that flips the latch fails with
// ErrDegraded wrapping the underlying error, every other Put fails
// fast with bare ErrDegraded (so callers warn once per degradation),
// and Writable re-probes and recovers.
func (s *Store) Put(k RunKey, res core.Results) error {
	if s.degraded.Load() {
		return ErrDegraded
	}
	hash := k.Hash()
	b, err := encodeEntry(k, hash, res)
	if err != nil {
		return err
	}
	path := s.objectPath(hash)
	if err := s.install(path, b); err != nil {
		if degradeClass(err) {
			if !s.degraded.CompareAndSwap(false, true) {
				return ErrDegraded
			}
			return fmt.Errorf("%w: %v", ErrDegraded, err)
		}
		return err
	}
	s.count(func(st *Stats) { st.Writes++ })
	s.mu.Lock()
	s.liveBytes += int64(len(b))
	if s.maxBytes > 0 && s.liveBytes > s.maxBytes {
		s.sweepLocked()
	}
	s.mu.Unlock()
	return nil
}

// install writes b to path via the durable temp+fsync+rename+fsync
// sequence.
func (s *Store) install(path string, b []byte) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return fmt.Errorf("store: %w", err)
	}
	tmp, err := os.CreateTemp(filepath.Dir(path), ".put-*")
	if err != nil {
		return fmt.Errorf("store: %w", err)
	}
	if _, err := tmp.Write(b); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return fmt.Errorf("store: %w", err)
	}
	if err := fsyncFile(tmp); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return fmt.Errorf("store: fsync: %w", err)
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("store: %w", err)
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("store: %w", err)
	}
	// Make the rename itself durable: sync the directory holding the
	// entry. A failure here is reported (the entry is installed but a
	// crash could still un-commit it), but the in-memory state is
	// already correct, so callers treat it like any other Put warning.
	if err := fsyncDir(filepath.Dir(path)); err != nil {
		return fmt.Errorf("store: dir fsync: %w", err)
	}
	return nil
}

// Degraded reports whether the store has latched into memory-only
// mode after a write failure.
func (s *Store) Degraded() bool { return s.degraded.Load() }

// Writable probes the store directory with a real create+sync+remove
// round trip. A successful probe clears the degraded latch, so a
// health endpoint polling Writable doubles as the store's recovery
// path once space is freed or the filesystem is remounted read-write.
func (s *Store) Writable() bool {
	f, err := os.CreateTemp(filepath.Join(s.dir, "objects"), ".probe-*")
	if err != nil {
		return false
	}
	name := f.Name()
	_, werr := f.Write([]byte("probe"))
	serr := fsyncFile(f)
	f.Close()
	os.Remove(name)
	if werr != nil || serr != nil {
		return false
	}
	s.degraded.Store(false)
	return true
}

// ObjectPath exposes the entry file path for a key, for tooling and
// the chaos layer's torn-write injection. The path is a pure function
// of the key; the file may or may not exist.
func (s *Store) ObjectPath(k RunKey) string { return s.objectPath(k.Hash()) }

// sweepLocked re-measures the objects tree and, if it exceeds maxBytes,
// deletes entries in ascending access-time order until it fits. Ties
// break on path so two sweeps of the same tree delete the same files.
// Concurrent processes may race the removals; losing such a race (the
// file is already gone) is indistinguishable from winning it. Callers
// hold s.mu.
func (s *Store) sweepLocked() {
	type entry struct {
		path string
		size int64
		at   int64 // access time, unix nanoseconds
	}
	var ents []entry
	var total int64
	root := filepath.Join(s.dir, "objects")
	fans, err := os.ReadDir(root)
	if err != nil {
		return
	}
	for _, fan := range fans {
		if !fan.IsDir() {
			continue
		}
		files, err := os.ReadDir(filepath.Join(root, fan.Name()))
		if err != nil {
			continue
		}
		for _, f := range files {
			if filepath.Ext(f.Name()) != ".run" {
				continue
			}
			fi, err := f.Info()
			if err != nil {
				continue
			}
			ents = append(ents, entry{
				path: filepath.Join(root, fan.Name(), f.Name()),
				size: fi.Size(),
				at:   atime(fi),
			})
			total += fi.Size()
		}
	}
	s.liveBytes = total
	if s.maxBytes <= 0 || total <= s.maxBytes {
		return
	}
	sort.Slice(ents, func(i, j int) bool {
		if ents[i].at != ents[j].at {
			return ents[i].at < ents[j].at
		}
		return ents[i].path < ents[j].path
	})
	for _, e := range ents {
		if s.liveBytes <= s.maxBytes {
			break
		}
		if err := os.Remove(e.path); err != nil && !os.IsNotExist(err) {
			continue
		}
		s.liveBytes -= e.size
		s.stats.Evictions++
		s.stats.EvictedBytes += uint64(e.size)
	}
}

// touch bumps an entry's access time after a hit, so LRU eviction sees
// cache usage even on filesystems mounted noatime/relatime. Failures
// are swallowed: a missed touch only ages the entry early.
func touch(path string) {
	now := time.Now()
	os.Chtimes(path, now, now)
}

// Stats snapshots the counters.
func (s *Store) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.stats
}

func (s *Store) count(f func(*Stats)) {
	s.mu.Lock()
	f(&s.stats)
	s.mu.Unlock()
}
