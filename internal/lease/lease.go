// Package lease coordinates N worker processes sharing one directory
// — no coordinator, no network protocol, just the filesystem the
// durable run store already lives on. A lease is one JSON file under
// <dir>/leases/ claimed by hard-linking a fully written record into
// place (the link fails if the name exists, so the claim is atomic and
// no reader ever sees a half-written lease), kept alive by heartbeat
// renewals, and reclaimable by any worker once its heartbeat has gone
// stale for a full TTL. Fencing tokens increase monotonically across every
// claim of a key, so a worker that lost its lease to a reclaim can
// discover the loss on its next renewal instead of silently fighting
// the new owner.
//
// The protocol is advisory, not a mutex: a holder that stalls past its
// TTL keeps working on a cell a reclaimer now also holds, and a
// reclaim can race a stale holder's own renewal or release. That is safe here by
// construction — the protected work is idempotent (equal keys produce
// byte-identical store entries, and store writes are atomic
// temp+rename), so duplicated work costs time, never correctness. The
// fencing token exists so the duplication is observable and bounded:
// the loser's next Renew fails and it abandons the cell.
package lease

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"time"
)

// ErrHeld is returned by TryAcquire when a live lease belongs to
// another owner.
var ErrHeld = errors.New("lease: held by another owner")

// ErrLost is returned by Renew and Release when the on-disk lease no
// longer carries our owner and token — someone reclaimed it after our
// heartbeat went stale.
var ErrLost = errors.New("lease: lost to another owner")

// record is the on-disk shape of one lease.
type record struct {
	// Owner identifies the claiming worker (unique per process).
	Owner string `json:"owner"`
	// Token is the fencing token: it strictly increases across every
	// successive claim of the same key, including reclaims of expired
	// leases, so a stale holder can always be distinguished from the
	// current one.
	Token uint64 `json:"token"`
	// HeartbeatUnixNano is the wall-clock time of the last renewal.
	HeartbeatUnixNano int64 `json:"heartbeat_unix_nano"`
	// TTLNano records the claiming manager's TTL so a reader with a
	// different configuration still judges staleness by the terms the
	// lease was taken under.
	TTLNano int64 `json:"ttl_nano"`
}

// Manager claims and renews leases under one shared directory.
type Manager struct {
	dir   string
	owner string
	ttl   time.Duration
	// now is the clock; tests substitute it to script expiry.
	now func() time.Time
}

// NewManager roots a manager at dir (created if absent). owner must be
// unique among concurrently live workers — hostname+pid is the
// conventional choice (see DefaultOwner). ttl is how long a lease
// survives without a heartbeat before any worker may reclaim it; it
// must comfortably exceed the heartbeat interval (Heartbeat uses
// ttl/3) plus worst-case scheduling noise.
func NewManager(dir, owner string, ttl time.Duration) (*Manager, error) {
	if dir == "" {
		return nil, fmt.Errorf("lease: empty directory")
	}
	if owner == "" {
		return nil, fmt.Errorf("lease: empty owner")
	}
	if ttl <= 0 {
		return nil, fmt.Errorf("lease: non-positive ttl %v", ttl)
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("lease: %w", err)
	}
	return &Manager{dir: dir, owner: owner, ttl: ttl, now: time.Now}, nil
}

// DefaultOwner builds the conventional worker identity: hostname+pid,
// unique among live processes that could share a lease directory.
func DefaultOwner() string {
	host, err := os.Hostname()
	if err != nil {
		host = "unknown-host"
	}
	return fmt.Sprintf("%s-%d", host, os.Getpid())
}

// Owner reports the manager's worker identity.
func (m *Manager) Owner() string { return m.owner }

// TTL reports the manager's lease time-to-live.
func (m *Manager) TTL() time.Duration { return m.ttl }

// path maps a key to its lease file. Keys are store hashes (hex), so
// no escaping is needed; reject anything that could traverse.
func (m *Manager) path(key string) (string, error) {
	if key == "" || key != filepath.Base(key) {
		return "", fmt.Errorf("lease: bad key %q", key)
	}
	return filepath.Join(m.dir, key+".lease"), nil
}

// Lease is one held claim. All methods are safe to call from the
// goroutine that acquired it; the heartbeat helper (Heartbeat) runs
// renewals on its own goroutine and reports loss through a channel.
type Lease struct {
	m     *Manager
	key   string
	path  string
	Token uint64
}

// Key reports the leased key.
func (l *Lease) Key() string { return l.key }

// TryAcquire claims key without blocking. Outcomes:
//
//   - no lease on disk → claim it (token 1), return the Lease
//   - live lease, another owner → ErrHeld
//   - live lease, our owner → ErrHeld too: re-entrant claims are a
//     bug in the caller (one cell, one claim), not a feature
//   - expired or unreadable lease → reclaim it with token+1 (reclaim)
func (m *Manager) TryAcquire(key string) (*Lease, error) {
	path, err := m.path(key)
	if err != nil {
		return nil, err
	}
	for {
		if l, err := m.create(key, path, 1); err == nil {
			return l, nil
		} else if !os.IsExist(err) {
			return nil, fmt.Errorf("lease: %w", err)
		}
		prev, readErr := readRecord(path)
		if readErr == nil && !m.expired(prev) {
			return nil, fmt.Errorf("%w (%s, token %d)", ErrHeld, prev.Owner, prev.Token)
		}
		if os.IsNotExist(readErr) {
			// Raced a release; loop and claim fresh.
			continue
		}
		return m.reclaim(key, path, prev, readErr != nil)
	}
}

// reclaim replaces the expired record prev (or, when corrupt, an
// unreadable file; prev is then zero) with our claim at prev.Token+1.
// Reclaimers of one stale record serialize on an O_EXCL marker named
// for the new token: the marker's holder re-reads the lease, and only
// if it still finds what it judged stale renames its own record over
// it. Every other reclaimer reports ErrHeld and backs off. The marker
// is removed on the way out; one left by a reclaimer that died holding
// it is cleared once it is a TTL old, so the key cannot wedge.
func (m *Manager) reclaim(key, path string, prev record, corrupt bool) (*Lease, error) {
	token := prev.Token + 1
	marker := fmt.Sprintf("%s.%d.reclaim", path, token)
	f, err := os.OpenFile(marker, os.O_CREATE|os.O_EXCL|os.O_WRONLY, 0o644)
	if err != nil {
		if !os.IsExist(err) {
			return nil, fmt.Errorf("lease: %w", err)
		}
		if fi, serr := os.Stat(marker); serr == nil && time.Since(fi.ModTime()) > m.ttl {
			os.Remove(marker)
		}
		return nil, fmt.Errorf("%w (lost reclaim race)", ErrHeld)
	}
	f.Close()
	defer os.Remove(marker)

	cur, readErr := readRecord(path)
	switch {
	case os.IsNotExist(readErr):
		// Released meanwhile: an ordinary claim.
		l, err := m.create(key, path, token)
		if os.IsExist(err) {
			return nil, fmt.Errorf("%w (lost reclaim race)", ErrHeld)
		} else if err != nil {
			return nil, fmt.Errorf("lease: %w", err)
		}
		return l, nil
	case (readErr != nil) != corrupt || (!corrupt && cur != prev):
		return nil, fmt.Errorf("%w (lost reclaim race)", ErrHeld)
	}
	tmp, err := m.writeRecord(token)
	if err != nil {
		return nil, fmt.Errorf("lease: %w", err)
	}
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return nil, fmt.Errorf("lease: %w", err)
	}
	return &Lease{m: m, key: key, path: path, Token: token}, nil
}

// create installs a fresh lease: the record is written to a temp file
// and hard-linked into place, which fails if the lease exists (the
// atomic claim) and never exposes a partly written record.
func (m *Manager) create(key, path string, token uint64) (*Lease, error) {
	tmp, err := m.writeRecord(token)
	if err != nil {
		return nil, err
	}
	defer os.Remove(tmp)
	if err := os.Link(tmp, path); err != nil {
		return nil, err
	}
	return &Lease{m: m, key: key, path: path, Token: token}, nil
}

// writeRecord writes our record at token, heartbeat now, to a fresh
// temp file in the lease directory and returns its name.
func (m *Manager) writeRecord(token uint64) (string, error) {
	rec := record{Owner: m.owner, Token: token,
		HeartbeatUnixNano: m.now().UnixNano(), TTLNano: int64(m.ttl)}
	b, _ := json.Marshal(rec)
	tmp, err := os.CreateTemp(m.dir, ".claim-*")
	if err != nil {
		return "", err
	}
	if _, err := tmp.Write(append(b, '\n')); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return "", err
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		return "", err
	}
	return tmp.Name(), nil
}

// expired reports whether the record's heartbeat is older than the
// TTL it was taken under (falling back to ours if it recorded none).
func (m *Manager) expired(rec record) bool {
	ttl := time.Duration(rec.TTLNano)
	if ttl <= 0 {
		ttl = m.ttl
	}
	return m.now().Sub(time.Unix(0, rec.HeartbeatUnixNano)) > ttl
}

func readRecord(path string) (record, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return record{}, err
	}
	var rec record
	if err := json.Unmarshal(b, &rec); err != nil {
		return record{}, fmt.Errorf("lease: corrupt record %s: %w", path, err)
	}
	if rec.Owner == "" {
		return record{}, fmt.Errorf("lease: empty owner in %s", path)
	}
	return rec, nil
}

// stillOurs verifies the on-disk record carries our owner and token.
func (l *Lease) stillOurs() error {
	rec, err := readRecord(l.path)
	if err != nil {
		return fmt.Errorf("%w (%v)", ErrLost, err)
	}
	if rec.Owner != l.m.owner || rec.Token != l.Token {
		return fmt.Errorf("%w (now %s, token %d)", ErrLost, rec.Owner, rec.Token)
	}
	return nil
}

// Renew refreshes the heartbeat. It verifies ownership first: if the
// lease was reclaimed while our process stalled, Renew returns ErrLost
// and the holder must abandon the protected work's results (the new
// owner is already re-running it; identical outputs make the race
// harmless, this just stops us renewing over the new owner's claim).
// The rewrite is temp+rename so a crash mid-renewal leaves the old
// record, never a torn file.
func (l *Lease) Renew() error {
	if err := l.stillOurs(); err != nil {
		return err
	}
	tmp, err := l.m.writeRecord(l.Token)
	if err != nil {
		return fmt.Errorf("lease: %w", err)
	}
	if err := os.Rename(tmp, l.path); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("lease: %w", err)
	}
	return nil
}

// Release removes the lease if it is still ours. Releasing a lost
// lease is a no-op (the reclaimer owns the file now); the error
// reports the loss for logging but nothing is removed.
func (l *Lease) Release() error {
	if err := l.stillOurs(); err != nil {
		return err
	}
	if err := os.Remove(l.path); err != nil && !os.IsNotExist(err) {
		return fmt.Errorf("lease: %w", err)
	}
	return nil
}

// Heartbeat renews the lease every interval (ttl/3 if interval <= 0)
// on a fresh goroutine until stop is closed or a renewal reports the
// lease lost. The returned channel is closed if (and only if) the
// lease is lost, so the holder can select on it alongside its work.
func (l *Lease) Heartbeat(interval time.Duration, stop <-chan struct{}) <-chan struct{} {
	if interval <= 0 {
		interval = l.m.ttl / 3
	}
	if interval <= 0 {
		interval = time.Second
	}
	lost := make(chan struct{})
	go func() {
		t := time.NewTicker(interval)
		defer t.Stop()
		for {
			select {
			case <-stop:
				return
			case <-t.C:
				if err := l.Renew(); err != nil {
					close(lost)
					return
				}
			}
		}
	}()
	return lost
}

// Holders lists the owners of every live (non-expired) lease under the
// manager's directory — the liveness view /healthz reports. Unreadable
// or expired files are skipped.
func (m *Manager) Holders() map[string]string {
	out := map[string]string{}
	ents, err := os.ReadDir(m.dir)
	if err != nil {
		return out
	}
	for _, de := range ents {
		name := de.Name()
		if de.IsDir() || filepath.Ext(name) != ".lease" {
			continue
		}
		rec, err := readRecord(filepath.Join(m.dir, name))
		if err != nil || m.expired(rec) {
			continue
		}
		out[name[:len(name)-len(".lease")]] = rec.Owner
	}
	return out
}
