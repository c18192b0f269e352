package store

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"syscall"
	"testing"
)

// TestPutFsyncsFileAndDirectory pins the durability discipline: every
// committed entry has had its data blocks synced before the rename and
// its directory synced after — the sequence that makes a host crash
// unable to leave a zero-length "committed" object.
func TestPutFsyncsFileAndDirectory(t *testing.T) {
	oldF, oldD := fsyncFile, fsyncDir
	defer func() { fsyncFile, fsyncDir = oldF, oldD }()
	var fileSyncs, dirSyncs int
	fsyncFile = func(f *os.File) error { fileSyncs++; return f.Sync() }
	fsyncDir = func(dir string) error { dirSyncs++; return oldD(dir) }

	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Put(testKey("mcf", 1), testResults("mcf")); err != nil {
		t.Fatal(err)
	}
	if fileSyncs == 0 {
		t.Error("Put committed an entry without syncing its data")
	}
	if dirSyncs == 0 {
		t.Error("Put committed an entry without syncing its directory")
	}
}

// TestPutFsyncFailureAborts: if the data sync fails, the entry must
// not be committed at its content address.
func TestPutFsyncFailureAborts(t *testing.T) {
	oldF := fsyncFile
	defer func() { fsyncFile = oldF }()
	fsyncFile = func(f *os.File) error { return fmt.Errorf("scripted fsync failure") }

	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	k := testKey("mcf", 1)
	if err := s.Put(k, testResults("mcf")); err == nil {
		t.Fatal("Put succeeded despite fsync failure")
	}
	if _, err := os.Stat(s.ObjectPath(k)); !os.IsNotExist(err) {
		t.Fatalf("entry committed despite fsync failure: %v", err)
	}
	if _, ok := s.Get(k); ok {
		t.Fatal("Get served an entry whose Put failed")
	}
}

// TestCrashSimZeroLengthObjectHealed reconstructs the exact artifact
// an unsynced rename + power loss used to leave — a zero-length file
// at the committed path — and checks the store treats it as a miss,
// quarantines it, and heals on the next Put.
func TestCrashSimZeroLengthObjectHealed(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	k := testKey("lbm", 1)
	path := s.ObjectPath(k)
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, nil, 0o644); err != nil {
		t.Fatal(err)
	}

	if _, ok := s.Get(k); ok {
		t.Fatal("zero-length object served as a hit")
	}
	if st := s.Stats(); st.Corrupt != 1 {
		t.Fatalf("corrupt count = %d, want 1", st.Corrupt)
	}
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Fatal("zero-length object not quarantined")
	}

	want := testResults("lbm")
	if err := s.Put(k, want); err != nil {
		t.Fatal(err)
	}
	got, ok := s.Get(k)
	if !ok {
		t.Fatal("healed entry not served")
	}
	if got.Benchmark != want.Benchmark || got.Cycles != want.Cycles {
		t.Fatalf("healed entry corrupted: %+v", got)
	}
}

// TestDegradedModeLatchesAndRecovers scripts an ENOSPC on the data
// sync: the failing Put reports ErrDegraded, later Puts fail fast
// without touching the disk, Get keeps working, and a successful
// Writable probe restores write-through.
func TestDegradedModeLatchesAndRecovers(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	k1 := testKey("mcf", 1)
	if err := s.Put(k1, testResults("mcf")); err != nil {
		t.Fatal(err)
	}

	oldF := fsyncFile
	fsyncFile = func(f *os.File) error { return fmt.Errorf("write: %w", syscall.ENOSPC) }
	k2 := testKey("lbm", 1)
	err = s.Put(k2, testResults("lbm"))
	if !errors.Is(err, ErrDegraded) {
		t.Fatalf("ENOSPC Put: got %v, want ErrDegraded", err)
	}
	if !s.Degraded() {
		t.Fatal("store did not latch degraded after ENOSPC")
	}

	// Fail fast now — even though the disk (seam restored) would work.
	fsyncFile = oldF
	if err := s.Put(k2, testResults("lbm")); !errors.Is(err, ErrDegraded) {
		t.Fatalf("degraded Put: got %v, want fast ErrDegraded", err)
	}
	// Reads still serve while degraded.
	if _, ok := s.Get(k1); !ok {
		t.Fatal("degraded store refused a read")
	}

	// Recovery: a writable probe clears the latch and Put works again.
	if !s.Writable() {
		t.Fatal("Writable probe failed on a healthy directory")
	}
	if s.Degraded() {
		t.Fatal("successful probe did not clear the degraded latch")
	}
	if err := s.Put(k2, testResults("lbm")); err != nil {
		t.Fatalf("post-recovery Put: %v", err)
	}
	if _, ok := s.Get(k2); !ok {
		t.Fatal("post-recovery entry not served")
	}
}

// TestConcurrentDegradeReportsCauseOnce: two first Puts that both hit
// ENOSPC race to latch the store degraded. Exactly one wins the latch
// and returns ErrDegraded wrapping the cause; the loser, and every Put
// after, returns bare ErrDegraded — the contract that lets callers
// warn once per degradation by ignoring the bare error.
func TestConcurrentDegradeReportsCauseOnce(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	const racers = 2
	oldF := fsyncFile
	defer func() { fsyncFile = oldF }()
	// Hold every failing sync until all racers have reached it, so both
	// Puts pass the latch check before either sets it.
	var arrived sync.WaitGroup
	arrived.Add(racers)
	fsyncFile = func(f *os.File) error {
		arrived.Done()
		arrived.Wait()
		return fmt.Errorf("write: %w", syscall.ENOSPC)
	}
	errs := make([]error, racers)
	var wg sync.WaitGroup
	for i := range errs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[i] = s.Put(testKey("mcf", uint64(i)), testResults("mcf"))
		}()
	}
	wg.Wait()
	errs = append(errs, s.Put(testKey("lbm", 1), testResults("lbm")))

	wrapped := 0
	for i, err := range errs {
		switch {
		case err == ErrDegraded:
		case errors.Is(err, ErrDegraded) && strings.Contains(err.Error(), syscall.ENOSPC.Error()):
			wrapped++
		default:
			t.Fatalf("Put %d: got %v, want ErrDegraded", i, err)
		}
	}
	if wrapped != 1 {
		t.Fatalf("%d Puts reported the cause, want exactly 1: %v", wrapped, errs)
	}
}

// TestReadOnlyDirDegrades points the store at a directory whose
// objects tree has been made read-only: the Put must degrade (EROFS/
// EACCES-class failure on a read-only tree maps to a plain error or
// ErrDegraded depending on the syscall that fails first), and the
// store must keep serving reads.
func TestReadOnlyDirDegrades(t *testing.T) {
	if os.Getuid() == 0 {
		t.Skip("root bypasses directory permissions")
	}
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	k := testKey("mcf", 1)
	if err := s.Put(k, testResults("mcf")); err != nil {
		t.Fatal(err)
	}
	objects := filepath.Join(dir, "objects")
	if err := os.Chmod(objects, 0o555); err != nil {
		t.Fatal(err)
	}
	defer os.Chmod(objects, 0o755)

	if s.Writable() {
		t.Fatal("Writable reported true on a read-only objects tree")
	}
	if _, ok := s.Get(k); !ok {
		t.Fatal("read-only store refused a read")
	}
}
