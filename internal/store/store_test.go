package store

import (
	"bytes"
	"crypto/sha256"
	"encoding/gob"
	"encoding/hex"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"hetsim/internal/core"
	"hetsim/internal/sim"
	"hetsim/internal/telemetry"
)

// testKey builds a representative key; variants perturb it.
func testKey(bench string, seed uint64) RunKey {
	cfg := core.RL(8)
	cfg.Seed = seed
	return RunKey{Cfg: cfg.Key(), Bench: bench, Scale: core.TestScale(), Pair: true}
}

// testResults builds a fully-populated Results, including the awkward
// cases a codec must survive: a NaN metric, negative-adjacent floats,
// and an epoch series.
func testResults(bench string) core.Results {
	return core.Results{
		Benchmark:   bench,
		Config:      "RL",
		Cycles:      123_456_789,
		IPCs:        []float64{1.25, 0.5, math.NaN(), 2.875},
		SumIPC:      4.625,
		Throughput:  1.129,
		CritLatency: 87.5,
		DemandReads: 20_000,
		CritWordFrac: [8]float64{
			0.67, 0.1, 0.05, 0.05, 0.04, 0.04, 0.03, 0.02},
		HeldWakes: 3,
		Degraded:  true,
		Epochs: &telemetry.Series{
			Cols:   []string{"cpu0.ipc", "mem.queue"},
			Cycles: []sim.Cycle{10_000, 20_000, 30_000},
			Data:   []float64{1.5, 2, math.Inf(1), 4, math.NaN(), 6},
		},
	}
}

// resultsEqual compares Results bit-exactly, NaN included:
// reflect.DeepEqual follows == for floats (NaN != NaN), so equality is
// judged on the deterministic entry encoding instead.
func resultsEqual(a, b core.Results) bool {
	k := testKey("eq", 0)
	ea, err1 := encodeEntry(k, k.Hash(), a)
	eb, err2 := encodeEntry(k, k.Hash(), b)
	return err1 == nil && err2 == nil && bytes.Equal(ea, eb)
}

func TestPutGetRoundTrip(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	k := testKey("mcf", 1)
	want := testResults("mcf")
	if _, ok := s.Get(k); ok {
		t.Fatal("hit on an empty store")
	}
	if err := s.Put(k, want); err != nil {
		t.Fatal(err)
	}
	got, ok := s.Get(k)
	if !ok {
		t.Fatal("miss after Put")
	}
	if !resultsEqual(got, want) {
		t.Fatalf("round trip diverged:\n got %+v\nwant %+v", got, want)
	}
	// The decoded copy is the caller's: mutating it must not poison a
	// later Get.
	got.IPCs[0] = -999
	got.Epochs.Data[0] = -999
	again, ok := s.Get(k)
	if !ok {
		t.Fatal("miss on second Get")
	}
	if !resultsEqual(again, want) {
		t.Fatal("mutating a returned result changed a later Get")
	}
	st := s.Stats()
	if st.Hits != 2 || st.Misses != 1 || st.Writes != 1 || st.Corrupt != 0 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestKeySeparation(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	base := testKey("mcf", 1)
	if err := s.Put(base, testResults("mcf")); err != nil {
		t.Fatal(err)
	}
	variants := []RunKey{
		testKey("lbm", 1), // different bench
		testKey("mcf", 2), // different seed
	}
	scaled := base
	scaled.Scale.MeasureReads++
	variants = append(variants, scaled)
	single := base
	single.Pair = false
	variants = append(variants, single)
	rob := base
	rob.Cfg.ROBSize = 128
	variants = append(variants, rob)
	for i, v := range variants {
		if v.Hash() == base.Hash() {
			t.Errorf("variant %d hashes like the base key", i)
		}
		if _, ok := s.Get(v); ok {
			t.Errorf("variant %d hit the base entry", i)
		}
	}
}

// corrupt writes a mutated copy of the entry file and asserts Get
// treats it as a miss (and heals on re-Put).
func corruptAndCheck(t *testing.T, mutate func([]byte) []byte) {
	t.Helper()
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	k := testKey("mcf", 1)
	want := testResults("mcf")
	if err := s.Put(k, want); err != nil {
		t.Fatal(err)
	}
	path := s.objectPath(k.Hash())
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, mutate(append([]byte(nil), b...)), 0o644); err != nil {
		t.Fatal(err)
	}
	if res, ok := s.Get(k); ok {
		// A mutation the verified region doesn't cover (the advisory
		// config/bench labels) may still decode — but then it must be
		// byte-exact, never wrong.
		if !resultsEqual(res, want) {
			t.Fatal("corrupt entry returned different results")
		}
		return
	}
	if s.Stats().Corrupt == 0 {
		t.Fatal("corruption not counted")
	}
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Fatal("corrupt entry not quarantined")
	}
	// Heal: re-Put then hit.
	if err := s.Put(k, want); err != nil {
		t.Fatal(err)
	}
	res, ok := s.Get(k)
	if !ok || !resultsEqual(res, want) {
		t.Fatal("re-Put did not heal the entry")
	}
}

func TestTruncatedEntryIsMiss(t *testing.T) {
	for _, frac := range []float64{0, 0.1, 0.5, 0.95} {
		corruptAndCheck(t, func(b []byte) []byte {
			return b[:int(float64(len(b))*frac)]
		})
	}
}

func TestBitFlippedEntryNeverWrongHit(t *testing.T) {
	// Flip one bit in every 7th byte position across the whole file,
	// one mutation per store: corruption anywhere must yield a miss or
	// the exact original — never different results.
	s, _ := Open(t.TempDir())
	k := testKey("mcf", 1)
	if err := s.Put(k, testResults("mcf")); err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(s.objectPath(k.Hash()))
	if err != nil {
		t.Fatal(err)
	}
	for pos := 0; pos < len(b); pos += 7 {
		pos := pos
		corruptAndCheck(t, func(c []byte) []byte {
			c[pos] ^= 0x10
			return c
		})
	}
}

func TestStaleSchemaIsMiss(t *testing.T) {
	corruptAndCheck(t, func(b []byte) []byte {
		// Patch the header's schema field to a bygone version. The
		// payload checksum still verifies — staleness alone must
		// invalidate.
		cur := fmt.Sprintf(`{"schema":%d,`, Schema)
		if !bytes.Contains(b, []byte(cur)) {
			t.Fatalf("entry header lacks %s", cur)
		}
		return bytes.Replace(b, []byte(cur), []byte(fmt.Sprintf(`{"schema":%d,`, Schema-1)), 1)
	})

	// Upgrade path: an entry exactly as a schema-1 store wrote it (the
	// same magic and header around a gob payload) is stale, counts as
	// corrupt and as a miss, is removed, and the next Put heals it.
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	k, want := testKey("mcf", 1), testResults("mcf")
	var gobbed bytes.Buffer
	if err := gob.NewEncoder(&gobbed).Encode(want); err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(gobbed.Bytes())
	old := entryWithHeader(t, header{Schema: 1, Key: k.Hash(), Len: gobbed.Len(),
		Sum: hex.EncodeToString(sum[:]), Config: k.Cfg.Name, Bench: k.Bench}, gobbed.Bytes())
	if _, err := decodeEntry(old, k.Hash()); !errors.Is(err, errSchema) {
		t.Fatalf("schema-1 entry: err = %v, want %v", err, errSchema)
	}
	path := s.objectPath(k.Hash())
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, old, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, ok := s.Get(k); ok {
		t.Fatal("schema-1 entry answered a Get")
	}
	if st := s.Stats(); st.Misses != 1 || st.Corrupt != 1 || st.Hits != 0 {
		t.Fatalf("stats after schema-1 Get = %+v, want 1 miss, 1 corrupt", st)
	}
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Fatal("schema-1 entry not removed")
	}
	if err := s.Put(k, want); err != nil {
		t.Fatal(err)
	}
	if res, ok := s.Get(k); !ok || !resultsEqual(res, want) {
		t.Fatal("Put did not heal the schema-1 entry")
	}
}

func TestWrongKeyedFileIsMiss(t *testing.T) {
	// An entry copied (or hard-linked) onto another key's path must be
	// rejected by the embedded key hash, even though its checksum is
	// fine.
	s, _ := Open(t.TempDir())
	k1, k2 := testKey("mcf", 1), testKey("lbm", 1)
	if err := s.Put(k1, testResults("mcf")); err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(s.objectPath(k1.Hash()))
	if err != nil {
		t.Fatal(err)
	}
	p2 := s.objectPath(k2.Hash())
	if err := os.MkdirAll(filepath.Dir(p2), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(p2, b, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, ok := s.Get(k2); ok {
		t.Fatal("entry for k1 answered a Get for k2")
	}
}

// TestConcurrentWriters hammers one directory from many goroutines —
// the -j8 sweep shape — mixing same-key races (writers must install
// byte-identical entries) and distinct keys. Run under -race by
// `make race`.
func TestConcurrentWriters(t *testing.T) {
	dir := t.TempDir()
	const writers = 8
	const keys = 5
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			// Each goroutine gets its own Store handle over the shared
			// directory, like separate -j workers or processes would.
			s, err := Open(dir)
			if err != nil {
				t.Error(err)
				return
			}
			for i := 0; i < keys; i++ {
				bench := []string{"mcf", "lbm", "mg", "libquantum", "bzip2"}[i]
				k := testKey(bench, uint64(i))
				if err := s.Put(k, testResults(bench)); err != nil {
					t.Errorf("writer %d: %v", w, err)
				}
				if res, ok := s.Get(k); ok {
					if res.Benchmark != bench {
						t.Errorf("writer %d got %q for %q", w, res.Benchmark, bench)
					}
				}
			}
		}(w)
	}
	wg.Wait()
	s, _ := Open(dir)
	for i := 0; i < keys; i++ {
		bench := []string{"mcf", "lbm", "mg", "libquantum", "bzip2"}[i]
		res, ok := s.Get(testKey(bench, uint64(i)))
		if !ok || !resultsEqual(res, testResults(bench)) {
			t.Fatalf("key %d not durable after concurrent writes", i)
		}
	}
}
