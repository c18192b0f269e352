package store

import (
	"bytes"
	"math"
	"testing"

	"hetsim/internal/core"
	"hetsim/internal/sim"
	"hetsim/internal/telemetry"
)

// FuzzStoreKey drives key canonicalization with adversarial field
// values: arbitrary benchmark strings (quotes, separators, NUL bytes),
// NaN-patterned floats, and boundary integers. Properties: Canonical
// never panics, hashing is stable, and any field perturbation changes
// the hash — a collision between perturbed keys would let two distinct
// configurations alias one cache entry.
func FuzzStoreKey(f *testing.F) {
	f.Add("mcf", uint64(1), 64, 1e-4, false)
	f.Add("a\"b;c=d{e}", uint64(0), 0, math.NaN(), true)
	f.Add("", ^uint64(0), -1, math.Inf(-1), false)
	f.Add("libquantum\x00x", uint64(42), 1<<20, -0.0, true)
	f.Fuzz(func(t *testing.T, bench string, seed uint64, rob int, rate float64, pair bool) {
		cfg := core.RL(8)
		cfg.Seed = seed
		cfg.ROBSize = rob
		cfg.CritParityErrorRate = rate
		k := RunKey{Cfg: cfg.Key(), Bench: bench, Scale: core.TestScale(), Pair: pair}

		c1, c2 := k.Canonical(), k.Canonical()
		if !bytes.Equal(c1, c2) {
			t.Fatal("canonical encoding is not stable")
		}
		if k.Hash() != k.Hash() {
			t.Fatal("hash is not stable")
		}

		// Single-field perturbations must always move the hash.
		perturbed := []RunKey{}
		kb := k
		kb.Bench = bench + "x"
		perturbed = append(perturbed, kb)
		ks := k
		ks.Cfg.Seed = seed + 1
		perturbed = append(perturbed, ks)
		kp := k
		kp.Pair = !pair
		perturbed = append(perturbed, kp)
		kr := k
		kr.Scale.MeasureReads++
		perturbed = append(perturbed, kr)
		kf := k
		kf.Cfg.CritParityErrorRate = math.Float64frombits(math.Float64bits(rate) ^ 1)
		perturbed = append(perturbed, kf)
		for i, p := range perturbed {
			if p.Hash() == k.Hash() {
				t.Fatalf("perturbation %d did not change the hash", i)
			}
		}
	})
}

// FuzzEntryCodec exercises the entry encode/decode round trip and its
// corruption contract: a fuzz-built Results round-trips exactly, and a
// fuzz-chosen byte mutation of the encoded entry either fails to
// decode or decodes to the exact original — never to different data.
func FuzzEntryCodec(f *testing.F) {
	f.Add("mcf", 1.25, uint64(100), int64(5000), uint(3), byte(0x01))
	f.Add("", math.NaN(), uint64(0), int64(0), uint(0), byte(0xff))
	f.Add("lbm", math.Inf(1), ^uint64(0), int64(1)<<40, uint(1000), byte(0x80))
	f.Fuzz(func(t *testing.T, bench string, ipc float64, reads uint64, cyc int64, pos uint, flip byte) {
		k := testKey("fuzz", 7)
		k.Bench = bench
		res := core.Results{
			Benchmark:   bench,
			Config:      "RL",
			Cycles:      sim.Cycle(cyc),
			IPCs:        []float64{ipc, -ipc, math.Float64frombits(reads)},
			SumIPC:      ipc * 2,
			DemandReads: reads,
			Epochs: &telemetry.Series{
				Cols:   []string{"m"},
				Cycles: []sim.Cycle{sim.Cycle(cyc)},
				Data:   []float64{ipc},
			},
		}
		h := k.Hash()
		b, err := encodeEntry(k, h, res)
		if err != nil {
			t.Fatalf("encode: %v", err)
		}
		got, err := decodeEntry(b, h)
		if err != nil {
			t.Fatalf("decode of a fresh encode failed: %v", err)
		}
		// Equality is judged on the deterministic re-encoding: exact to
		// the bit, and NaN-tolerant where DeepEqual is not.
		reEnc, err := encodeEntry(k, h, got)
		if err != nil || !bytes.Equal(reEnc, b) {
			t.Fatalf("round trip diverged:\n got %+v\nwant %+v", got, res)
		}

		// Deterministic encode: a second encode is byte-identical (the
		// content address depends on it).
		b2, err := encodeEntry(k, h, res)
		if err != nil || !bytes.Equal(b, b2) {
			t.Fatal("encode is not deterministic")
		}

		// Corruption: flip bytes at a fuzz-chosen position.
		if flip != 0 && len(b) > 0 {
			c := append([]byte(nil), b...)
			c[int(pos)%len(c)] ^= flip
			if mut, err := decodeEntry(c, h); err == nil {
				if me, err := encodeEntry(k, h, mut); err != nil || !bytes.Equal(me, b) {
					t.Fatal("corrupted entry decoded to different results")
				}
			}
		}

		// Truncation at the fuzz position must never succeed with
		// different data either.
		if tr, err := decodeEntry(b[:int(pos)%(len(b)+1)], h); err == nil {
			if te, err := encodeEntry(k, h, tr); err != nil || !bytes.Equal(te, b) {
				t.Fatal("truncated entry decoded to different results")
			}
		}

		// Arbitrary garbage (the raw fuzz string) must error, not panic.
		if _, err := decodeEntry([]byte(bench), h); err == nil && len(bench) > 0 {
			// A fuzz string that is a valid entry for this key would be
			// a checksum collision; treat as failure.
			t.Fatal("garbage decoded successfully")
		}
	})
}
