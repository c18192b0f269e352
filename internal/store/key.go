// Package store is the durable tier of the run memo: a
// content-addressed, on-disk result store keyed by a stable hash of
// the complete identity of one simulation execution — the comparable
// core.ConfigKey (which already folds in cores, seed, placement,
// faults, …), the benchmark name, the run scale, and the pair/single
// run mode. Byte-determinism of the simulator (pinned since PR 1 at
// any -j, re-verified by the PR 5 differentials) is what makes a
// persistent hit provably safe: equal keys produce bit-identical
// Results, so a stored entry can stand in for a re-run anywhere, in
// any process, on any later day.
//
// Entries are written atomically (temp file + rename into place),
// carry a corruption-detecting SHA-256 checksum and a codec schema
// version, and live under content-derived paths
// (objects/<hh>/<hash>.run). Any decode failure — truncation, bit
// rot, a stale schema — is a miss, never a wrong hit: the caller
// re-runs and the fresh Put heals the entry.
package store

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"reflect"
	"strconv"

	"hetsim/internal/core"
)

// keyFormat versions the canonical key encoding itself. Bump it if the
// encoding below ever changes shape (field ordering is covered
// automatically: it follows struct declaration order, and any field
// addition changes the encoded bytes).
const keyFormat = "hetsim-runkey-v1"

// RunKey identifies one simulation execution for the durable store.
// Two executions with equal RunKeys produce bit-identical Results.
type RunKey struct {
	// Cfg is the comparable configuration identity (includes NCores,
	// Seed, placement, fault environment, …).
	Cfg core.ConfigKey
	// Bench is the workload name.
	Bench string
	// Scale sizes the run; it is part of the identity because warmup
	// and measured-read counts change every reported number.
	Scale core.RunScale
	// Pair distinguishes a RunPair execution (shared run plus the two
	// stand-alone references that fill the throughput columns) from a
	// single shared run.
	Pair bool
}

// Canonical renders the key as deterministic bytes: every exported
// field of every nested struct in declaration order, floats by exact
// bit pattern, strings quoted. The encoding is produced by reflection
// so a field added to core.ConfigKey (or faults.Key, or RunScale) can
// never be silently omitted from the identity.
func (k RunKey) Canonical() []byte {
	b := append([]byte(keyFormat), ';')
	return appendCanonical(b, reflect.ValueOf(k))
}

// Hash is the content address of the key: hex SHA-256 of Canonical.
func (k RunKey) Hash() string {
	sum := sha256.Sum256(k.Canonical())
	return hex.EncodeToString(sum[:])
}

// appendCanonical writes one reflected value. Only the kinds that
// actually occur in RunKey are supported; anything else panics so a
// future non-canonicalizable field (map, pointer, func) fails loudly
// in every test that touches the store rather than aliasing keys.
func appendCanonical(b []byte, v reflect.Value) []byte {
	switch v.Kind() {
	case reflect.Bool:
		return strconv.AppendBool(b, v.Bool())
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		return strconv.AppendInt(b, v.Int(), 10)
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		return strconv.AppendUint(b, v.Uint(), 10)
	case reflect.Float32, reflect.Float64:
		// Bit pattern, not decimal rendering: distinct NaN payloads and
		// signed zeros stay distinct, and no formatting choice can ever
		// collide two different floats.
		return strconv.AppendUint(b, math.Float64bits(v.Float()), 16)
	case reflect.String:
		return strconv.AppendQuote(b, v.String())
	case reflect.Struct:
		t := v.Type()
		b = append(b, '{')
		for i := 0; i < t.NumField(); i++ {
			if i > 0 {
				b = append(b, ';')
			}
			b = append(b, t.Field(i).Name...)
			b = append(b, '=')
			b = appendCanonical(b, v.Field(i))
		}
		return append(b, '}')
	default:
		panic(fmt.Sprintf("store: cannot canonicalize kind %v (%v)", v.Kind(), v.Type()))
	}
}
