package store

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"reflect"
	"runtime"
	"testing"

	"hetsim/internal/core"
)

// specials are the float bit patterns a payload must carry exactly:
// a NaN with a payload, negative zero, both infinities, the smallest
// subnormal, and an ordinary value.
var specials = []float64{
	math.Float64frombits(0x7ff8_0000_0000_0abc),
	math.Copysign(0, -1),
	math.Inf(1),
	math.Inf(-1),
	math.Float64frombits(1),
	1.0 / 3,
}

// fill sets every leaf reachable from v to a non-zero value: floats
// cycle through specials, slices get three elements, pointers are
// allocated. A kind it does not know fails the test, so a new kind of
// Results field forces this test (and the codec) to be revisited.
func fill(t *testing.T, v reflect.Value, n *int) {
	t.Helper()
	*n++
	switch v.Kind() {
	case reflect.Bool:
		v.SetBool(true)
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		v.SetInt(-int64(*n))
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		v.SetUint(math.MaxUint64 - uint64(*n))
	case reflect.Float64:
		v.SetFloat(specials[*n%len(specials)])
	case reflect.String:
		v.SetString(fmt.Sprintf("s%d\x00\"\n", *n))
	case reflect.Pointer:
		v.Set(reflect.New(v.Type().Elem()))
		fill(t, v.Elem(), n)
	case reflect.Slice:
		v.Set(reflect.MakeSlice(v.Type(), 3, 3))
		fallthrough
	case reflect.Array:
		for i := 0; i < v.Len(); i++ {
			fill(t, v.Index(i), n)
		}
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			fill(t, v.Field(i), n)
		}
	default:
		t.Fatalf("fill: unsupported kind %v (%v)", v.Kind(), v.Type())
	}
}

// sameBits compares two values leaf by leaf without going through the
// codec: floats by math.Float64bits, slices and pointers by nil-ness
// as well as content. It returns the path of the first difference.
func sameBits(a, b reflect.Value, path string) error {
	switch a.Kind() {
	case reflect.Float64:
		if math.Float64bits(a.Float()) != math.Float64bits(b.Float()) {
			return fmt.Errorf("%s: %x != %x", path, math.Float64bits(a.Float()), math.Float64bits(b.Float()))
		}
	case reflect.Pointer, reflect.Slice:
		if a.IsNil() != b.IsNil() {
			return fmt.Errorf("%s: nil %v != nil %v", path, a.IsNil(), b.IsNil())
		}
		if a.Kind() == reflect.Pointer {
			if a.IsNil() {
				return nil
			}
			return sameBits(a.Elem(), b.Elem(), path)
		}
		fallthrough
	case reflect.Array:
		if a.Len() != b.Len() {
			return fmt.Errorf("%s: len %d != %d", path, a.Len(), b.Len())
		}
		for i := 0; i < a.Len(); i++ {
			if err := sameBits(a.Index(i), b.Index(i), fmt.Sprintf("%s[%d]", path, i)); err != nil {
				return err
			}
		}
	case reflect.Struct:
		for i := 0; i < a.NumField(); i++ {
			if err := sameBits(a.Field(i), b.Field(i), path+"."+a.Type().Field(i).Name); err != nil {
				return err
			}
		}
	default:
		if a.Interface() != b.Interface() {
			return fmt.Errorf("%s: %v != %v", path, a.Interface(), b.Interface())
		}
	}
	return nil
}

func roundTrip(t *testing.T, res core.Results) core.Results {
	t.Helper()
	k := testKey("codec", 3)
	b, err := encodeEntry(k, k.Hash(), res)
	if err != nil {
		t.Fatal(err)
	}
	got, err := decodeEntry(b, k.Hash())
	if err != nil {
		t.Fatal(err)
	}
	return got
}

// TestCodecRoundTripsEveryField takes over the guarantee gob gave
// implicitly: every field of core.Results, filled by reflection so a
// new field is covered the day it is added, survives the payload codec
// bit for bit.
func TestCodecRoundTripsEveryField(t *testing.T) {
	var res core.Results
	n := 0
	fill(t, reflect.ValueOf(&res).Elem(), &n)
	if res.Epochs == nil || len(res.Epochs.Data) == 0 {
		t.Fatal("fill did not build an epoch series")
	}
	got := roundTrip(t, res)
	if err := sameBits(reflect.ValueOf(res), reflect.ValueOf(got), "Results"); err != nil {
		t.Fatal(err)
	}

	// Nil and empty slices are distinct values and stay distinct.
	res.IPCs = nil
	res.Epochs.Cols = []string{}
	got = roundTrip(t, res)
	if got.IPCs != nil || got.Epochs.Cols == nil || len(got.Epochs.Cols) != 0 {
		t.Fatalf("nil/empty slices not preserved: IPCs %#v, Cols %#v", got.IPCs, got.Epochs.Cols)
	}
	if err := sameBits(reflect.ValueOf(res), reflect.ValueOf(got), "Results"); err != nil {
		t.Fatal(err)
	}

	res.Epochs = nil
	if got := roundTrip(t, res); got.Epochs != nil {
		t.Fatal("nil Epochs decoded as a series")
	}
}

// TestCodecRejectsUnsupportedKinds: a field the walk cannot encode is
// an error from both directions, never silently dropped.
func TestCodecRejectsUnsupportedKinds(t *testing.T) {
	for _, v := range []any{
		map[string]int{"a": 1},
		struct{ hidden int }{1},
		float32(1),
	} {
		if _, err := appendValue(nil, reflect.ValueOf(v)); err == nil {
			t.Errorf("%T encoded without error", v)
		}
		d := decoder{b: make([]byte, 64)}
		if err := d.value(reflect.New(reflect.TypeOf(v)).Elem()); err == nil {
			t.Errorf("%T decoded without error", v)
		}
	}
}

// entryWithHeader lays out an entry file: magic, the header as one
// JSON line, the payload.
func entryWithHeader(t testing.TB, h header, payload []byte) []byte {
	t.Helper()
	hb, err := json.Marshal(h)
	if err != nil {
		t.Fatal(err)
	}
	out := append(append([]byte(nil), magic...), '\n')
	out = append(append(out, hb...), '\n')
	return append(out, payload...)
}

// wrapPayload builds the entry encodeEntry would write for k around an
// arbitrary payload, with a header whose length and checksum match it.
func wrapPayload(t testing.TB, k RunKey, payload []byte) []byte {
	sum := sha256.Sum256(payload)
	return entryWithHeader(t, header{Schema: Schema, Key: k.Hash(), Len: len(payload),
		Sum: hex.EncodeToString(sum[:]), Config: k.Cfg.Name, Bench: k.Bench}, payload)
}

// payloadOf strips the magic and header line from an entry.
func payloadOf(entry []byte) []byte {
	rest := entry[len(magic)+1:]
	return rest[bytes.IndexByte(rest, '\n')+1:]
}

// FuzzPayloadDecode puts the payload decoder itself under the fuzzer.
// FuzzEntryCodec mutates whole entries, so the checksum rejects almost
// every mutation before the decoder runs; here the header's length and
// checksum are rewritten to match the mutated payload. Decoding must
// return an error or data — never panic — and allocate no more than a
// small multiple of the payload's size, whatever lengths it claims.
// Data it accepts must re-encode to the same bytes, so no two payloads
// decode to one Results.
func FuzzPayloadDecode(f *testing.F) {
	k := testKey("fuzz", 7)
	for _, res := range []core.Results{{}, testResults("mcf"), benchResults()} {
		b, err := encodeEntry(k, k.Hash(), res)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(payloadOf(b))
	}
	// Empty Benchmark and Config, zero Cycles, then a present IPCs
	// slice claiming 2^62 elements.
	huge := append(make([]byte, 24), 1)
	f.Add(binary.LittleEndian.AppendUint64(huge, 1<<62))
	f.Add(bytes.Repeat([]byte{0xff}, 64))
	f.Fuzz(func(t *testing.T, payload []byte) {
		entry := wrapPayload(t, k, payload)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		res, err := decodeEntry(entry, k.Hash())
		runtime.ReadMemStats(&after)
		// Strings may cost twice their encoded minimum (a 16-byte header
		// per 8-byte length word) plus their bytes; the constant covers
		// the header parse and the Results value itself.
		if alloc := after.TotalAlloc - before.TotalAlloc; alloc > uint64(4*len(payload))+64<<10 {
			t.Fatalf("decoding a %d-byte payload allocated %d bytes", len(payload), alloc)
		}
		if err != nil {
			return
		}
		re, err := encodeEntry(k, k.Hash(), res)
		if err != nil {
			t.Fatalf("re-encode of decoded payload: %v", err)
		}
		if !bytes.Equal(re, entry) {
			t.Fatal("accepted payload does not re-encode to itself")
		}
	})
}

// layout renders a type's shape as the payload sees it: field names,
// kinds and nesting, in declaration order.
func layout(t reflect.Type) string {
	switch t.Kind() {
	case reflect.Pointer:
		return "*" + layout(t.Elem())
	case reflect.Slice:
		return "[]" + layout(t.Elem())
	case reflect.Array:
		return fmt.Sprintf("[%d]%s", t.Len(), layout(t.Elem()))
	case reflect.Struct:
		s := "{"
		for i := 0; i < t.NumField(); i++ {
			s += t.Field(i).Name + " " + layout(t.Field(i).Type) + ";"
		}
		return s + "}"
	default:
		return t.Kind().String()
	}
}

// resultsLayouts pins, per schema, the digest of the core.Results
// layout its payloads decode into.
var resultsLayouts = map[int]string{
	2: "add918aaa7cf7134",
}

// TestSchemaPinsResultsLayout: the payload has no field names, so an
// entry written before a field was added, removed or reordered would
// misdecode or fail without a Schema bump. A changed layout fails here
// until Schema moves and the new digest is recorded.
func TestSchemaPinsResultsLayout(t *testing.T) {
	sum := sha256.Sum256([]byte(layout(reflect.TypeOf(core.Results{}))))
	got := hex.EncodeToString(sum[:8])
	if want := resultsLayouts[Schema]; got != want {
		t.Fatalf("core.Results layout digest is %s, schema %d pins %q: bump store.Schema and record the new digest",
			got, Schema, want)
	}
}
