package store

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"reflect"
	"sync"
	"unsafe"

	"hetsim/internal/core"
)

// Schema versions the entry payload encoding and the meaning of the
// stored Results. The payload carries no field names, so bump it
// whenever core.Results (or anything it reaches) gains, loses,
// reorders or reinterprets a field, the payload encoding changes shape,
// or the simulator's outputs change for identical configs: every
// existing entry then decodes as stale and is transparently re-run and
// overwritten. TestSchemaPinsResultsLayout fails until a layout change
// comes with a bump. (The key hash, by contrast, changes automatically
// whenever a configuration-identity field is added.)
//
// Schema 1 carried a gob payload; schema 2 is the field walk below.
const Schema = 2

// magic leads every entry file.
var magic = []byte("HETSTOR1")

// header is the self-describing JSON line between the magic and the
// payload. It binds the payload to its key and guards it with a
// checksum; the header itself needs no checksum because every field
// is verified against an independent expectation (magic bytes, schema
// constant, requested key, payload length and digest).
type header struct {
	Schema int    `json:"schema"`
	Key    string `json:"key"`         // hex SHA-256 of the RunKey canonical form
	Len    int    `json:"payload_len"` // payload byte count
	Sum    string `json:"payload_sha"` // hex SHA-256 of the payload
	Config string `json:"config"`      // human-readable identity, not verified
	Bench  string `json:"bench"`       //
}

// Decode failure classes, surfaced in Store.Stats.
var (
	errMagic    = errors.New("store: bad magic")
	errSchema   = errors.New("store: stale schema")
	errKey      = errors.New("store: entry/key mismatch")
	errChecksum = errors.New("store: payload checksum mismatch")
	errPayload  = errors.New("store: malformed payload")
)

// payloadBufs recycles the scratch buffer a payload is encoded into
// before it is copied, at its exact size, behind the header.
var payloadBufs = sync.Pool{New: func() any { return new([]byte) }}

// encodeEntry renders one entry for the key whose hash is hash: magic,
// header line, payload. The payload walks the Results field by field
// (see appendValue) and stores every float as its exact bit pattern,
// so Results round-trip bit-identically — including NaNs a degenerate
// run might record — which is what lets a warm (all-hits) sweep
// reproduce a cold sweep's output byte for byte.
func encodeEntry(k RunKey, hash string, res core.Results) ([]byte, error) {
	bp := payloadBufs.Get().(*[]byte)
	defer payloadBufs.Put(bp)
	payload, err := appendValue((*bp)[:0], reflect.ValueOf(res))
	*bp = payload
	if err != nil {
		return nil, err
	}
	sum := sha256.Sum256(payload)
	h := header{
		Schema: Schema,
		Key:    hash,
		Len:    len(payload),
		Sum:    hex.EncodeToString(sum[:]),
		Config: k.Cfg.Name,
		Bench:  k.Bench,
	}
	hb, err := json.Marshal(h)
	if err != nil {
		return nil, fmt.Errorf("store: encode header: %w", err)
	}
	out := make([]byte, 0, len(magic)+1+len(hb)+1+len(payload))
	out = append(out, magic...)
	out = append(out, '\n')
	out = append(out, hb...)
	out = append(out, '\n')
	out = append(out, payload...)
	return out, nil
}

// decodeEntry parses and verifies one entry against the hash of the
// key the caller is looking up. A flip anywhere in the magic, the
// verified header fields, or the payload yields an error — never
// silently different Results (the advisory config/bench labels are
// the one unverified region; they carry no data). The payload decoder
// only ever sees bytes whose SHA-256 matched the header, so corrupted
// payloads cannot reach it; it is nonetheless hardened against
// arbitrary input (FuzzPayloadDecode).
func decodeEntry(b []byte, hash string) (core.Results, error) {
	if len(b) < len(magic)+1 || !bytes.Equal(b[:len(magic)], magic) || b[len(magic)] != '\n' {
		return core.Results{}, errMagic
	}
	rest := b[len(magic)+1:]
	nl := bytes.IndexByte(rest, '\n')
	if nl < 0 {
		return core.Results{}, fmt.Errorf("store: truncated header")
	}
	var h header
	if err := json.Unmarshal(rest[:nl], &h); err != nil {
		return core.Results{}, fmt.Errorf("store: parse header: %w", err)
	}
	if h.Schema != Schema {
		return core.Results{}, fmt.Errorf("%w: entry %d, current %d", errSchema, h.Schema, Schema)
	}
	if h.Key != hash {
		return core.Results{}, errKey
	}
	payload := rest[nl+1:]
	if len(payload) != h.Len {
		return core.Results{}, fmt.Errorf("store: payload is %d bytes, header says %d", len(payload), h.Len)
	}
	sum := sha256.Sum256(payload)
	if hex.EncodeToString(sum[:]) != h.Sum {
		return core.Results{}, errChecksum
	}
	var res core.Results
	d := decoder{b: payload}
	if err := d.value(reflect.ValueOf(&res).Elem()); err != nil {
		return core.Results{}, err
	}
	if len(d.b) != 0 {
		return core.Results{}, fmt.Errorf("%w: %d trailing bytes", errPayload, len(d.b))
	}
	return res, nil
}

// The payload is a walk of the value in struct declaration order, in
// the spirit of appendCanonical: a field added to core.Results (or to
// anything it reaches) is encoded without touching this file. Every
// scalar is one little-endian 64-bit word — bools as 0/1, ints and
// uints by value, floats by math.Float64bits — and strings are a
// length word plus their bytes. Slices and pointers lead with a 0/1
// presence byte so nil stays distinct from empty; a present slice is a
// length word plus its elements. Arrays and structs are their elements
// in order, with no framing. A slice of 64-bit numbers is thus one
// length word and a run of words, which both directions copy straight
// through its backing array instead of reflecting element by element.

// appendValue appends v's payload encoding. Kinds the walk does not
// support (maps, channels, funcs, interfaces, unexported fields) are
// an error, so such a field fails every Put instead of being dropped.
func appendValue(b []byte, v reflect.Value) ([]byte, error) {
	switch v.Kind() {
	case reflect.Bool:
		var w uint64
		if v.Bool() {
			w = 1
		}
		return binary.LittleEndian.AppendUint64(b, w), nil
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		return binary.LittleEndian.AppendUint64(b, uint64(v.Int())), nil
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		return binary.LittleEndian.AppendUint64(b, v.Uint()), nil
	case reflect.Float64:
		return binary.LittleEndian.AppendUint64(b, math.Float64bits(v.Float())), nil
	case reflect.String:
		b = binary.LittleEndian.AppendUint64(b, uint64(v.Len()))
		return append(b, v.String()...), nil
	case reflect.Pointer:
		if v.IsNil() {
			return append(b, 0), nil
		}
		return appendValue(append(b, 1), v.Elem())
	case reflect.Slice:
		if v.IsNil() {
			return append(b, 0), nil
		}
		b = binary.LittleEndian.AppendUint64(append(b, 1), uint64(v.Len()))
		if packed(v.Type()) {
			for _, w := range words(v) {
				b = binary.LittleEndian.AppendUint64(b, w)
			}
			return b, nil
		}
		fallthrough
	case reflect.Array:
		var err error
		for i := 0; i < v.Len() && err == nil; i++ {
			b, err = appendValue(b, v.Index(i))
		}
		return b, err
	case reflect.Struct:
		t := v.Type()
		var err error
		for i := 0; i < t.NumField() && err == nil; i++ {
			if !t.Field(i).IsExported() {
				return b, fmt.Errorf("store: cannot encode unexported field %v.%s", t, t.Field(i).Name)
			}
			b, err = appendValue(b, v.Field(i))
		}
		return b, err
	default:
		return b, fmt.Errorf("store: cannot encode kind %v (%v)", v.Kind(), v.Type())
	}
}

// packed reports whether a slice type's elements are 64-bit numbers,
// whose encoding is one word each.
func packed(t reflect.Type) bool {
	switch t.Elem().Kind() {
	case reflect.Int64, reflect.Uint64, reflect.Float64:
		return true
	}
	return false
}

// words views a packed slice's backing array as its raw 64-bit words:
// two's complement for ints, the IEEE bit pattern for floats.
func words(v reflect.Value) []uint64 {
	if v.Len() == 0 {
		return nil
	}
	return unsafe.Slice((*uint64)(v.UnsafePointer()), v.Len())
}

// minSize is the fewest payload bytes one value of type t can encode
// to, floored at one so a claimed slice length can never exceed the
// bytes left to decode it from.
func minSize(t reflect.Type) int {
	n := 0
	switch t.Kind() {
	case reflect.Pointer, reflect.Slice:
		n = 1
	case reflect.Array:
		n = t.Len() * minSize(t.Elem())
	case reflect.Struct:
		for i := 0; i < t.NumField(); i++ {
			n += minSize(t.Field(i).Type)
		}
	default:
		n = 8
	}
	return max(n, 1)
}

// decoder consumes a payload front to back. Every length it reads is
// checked against the bytes that remain before anything is allocated,
// so a hostile payload can make it allocate at most a small multiple
// of its own size.
type decoder struct{ b []byte }

func (d *decoder) word() (uint64, error) {
	if len(d.b) < 8 {
		return 0, fmt.Errorf("%w: truncated", errPayload)
	}
	w := binary.LittleEndian.Uint64(d.b)
	d.b = d.b[8:]
	return w, nil
}

// present reads a nil/non-nil presence byte.
func (d *decoder) present() (bool, error) {
	if len(d.b) < 1 || d.b[0] > 1 {
		return false, fmt.Errorf("%w: bad presence byte", errPayload)
	}
	p := d.b[0] == 1
	d.b = d.b[1:]
	return p, nil
}

// length reads a length word for elements at least elem bytes each.
func (d *decoder) length(elem int) (int, error) {
	w, err := d.word()
	if err != nil {
		return 0, err
	}
	if w > uint64(len(d.b)/elem) {
		return 0, fmt.Errorf("%w: length %d exceeds the %d bytes left", errPayload, w, len(d.b))
	}
	return int(w), nil
}

// value decodes into the settable v, mirroring appendValue.
func (d *decoder) value(v reflect.Value) error {
	switch v.Kind() {
	case reflect.Bool, reflect.Float64,
		reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64,
		reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		w, err := d.word()
		if err != nil {
			return err
		}
		return setWord(v, w)
	case reflect.String:
		n, err := d.length(1)
		if err != nil {
			return err
		}
		v.SetString(string(d.b[:n]))
		d.b = d.b[n:]
		return nil
	case reflect.Pointer:
		ok, err := d.present()
		if err != nil || !ok {
			return err
		}
		p := reflect.New(v.Type().Elem())
		v.Set(p)
		return d.value(p.Elem())
	case reflect.Slice:
		ok, err := d.present()
		if err != nil || !ok {
			return err
		}
		t := v.Type()
		n, err := d.length(minSize(t.Elem()))
		if err != nil {
			return err
		}
		v.Set(reflect.MakeSlice(t, n, n))
		if packed(t) {
			ws := words(v)
			for i := range ws {
				ws[i] = binary.LittleEndian.Uint64(d.b[8*i:])
			}
			d.b = d.b[8*n:]
			return nil
		}
		fallthrough
	case reflect.Array:
		for i := 0; i < v.Len(); i++ {
			if err := d.value(v.Index(i)); err != nil {
				return err
			}
		}
		return nil
	case reflect.Struct:
		t := v.Type()
		for i := 0; i < t.NumField(); i++ {
			if !t.Field(i).IsExported() {
				return fmt.Errorf("store: cannot decode unexported field %v.%s", t, t.Field(i).Name)
			}
			if err := d.value(v.Field(i)); err != nil {
				return err
			}
		}
		return nil
	default:
		return fmt.Errorf("store: cannot decode kind %v (%v)", v.Kind(), v.Type())
	}
}

// setWord stores one scalar word into v, rejecting the words no value
// of v's type encodes to, so only canonical payloads decode.
func setWord(v reflect.Value, w uint64) error {
	switch v.Kind() {
	case reflect.Bool:
		if w > 1 {
			return fmt.Errorf("%w: bool word %d", errPayload, w)
		}
		v.SetBool(w == 1)
	case reflect.Float64:
		v.SetFloat(math.Float64frombits(w))
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		if v.OverflowUint(w) {
			return fmt.Errorf("%w: %d overflows %v", errPayload, w, v.Type())
		}
		v.SetUint(w)
	default:
		if v.OverflowInt(int64(w)) {
			return fmt.Errorf("%w: %d overflows %v", errPayload, int64(w), v.Type())
		}
		v.SetInt(int64(w))
	}
	return nil
}
