package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"time"
)

// span is one timed interval of the traced run. Spans of one cell share
// its id.
type span struct {
	name       string
	id, tid    int
	start, end time.Time
}

// spanLog keeps the traced run's spans in memory until they are written
// out as Chrome trace-event JSON. Every method is a no-op on a nil log,
// which is how the untraced run records nothing.
type spanLog struct {
	mu     sync.Mutex
	origin time.Time
	nextID int
	spans  []span
}

func newSpanLog() *spanLog { return &spanLog{origin: time.Now()} }

func (l *spanLog) newID() int {
	if l == nil {
		return 0
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	l.nextID++
	return l.nextID
}

func (l *spanLog) add(name string, id, tid int, start, end time.Time) {
	if l == nil {
		return
	}
	l.mu.Lock()
	l.spans = append(l.spans, span{name, id, tid, start, end})
	l.mu.Unlock()
}

// writeChrome writes the spans as complete ("X") trace events, which
// chrome://tracing and Perfetto open directly.
func (l *spanLog) writeChrome(path string) error {
	type event struct {
		Name string         `json:"name"`
		Ph   string         `json:"ph"`
		TS   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		PID  int            `json:"pid"`
		TID  int            `json:"tid"`
		Args map[string]int `json:"args"`
	}
	var evs []event
	for _, s := range l.spans {
		evs = append(evs, event{Name: s.name, Ph: "X",
			TS:  float64(s.start.Sub(l.origin).Nanoseconds()) / 1e3,
			Dur: float64(s.end.Sub(s.start).Nanoseconds()) / 1e3,
			PID: 1, TID: s.tid, Args: map[string]int{"id": s.id}})
	}
	b, err := json.Marshal(map[string]any{"traceEvents": evs, "displayTimeUnit": "ms"})
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

// layers are the buckets host time is attributed to: the simulator's
// packages, runtime (stacks with no simulator frame, such as GC workers),
// other (any other hetsim/internal package) and hetbench (this
// benchmark's own code).
var layers = []string{"sim", "memctrl", "dram", "cpu", "cache", "core", "workload", "prefetch",
	"telemetry", "power", "store", "exp", "runpool", "runtime", "other", "hetbench"}

// layerOf attributes one stack, innermost frame first, to the innermost
// hetsim/internal package that is not a utility: the sim RNG and stats
// count toward their caller.
func layerOf(frames []string) string {
	sawMain := false
	for _, f := range frames {
		rest, ok := strings.CutPrefix(f, "hetsim/internal/")
		if !ok {
			sawMain = sawMain || strings.HasPrefix(f, "main.")
			continue
		}
		pkg, fn, _ := strings.Cut(rest, ".")
		if pkg == "stats" || (pkg == "sim" && strings.HasPrefix(fn, "(*RNG)")) {
			continue
		}
		for _, l := range layers {
			if l == pkg {
				return pkg
			}
		}
		return "other"
	}
	if sawMain {
		return "hetbench"
	}
	return "runtime"
}

// hostProfile is a CPU profile reduced to what the metrics need.
type hostProfile struct {
	total   int64            // CPU nanoseconds sampled
	self    map[string]int64 // per layer
	prewarm int64            // under core.(*System).prewarm
	setup   int64            // under core.NewSystem
}

func summarize(samples []stackSample) hostProfile {
	p := hostProfile{self: map[string]int64{}}
	for _, s := range samples {
		p.total += s.ns
		p.self[layerOf(s.frames)] += s.ns
		if hasFrame(s.frames, "hetsim/internal/core.(*System).prewarm") {
			p.prewarm += s.ns
		}
		if hasFrame(s.frames, "hetsim/internal/core.NewSystem") {
			p.setup += s.ns
		}
	}
	return p
}

func hasFrame(frames []string, name string) bool {
	for _, f := range frames {
		if f == name {
			return true
		}
	}
	return false
}

// stackSample is one profile sample: function names, innermost first,
// and the CPU time it stands for.
type stackSample struct {
	frames []string
	ns     int64
}

var errProfile = errors.New("malformed profile")

// readProfile decodes the gzipped profile.proto that runtime/pprof
// writes. Only the fields the attribution needs are read: sample types,
// samples, locations with their (possibly inlined) lines, functions and
// the string table.
func readProfile(gz []byte) ([]stackSample, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, err
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, err
	}
	type rawSample struct {
		locs   []uint64
		values []uint64
	}
	var (
		strs     []string
		types    []uint64 // string index of each sample type
		samples  []rawSample
		funcName = map[uint64]uint64{}   // function id → string index
		locFuncs = map[uint64][]uint64{} // location id → function ids, innermost first
	)
	err = eachField(raw, func(num int, wire uint64, v uint64, data []byte) error {
		switch num {
		case 1: // sample_type
			return eachField(data, func(n int, _ uint64, v uint64, _ []byte) error {
				if n == 1 {
					types = append(types, v)
				}
				return nil
			})
		case 2: // sample
			var s rawSample
			err := eachField(data, func(n int, w uint64, v uint64, d []byte) (err error) {
				switch n {
				case 1:
					s.locs, err = appendVarints(s.locs, w, v, d)
				case 2:
					s.values, err = appendVarints(s.values, w, v, d)
				}
				return err
			})
			samples = append(samples, s)
			return err
		case 4: // location
			var id uint64
			var fns []uint64
			err := eachField(data, func(n int, _ uint64, v uint64, d []byte) error {
				switch n {
				case 1:
					id = v
				case 4: // line
					return eachField(d, func(n int, _ uint64, v uint64, _ []byte) error {
						if n == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			locFuncs[id] = fns
			return err
		case 5: // function
			var id, name uint64
			err := eachField(data, func(n int, _ uint64, v uint64, _ []byte) error {
				switch n {
				case 1:
					id = v
				case 2:
					name = v
				}
				return nil
			})
			funcName[id] = name
			return err
		case 6: // string_table
			strs = append(strs, string(data))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	str := func(i uint64) string {
		if i < uint64(len(strs)) {
			return strs[i]
		}
		return ""
	}
	cpu := len(types) - 1
	for i, t := range types {
		if str(t) == "cpu" {
			cpu = i
		}
	}
	out := make([]stackSample, 0, len(samples))
	for _, s := range samples {
		if cpu < 0 || cpu >= len(s.values) {
			return nil, fmt.Errorf("%w: sample without a cpu value", errProfile)
		}
		st := stackSample{ns: int64(s.values[cpu])}
		for _, loc := range s.locs {
			for _, fn := range locFuncs[loc] {
				st.frames = append(st.frames, str(funcName[fn]))
			}
		}
		out = append(out, st)
	}
	return out, nil
}

// eachField walks one protobuf message, calling fn with each field's
// number, wire type, and either its varint/fixed value or its bytes.
func eachField(b []byte, fn func(num int, wire uint64, v uint64, data []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errProfile
		}
		b = b[n:]
		var v uint64
		var data []byte
		switch wire := key & 7; wire {
		case 0:
			v, n = binary.Uvarint(b)
			if n <= 0 {
				return errProfile
			}
			b = b[n:]
		case 1:
			if len(b) < 8 {
				return errProfile
			}
			v, b = binary.LittleEndian.Uint64(b), b[8:]
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || l > uint64(len(b)-n) {
				return errProfile
			}
			data, b = b[n:n+int(l)], b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errProfile
			}
			v, b = uint64(binary.LittleEndian.Uint32(b)), b[4:]
		default:
			return errProfile
		}
		if err := fn(int(key>>3), key&7, v, data); err != nil {
			return err
		}
	}
	return nil
}

// appendVarints appends a repeated varint field, which an encoder may
// write packed (wire type 2) or one value at a time (wire type 0).
func appendVarints(dst []uint64, wire, v uint64, data []byte) ([]uint64, error) {
	if wire == 0 {
		return append(dst, v), nil
	}
	for len(data) > 0 {
		x, n := binary.Uvarint(data)
		if n <= 0 {
			return nil, errProfile
		}
		dst, data = append(dst, x), data[n:]
	}
	return dst, nil
}
