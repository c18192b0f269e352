package telemetry

import (
	"bytes"
	"encoding/csv"
	"encoding/json"
	"math"
	"strings"
	"testing"

	"hetsim/internal/sim"
	"hetsim/internal/stats"
)

func TestRegistryModes(t *testing.T) {
	reg := NewRegistry()
	var c uint64
	var retired uint64
	depth := 0
	var m stats.Mean
	h := stats.NewHistogram(4, 10)
	cum := 0.0

	reg.Counter("reads", &c)
	reg.CounterRate("ipc", &retired)
	reg.Gauge("depth", func() float64 { return float64(depth) })
	reg.Accum("energy", func() float64 { return cum })
	reg.Mean("lat", &m)
	reg.Histogram("gap", h)

	if reg.Len() != 6 {
		t.Fatalf("len = %d", reg.Len())
	}
	sink := NewMemorySink()
	s := NewSampler(reg, 100, sink)
	s.Reset(0)

	// Epoch 1: 5 reads, 200 retired, depth 3, 1.5 energy, two lat
	// samples of 10 and 20, one gap sample of 7.
	c = 5
	retired = 200
	depth = 3
	cum = 1.5
	m.Add(10)
	m.Add(20)
	h.Add(7)
	s.Tick(100)

	// Epoch 2: nothing happens except depth drops.
	depth = 1
	s.Tick(200)

	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	ser := sink.Series()
	if ser.NumRows() != 2 {
		t.Fatalf("rows = %d", ser.NumRows())
	}
	want1 := map[string]float64{"reads": 5, "ipc": 2, "depth": 3, "energy": 1.5, "lat": 15, "gap": 7}
	for name, w := range want1 {
		if got, ok := ser.Value(0, name); !ok || got != w {
			t.Errorf("epoch1 %s = %v, want %v", name, got, w)
		}
	}
	want2 := map[string]float64{"reads": 0, "ipc": 0, "depth": 1, "energy": 0, "lat": 0, "gap": 0}
	for name, w := range want2 {
		if got, ok := ser.Value(1, name); !ok || got != w {
			t.Errorf("epoch2 %s = %v, want %v", name, got, w)
		}
	}
}

func TestRegistryDuplicatePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate registration did not panic")
		}
	}()
	reg := NewRegistry()
	var c uint64
	reg.Counter("x", &c)
	reg.Counter("x", &c)
}

func TestViewWindowSemantics(t *testing.T) {
	reg := NewRegistry()
	var c uint64
	var m stats.Mean
	reg.Counter("c", &c)
	reg.Mean("m", &m)

	c = 10
	m.Add(100)
	start := reg.Snapshot(50)
	c = 25
	m.Add(30)
	m.Add(50)
	end := reg.Snapshot(150)

	v := NewView(reg, start, end)
	if v.Elapsed() != 100 {
		t.Fatalf("elapsed = %d", v.Elapsed())
	}
	if v.Delta("c") != 15 {
		t.Fatalf("delta = %v", v.Delta("c"))
	}
	if v.WindowMean("m") != 40 {
		t.Fatalf("window mean = %v, want 40", v.WindowMean("m"))
	}
	if v.Count("m") != 2 {
		t.Fatalf("count = %v", v.Count("m"))
	}
}

func TestCSVSink(t *testing.T) {
	reg := NewRegistry()
	var c uint64
	reg.Counter("hits", &c)
	var buf bytes.Buffer
	s := NewSampler(reg, 10, NewCSVSink(&buf))
	s.Reset(0)
	c = 3
	s.Tick(10)
	c = 4
	s.Tick(20)
	if buf.Len() != 0 {
		t.Fatal("CSV sink wrote inside the timed path")
	}
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	want := "cycle,hits\n10,3\n20,1\n"
	if buf.String() != want {
		t.Fatalf("csv = %q, want %q", buf.String(), want)
	}
}

func TestJSONLSinkValidJSON(t *testing.T) {
	reg := NewRegistry()
	var c uint64
	reg.Counter("hits", &c)
	reg.Gauge("bad", func() float64 { return math.Inf(1) })
	var buf bytes.Buffer
	s := NewSampler(reg, 10, NewJSONLSink(&buf))
	s.Reset(0)
	c = 7
	s.Tick(10)
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	line := strings.TrimSpace(buf.String())
	var obj map[string]any
	if err := json.Unmarshal([]byte(line), &obj); err != nil {
		t.Fatalf("invalid JSON %q: %v", line, err)
	}
	if obj["cycle"].(float64) != 10 || obj["hits"].(float64) != 7 {
		t.Fatalf("line = %q", line)
	}
	if v, present := obj["bad"]; !present || v != nil {
		t.Fatalf("non-finite value must serialize as null, got %v", v)
	}
}

func TestSeriesWriters(t *testing.T) {
	ser := &Series{
		Cols:   []string{"a", "b"},
		Cycles: []sim.Cycle{100, 200},
		Data:   []float64{1, 2.5, 3, 4},
	}
	var buf bytes.Buffer
	cw := csv.NewWriter(&buf)
	if err := ser.WriteCSV(cw, true, []string{"config"}, []string{"RL"}); err != nil {
		t.Fatal(err)
	}
	cw.Flush()
	want := "config,cycle,a,b\nRL,100,1,2.5\nRL,200,3,4\n"
	if buf.String() != want {
		t.Fatalf("csv = %q, want %q", buf.String(), want)
	}

	buf.Reset()
	if err := ser.WriteJSONL(&buf, []string{"config"}, []string{"RL"}); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 2 {
		t.Fatalf("lines = %d", len(lines))
	}
	var obj map[string]any
	if err := json.Unmarshal([]byte(lines[1]), &obj); err != nil {
		t.Fatal(err)
	}
	if obj["config"] != "RL" || obj["cycle"].(float64) != 200 || obj["a"].(float64) != 3 {
		t.Fatalf("line = %q", lines[1])
	}
}

func TestSeriesSameCols(t *testing.T) {
	a := &Series{Cols: []string{"x", "y"}}
	b := &Series{Cols: []string{"x", "y"}}
	c := &Series{Cols: []string{"x", "z"}}
	if !a.SameCols(b) || a.SameCols(c) {
		t.Fatal("SameCols broken")
	}
}

// TestSamplerZeroAlloc pins the steady-state allocation of a tick with
// every probe kind registered and a discard-style sink attached: the
// read path, mode arithmetic, and row handoff must all be free.
func TestSamplerZeroAlloc(t *testing.T) {
	reg := NewRegistry()
	var c, r uint64
	var m stats.Mean
	h := stats.NewHistogram(8, 10)
	reg.Counter("c", &c)
	reg.CounterRate("r", &r)
	reg.Gauge("g", func() float64 { return 1 })
	reg.Accum("a", func() float64 { return float64(c) * 2 })
	reg.Mean("m", &m)
	reg.Histogram("h", h)

	s := NewSampler(reg, 10) // no sinks: isolates the sampler itself
	s.Reset(0)
	now := sim.Cycle(0)
	avg := testing.AllocsPerRun(200, func() {
		c += 3
		r += 7
		m.Add(1)
		h.Add(5)
		now += 10
		s.Tick(now)
	})
	if avg != 0 {
		t.Fatalf("sampler tick allocates %.2f objects; must be 0", avg)
	}
}

// TestMemorySinkAmortized verifies the in-memory sink's growth is
// amortized append-only: ticking thousands of epochs stays well under
// one allocation per epoch.
func TestMemorySinkAmortized(t *testing.T) {
	reg := NewRegistry()
	var c uint64
	reg.Counter("c", &c)
	sink := NewMemorySink()
	s := NewSampler(reg, 10, sink)
	s.Reset(0)
	now := sim.Cycle(0)
	avg := testing.AllocsPerRun(5000, func() {
		c++
		now += 10
		s.Tick(now)
	})
	if avg > 0.1 {
		t.Fatalf("memory sink allocates %.3f objects/epoch; growth is not amortized", avg)
	}
}
