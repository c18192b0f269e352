package telemetry

import (
	"bytes"
	"encoding/csv"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"runtime"
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
	s := NewSampler(reg, 100)
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

	ser := s.Series()
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

// sampledHits records two epochs of one counter, 3 then 1 hits.
func sampledHits() *Series {
	reg := NewRegistry()
	var c uint64
	reg.Counter("hits", &c)
	s := NewSampler(reg, 10)
	s.Reset(0)
	c = 3
	s.Tick(10)
	c = 4
	s.Tick(20)
	return s.Series()
}

func readFile(t *testing.T, path string) string {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

func TestWriteFilesSampledCSV(t *testing.T) {
	path := filepath.Join(t.TempDir(), "e.csv")
	if err := WriteFiles(path, "", nil, []Run{{Series: sampledHits()}}); err != nil {
		t.Fatal(err)
	}
	want := "cycle,hits\n10,3\n20,1\n"
	if got := readFile(t, path); got != want {
		t.Fatalf("csv = %q, want %q", got, want)
	}
}

func TestWriteFilesJSONLNull(t *testing.T) {
	reg := NewRegistry()
	var c uint64
	reg.Counter("hits", &c)
	reg.Gauge("inf", func() float64 { return math.Inf(1) })
	reg.Gauge("neginf", func() float64 { return math.Inf(-1) })
	reg.Gauge("nan", func() float64 { return math.NaN() })
	s := NewSampler(reg, 10)
	s.Reset(0)
	c = 7
	s.Tick(10)
	path := filepath.Join(t.TempDir(), "e.jsonl")
	if err := WriteFiles("", path, nil, []Run{{Series: s.Series()}}); err != nil {
		t.Fatal(err)
	}
	line := strings.TrimSpace(readFile(t, path))
	var obj map[string]any
	if err := json.Unmarshal([]byte(line), &obj); err != nil {
		t.Fatalf("invalid JSON %q: %v", line, err)
	}
	if obj["cycle"].(float64) != 10 || obj["hits"].(float64) != 7 {
		t.Fatalf("line = %q", line)
	}
	for _, k := range []string{"inf", "neginf", "nan"} {
		if v, present := obj[k]; !present || v != nil {
			t.Fatalf("non-finite %s must serialize as null, got %v", k, v)
		}
	}
}

// TestWriteFilesLabelsAndHeaders: runs with columns A, A, B, A get a
// CSV header before the first, third and fourth run only, and every
// CSV row and JSONL object leads with the run's labels.
func TestWriteFilesLabelsAndHeaders(t *testing.T) {
	a := func(v float64) *Series {
		return &Series{Cols: []string{"x"}, Cycles: []sim.Cycle{10}, Data: []float64{v}}
	}
	b := &Series{Cols: []string{"x", "y"}, Cycles: []sim.Cycle{10}, Data: []float64{3, 4}}
	runs := []Run{
		{Labels: []string{"cores", "1"}, Series: a(1)},
		{Labels: []string{"cores", "2"}, Series: a(2)},
		{Labels: []string{"cores", "4"}, Series: b},
		{Labels: []string{"cores", "8"}, Series: a(5)},
	}
	dir := t.TempDir()
	csvPath, jsonlPath := filepath.Join(dir, "e.csv"), filepath.Join(dir, "e.jsonl")
	if err := WriteFiles(csvPath, jsonlPath, []string{"param", "value"}, runs); err != nil {
		t.Fatal(err)
	}
	wantCSV := "param,value,cycle,x\n" +
		"cores,1,10,1\n" +
		"cores,2,10,2\n" +
		"param,value,cycle,x,y\n" +
		"cores,4,10,3,4\n" +
		"param,value,cycle,x\n" +
		"cores,8,10,5\n"
	if got := readFile(t, csvPath); got != wantCSV {
		t.Fatalf("csv = %q, want %q", got, wantCSV)
	}
	wantJSONL := `{"param":"cores","value":"1","cycle":10,"x":1}` + "\n" +
		`{"param":"cores","value":"2","cycle":10,"x":2}` + "\n" +
		`{"param":"cores","value":"4","cycle":10,"x":3,"y":4}` + "\n" +
		`{"param":"cores","value":"8","cycle":10,"x":5}` + "\n"
	if got := readFile(t, jsonlPath); got != wantJSONL {
		t.Fatalf("jsonl = %q, want %q", got, wantJSONL)
	}
}

func TestWriteFilesWriteError(t *testing.T) {
	if _, err := os.Stat("/dev/full"); err != nil {
		t.Skip("no /dev/full on this system")
	}
	runs := []Run{{Series: sampledHits()}}
	if err := WriteFiles("/dev/full", "", nil, runs); err == nil {
		t.Error("CSV to /dev/full reported success")
	}
	if err := WriteFiles("", "/dev/full", nil, runs); err == nil {
		t.Error("JSONL to /dev/full reported success")
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

// allProbeKinds registers one metric of every probe kind and returns
// the variables a test bumps between ticks.
func allProbeKinds() (reg *Registry, c, r *uint64, m *stats.Mean, h *stats.Histogram) {
	reg = NewRegistry()
	c, r, m = new(uint64), new(uint64), new(stats.Mean)
	h = stats.NewHistogram(8, 10)
	reg.Counter("c", c)
	reg.CounterRate("r", r)
	reg.Gauge("g", func() float64 { return 1 })
	reg.Accum("a", func() float64 { return float64(*c) * 2 })
	reg.Mean("m", m)
	reg.Histogram("h", h)
	return reg, c, r, m, h
}

// TestSamplerZeroAlloc: reading every probe kind and converting the
// snapshot pair into a row allocates nothing; only the series append
// in Tick may grow storage.
func TestSamplerZeroAlloc(t *testing.T) {
	reg, c, r, m, h := allProbeKinds()
	s := NewSampler(reg, 10)
	s.Reset(0)
	now := sim.Cycle(0)
	avg := testing.AllocsPerRun(200, func() {
		*c += 3
		*r += 7
		m.Add(1)
		h.Add(5)
		now += 10
		s.fillRow(now)
	})
	if avg != 0 {
		t.Fatalf("sampler row fill allocates %.2f objects; must be 0", avg)
	}
}

// TestMemorySinkAmortized: the sampler's own series (which replaced
// the in-memory sink) grows by amortized append. With every probe kind
// registered, a long window allocates only that growth; any per-tick
// allocation would show at least once per tick.
func TestMemorySinkAmortized(t *testing.T) {
	reg, c, r, m, h := allProbeKinds()

	const ticks = 10_000
	s := NewSampler(reg, 10)
	s.Reset(0)
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for now := sim.Cycle(10); now <= ticks*10; now += 10 {
		*c += 3
		*r += 7
		m.Add(1)
		h.Add(5)
		s.Tick(now)
	}
	runtime.ReadMemStats(&after)
	if n := s.Series().NumRows(); n != ticks {
		t.Fatalf("recorded %d rows, want %d", n, ticks)
	}
	if allocs := after.Mallocs - before.Mallocs; allocs > 64 {
		t.Fatalf("%d ticks made %d allocations; want at most 64", ticks, allocs)
	}
}
