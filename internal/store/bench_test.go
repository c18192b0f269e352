package store

import (
	"fmt"
	"testing"

	"hetsim/internal/core"
	"hetsim/internal/sim"
	"hetsim/internal/telemetry"
)

// benchResults sizes a realistic entry: a full 8-core Results plus a
// 200-epoch × 40-column telemetry series (~the shape a bench-scale run
// with -epoch-interval 10000 records).
func benchResults() core.Results {
	res := testResults("mcf")
	res.IPCs = make([]float64, 8)
	cols := make([]string, 40)
	for i := range cols {
		cols[i] = fmt.Sprintf("metric.%d", i)
	}
	const rows = 200
	s := &telemetry.Series{Cols: cols, Cycles: make([]sim.Cycle, rows),
		Data: make([]float64, rows*len(cols))}
	for i := range s.Cycles {
		s.Cycles[i] = sim.Cycle(i * 10_000)
		for j := range cols {
			s.Data[i*len(cols)+j] = float64(i*j) * 0.125
		}
	}
	res.Epochs = s
	return res
}

// BenchmarkStoreHit measures warm-lookup latency: the full path a
// cached sweep cell pays instead of a simulation (read, verify
// checksum, decode).
func BenchmarkStoreHit(b *testing.B) {
	s, err := Open(b.TempDir())
	if err != nil {
		b.Fatal(err)
	}
	k := testKey("mcf", 1)
	if err := s.Put(k, benchResults()); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok := s.Get(k); !ok {
			b.Fatal("miss")
		}
	}
}

// BenchmarkStoreColdWrite measures Put throughput: encode, checksum,
// temp write, fsync and rename — the tax a cold run pays to make
// every later run free.
func BenchmarkStoreColdWrite(b *testing.B) {
	s, err := Open(b.TempDir())
	if err != nil {
		b.Fatal(err)
	}
	res := benchResults()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k := testKey("mcf", uint64(i))
		if err := s.Put(k, res); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkStoreMiss measures the cost a cold lookup adds to an
// uncached run (one failed stat/read).
func BenchmarkStoreMiss(b *testing.B) {
	s, err := Open(b.TempDir())
	if err != nil {
		b.Fatal(err)
	}
	k := testKey("mcf", 1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok := s.Get(k); ok {
			b.Fatal("unexpected hit")
		}
	}
}

// BenchmarkStoreKeyHash measures the canonical-encode + SHA-256 cost
// of addressing one cell.
func BenchmarkStoreKeyHash(b *testing.B) {
	k := testKey("mcf", 1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if k.Hash() == "" {
			b.Fatal("empty hash")
		}
	}
}
