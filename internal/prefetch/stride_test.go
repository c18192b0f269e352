package prefetch

import "testing"

func TestDisabled(t *testing.T) {
	p := New(Config{})
	if got := p.OnMiss(100); got != nil {
		t.Fatal("disabled prefetcher issued")
	}
}

func TestUnitStrideDetection(t *testing.T) {
	p := New(DefaultConfig())
	var issued []uint64
	for l := uint64(100); l < 110; l++ {
		issued = append(issued, p.OnMiss(l)...)
	}
	if len(issued) == 0 {
		t.Fatal("unit stride never triggered")
	}
	// Prefetches must run ahead of the stream with stride +1.
	for i := 1; i < len(issued); i++ {
		if issued[i] <= issued[i-1] && issued[i] != issued[i-1] {
			continue // different trigger batches may restart
		}
	}
	if issued[0] <= 102 {
		t.Fatalf("first prefetch %d not ahead of trigger", issued[0])
	}
}

func TestLargeStrideDetection(t *testing.T) {
	p := New(DefaultConfig())
	var issued []uint64
	for i := uint64(0); i < 8; i++ {
		issued = append(issued, p.OnMiss(1000+i*4)...)
	}
	if len(issued) == 0 {
		t.Fatal("stride-4 never triggered")
	}
	if (issued[0]-1000)%4 != 0 {
		t.Fatalf("prefetch %d off the stride-4 lattice", issued[0])
	}
}

func TestNegativeStride(t *testing.T) {
	p := New(DefaultConfig())
	var issued []uint64
	for i := 0; i < 8; i++ {
		issued = append(issued, p.OnMiss(uint64(1000-i))...)
	}
	if len(issued) == 0 {
		t.Fatal("negative stride never triggered")
	}
	if issued[0] >= 1000 {
		t.Fatalf("prefetch %d not behind a descending stream", issued[0])
	}
}

func TestRandomStreamStaysQuiet(t *testing.T) {
	p := New(DefaultConfig())
	// Far-apart random misses never build confidence.
	addrs := []uint64{5, 100000, 3, 777777, 42, 999999, 12345, 67}
	total := 0
	for _, a := range addrs {
		total += len(p.OnMiss(a))
	}
	if total != 0 {
		t.Fatalf("random stream issued %d prefetches", total)
	}
}

func TestMultipleConcurrentStreams(t *testing.T) {
	p := New(DefaultConfig())
	issued := 0
	// Two interleaved unit-stride streams far apart.
	for i := uint64(0); i < 10; i++ {
		issued += len(p.OnMiss(1000 + i))
		issued += len(p.OnMiss(500000 + i))
	}
	if issued == 0 {
		t.Fatal("interleaved streams never triggered")
	}
	if p.Stat.Issues == 0 || p.Stat.Trains == 0 {
		t.Fatal("stats not recorded")
	}
}

func TestRepeatedSameLineNoIssue(t *testing.T) {
	p := New(DefaultConfig())
	for i := 0; i < 10; i++ {
		if got := p.OnMiss(42); len(got) != 0 {
			t.Fatal("zero stride issued prefetches")
		}
	}
}

func TestNoUnderflowAtZero(t *testing.T) {
	p := New(DefaultConfig())
	for i := 0; i < 6; i++ {
		for _, a := range p.OnMiss(uint64(5 - i)) {
			if a > 1<<62 {
				t.Fatalf("prefetch underflowed to %d", a)
			}
		}
	}
}
