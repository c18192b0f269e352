package sim

import "testing"

// BenchmarkKernelScheduleEvent measures one zero-allocation handler
// event pushed and popped per iteration.
func BenchmarkKernelScheduleEvent(b *testing.B) {
	var e Engine
	h := &nopHandler{}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.ScheduleEvent(1, h, nil)
		e.RunUntil(e.Now() + 1)
	}
}

// BenchmarkKernelRunUntil measures heap throughput with a standing queue
// of 1024 events: each iteration pops one and pushes a replacement.
func BenchmarkKernelRunUntil(b *testing.B) {
	var e Engine
	h := &nopHandler{}
	const standing = 1024
	for i := 0; i < standing; i++ {
		e.ScheduleEvent(Cycle(i%97)+1, h, nil)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		when, _ := e.PeekNext()
		e.RunUntil(when)
		e.ScheduleEvent(Cycle(i%97)+1, h, nil)
	}
}
