package telemetry

import "testing"

// Telemetry overhead benchmarks, gated by scripts/bench.sh + benchdiff:
// the Disabled variants pin the nil-receiver no-op path at ~a branch and
// 0 allocs/op, the Enabled variants pin the lock-free hot path at a few
// atomic ops and 0 allocs/op. A new allocation or lock on either path
// fails the allocs/op gate on any machine.

func BenchmarkHistogramObserve(b *testing.B) {
	h := &Histogram{}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		h.ObserveValue(int64(i) * 97)
	}
}

func BenchmarkHistogramObserveDisabled(b *testing.B) {
	var h *Histogram
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		h.ObserveValue(int64(i) * 97)
	}
}

func BenchmarkHistogramObserveParallel(b *testing.B) {
	h := &Histogram{}
	b.ReportAllocs()
	b.RunParallel(func(pb *testing.PB) {
		v := int64(1)
		for pb.Next() {
			h.ObserveValue(v)
			v = v*2862933555777941757 + 3037000493 // cheap lcg spread
			if v < 0 {
				v = -v
			}
		}
	})
}

func BenchmarkHistogramStatsSnapshot(b *testing.B) {
	h := &Histogram{}
	for i := 0; i < 100_000; i++ {
		h.ObserveValue(int64(i) * 13)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s := h.Stats()
		if s.Count == 0 {
			b.Fatal("empty snapshot")
		}
	}
}
