package core

import (
	"testing"

	"domino/internal/benchseq"
)

// BenchmarkTrainLookup drives Domino's full training + replay path with
// the recurring-stream miss sequence the baseline prefetchers' benchmarks
// use: every miss costs one EIT row lookup, the next event disambiguates
// the pending super-entry and opens a stream from the HT, and sampled
// events rewrite the EIT row of the previous event. The tables are those
// of the scale-64 configuration the serving layer and the evaluator
// benchmark run. scripts/bench.sh gates its ns/op and its zero allocs/op.
func BenchmarkTrainLookup(b *testing.B) {
	const mask = 1<<16 - 1
	events := benchseq.Events(mask+1, 256, 32)
	p := New(ScaledConfig(4, 64), nil)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.Trigger(events[i&mask])
	}
}
