package telemetry

import (
	"fmt"
	"math"
	"math/bits"
	"sync/atomic"
	"time"
)

// Histogram bucket geometry: log-scale buckets with histSub sub-buckets
// per power of two, the HDR-histogram layout. Values below histSub get an
// exact bucket each; above that, a value with top bit at position exp
// lands in one of histSub equal-width sub-buckets of [2^exp, 2^(exp+1)),
// so every bucket's width is at most 1/histSub (12.5%) of its lower
// bound. Any quantile estimate is therefore off by at most one bucket
// width from the exact sample quantile.
//
// The geometry covers every non-negative int64, so durations up to ~292
// years in nanoseconds index without an overflow bucket.
const (
	histSubBits = 3
	histSub     = 1 << histSubBits // sub-buckets per octave
	// NumHistogramBuckets is the fixed bucket count: histSub exact
	// buckets for values < histSub, then histSub per octave for the
	// remaining 63-histSubBits octaves of an int64.
	NumHistogramBuckets = histSub + (63-histSubBits)*histSub
)

// bucketIndex maps a non-negative value to its bucket.
func bucketIndex(v int64) int {
	if v < histSub {
		return int(v)
	}
	exp := bits.Len64(uint64(v)) - 1
	shift := uint(exp - histSubBits)
	sub := int(uint64(v)>>shift) - histSub
	return histSub + (exp-histSubBits)*histSub + sub
}

// BucketRange returns the inclusive value range [lo, hi] of bucket i.
func BucketRange(i int) (lo, hi int64) {
	if i < 0 || i >= NumHistogramBuckets {
		panic(fmt.Sprintf("telemetry: bucket index %d out of range", i))
	}
	if i < histSub {
		return int64(i), int64(i)
	}
	exp := histSubBits + i/histSub - 1
	sub := i % histSub
	width := int64(1) << uint(exp-histSubBits)
	lo = int64(histSub+sub) << uint(exp-histSubBits)
	return lo, lo + width - 1
}

// Histogram is a fixed-bucket log-scale distribution metric for latencies
// and other non-negative values. Observe is lock-free and allocation-free
// — a bounds computation plus three atomic adds — so it is safe on any
// hot path, from many goroutines, with no coordination. The zero value is
// ready to use; a nil *Histogram is a no-op sink, like every other metric
// in this package.
//
// Quantiles, merging and JSON round-trips happen on the Stats snapshot,
// never on the live histogram.
type Histogram struct {
	count  atomic.Int64
	sum    atomic.Int64
	counts [NumHistogramBuckets]atomic.Int64
}

// Observe records one duration. Negative durations clamp to zero.
func (h *Histogram) Observe(d time.Duration) { h.ObserveValue(int64(d)) }

// ObserveValue records one raw value (a size, a depth, a nanosecond
// count). Negative values clamp to zero.
func (h *Histogram) ObserveValue(v int64) {
	if h == nil {
		return
	}
	if v < 0 {
		v = 0
	}
	h.count.Add(1)
	h.sum.Add(v)
	h.counts[bucketIndex(v)].Add(1)
}

// Start begins timing and returns the function that stops it. Usable as
// `defer h.Start()()`; on a nil histogram the returned stop is a no-op.
func (h *Histogram) Start() func() {
	if h == nil {
		return func() {}
	}
	t0 := time.Now()
	return func() { h.Observe(time.Since(t0)) }
}

// Count returns the number of observations (0 for a nil histogram).
func (h *Histogram) Count() int64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// Stats snapshots the histogram into its sparse, mergeable form. The
// snapshot is weakly consistent under concurrent Observe calls: each
// bucket is read atomically, but buckets filled mid-scan may or may not
// be included.
func (h *Histogram) Stats() HistogramStats {
	if h == nil {
		return HistogramStats{}
	}
	s := HistogramStats{Count: h.count.Load(), Sum: h.sum.Load()}
	for i := range h.counts {
		if c := h.counts[i].Load(); c != 0 {
			s.Buckets = append(s.Buckets, [2]int64{int64(i), c})
		}
	}
	// Clamp Count to the bucket total so quantile ranks computed from
	// Count always resolve to a bucket even when an Observe raced the
	// scan between its count.Add and its bucket Add.
	var total int64
	for _, b := range s.Buckets {
		total += b[1]
	}
	if s.Count > total {
		s.Count = total
	}
	return s
}

// HistogramStats is a histogram snapshot: the non-empty buckets as
// [bucketIndex, count] pairs in ascending index order, plus the
// observation count and value sum. It is the unit of quantile
// estimation, merging across shards or processes, and JSON round-trips
// (the struct marshals losslessly with encoding/json).
type HistogramStats struct {
	Count int64 `json:"count"`
	Sum   int64 `json:"sum"`
	// Buckets lists [index, count] for every non-empty bucket, ascending
	// by index. Indexes are positions in the package-wide fixed
	// geometry, so snapshots from any two histograms merge directly.
	Buckets [][2]int64 `json:"buckets,omitempty"`
}

// Mean returns the arithmetic mean of the observed values (0 when empty).
func (s HistogramStats) Mean() float64 {
	if s.Count == 0 {
		return 0
	}
	return float64(s.Sum) / float64(s.Count)
}

// Quantile estimates the q-quantile (q in [0,1]) by nearest rank: it
// returns the upper bound of the bucket holding the rank-ceil(q*Count)
// observation, which is within one bucket width (<= 12.5% relative) of
// the exact sample quantile. Returns 0 on an empty snapshot.
func (s HistogramStats) Quantile(q float64) int64 {
	if s.Count == 0 || len(s.Buckets) == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	} else if q > 1 {
		q = 1
	}
	rank := int64(math.Ceil(q * float64(s.Count)))
	if rank < 1 {
		rank = 1
	}
	var cum int64
	for _, b := range s.Buckets {
		cum += b[1]
		if cum >= rank {
			_, hi := BucketRange(int(b[0]))
			return hi
		}
	}
	_, hi := BucketRange(int(s.Buckets[len(s.Buckets)-1][0]))
	return hi
}

// Merge returns the combination of two snapshots, as if every observation
// behind both had been recorded into one histogram. Merging is
// commutative and associative, so per-shard snapshots fold into a
// service-wide distribution in any order.
func (s HistogramStats) Merge(o HistogramStats) HistogramStats {
	out := HistogramStats{Count: s.Count + o.Count, Sum: s.Sum + o.Sum}
	out.Buckets = make([][2]int64, 0, len(s.Buckets)+len(o.Buckets))
	i, j := 0, 0
	for i < len(s.Buckets) && j < len(o.Buckets) {
		a, b := s.Buckets[i], o.Buckets[j]
		switch {
		case a[0] < b[0]:
			out.Buckets = append(out.Buckets, a)
			i++
		case a[0] > b[0]:
			out.Buckets = append(out.Buckets, b)
			j++
		default:
			out.Buckets = append(out.Buckets, [2]int64{a[0], a[1] + b[1]})
			i, j = i+1, j+1
		}
	}
	out.Buckets = append(out.Buckets, s.Buckets[i:]...)
	out.Buckets = append(out.Buckets, o.Buckets[j:]...)
	if len(out.Buckets) == 0 {
		out.Buckets = nil
	}
	return out
}
