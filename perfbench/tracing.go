package main

import (
	"bufio"
	"encoding/json"
	"os"
	"runtime"
	"runtime/metrics"
	"syscall"
	"time"

	"domino/internal/mem"
	"domino/internal/prefetch"
	"domino/internal/trace"
)

// The traced pass times the calls the benchmark makes across each layer
// boundary. Every call is kept as a count and a summed duration; every
// spanEvery-th access (or batch) is also kept as full spans, written out
// when the run ends. A layer's self time is its summed duration minus
// that of the layers it calls.

// spanEvery is the sampling interval of full spans.
const spanEvery = 4096

// clock reads monotonic nanoseconds since the start of a traced pass.
type clock struct{ base time.Time }

func newClock() clock      { return clock{base: time.Now()} }
func (c clock) now() int64 { return int64(time.Since(c.base)) }

// layer accumulates the calls across one boundary.
type layer struct {
	calls int64
	ns    int64
	// t0, t1 bound the latest call, for span sampling.
	t0, t1 int64
}

func (l *layer) add(t0, t1 int64) {
	l.calls++
	l.ns += t1 - t0
	l.t0, l.t1 = t0, t1
}

// perCall is the mean duration of one call, in ns.
func (l *layer) perCall() float64 { return ratio(float64(l.ns), float64(l.calls)) }

// timedReader is a trace.Reader decorator that times every Next.
type timedReader struct {
	r trace.Reader
	c clock
	l layer
}

func (t *timedReader) Next() (mem.Access, bool) {
	t0 := t.c.now()
	a, ok := t.r.Next()
	t.l.add(t0, t.c.now())
	return a, ok
}

// timedPrefetcher is a prefetch.Prefetcher decorator that times every
// Trigger and counts the candidates it returns.
type timedPrefetcher struct {
	p     prefetch.Prefetcher
	c     clock
	l     layer
	cands int64
}

func (t *timedPrefetcher) Name() string { return t.p.Name() }

func (t *timedPrefetcher) Trigger(ev prefetch.Event) []prefetch.Candidate {
	t0 := t.c.now()
	out := t.p.Trigger(ev)
	t.l.add(t0, t.c.now())
	t.cands += int64(len(out))
	return out
}

// span is one timed interval of a sampled access or batch. Spans of one
// access share Trace; Parent 0 marks the root.
type span struct {
	Trace  int64  `json:"trace"`
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// spanLog keeps sampled spans in memory until the run ends.
type spanLog struct {
	spans []span
	last  int
}

// add records a span and returns its id, for children to name as parent.
func (s *spanLog) add(traceID int64, parent int, name string, t0, t1 int64) int {
	s.last++
	s.spans = append(s.spans, span{Trace: traceID, ID: s.last, Parent: parent, Name: name, Start: t0, End: t1})
	return s.last
}

// write stores the spans as JSON lines, after one line stamping the
// environment.
func (s *spanLog) write(path string, env envStamp) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	if err := enc.Encode(map[string]any{"env": env}); err != nil {
		f.Close()
		return err
	}
	for i := range s.spans {
		if err := enc.Encode(&s.spans[i]); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// rtSample is a snapshot of the Go runtime's allocation and CPU
// accounting, taken around a plain measured phase.
type rtSample struct {
	mallocs         uint64
	gcCPU, totalCPU float64
	procCPU         time.Duration // user+system CPU of the process
}

var rtMetrics = []metrics.Sample{
	{Name: "/cpu/classes/gc/total:cpu-seconds"},
	{Name: "/cpu/classes/total:cpu-seconds"},
}

func sampleRuntime() rtSample {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	s := make([]metrics.Sample, len(rtMetrics))
	copy(s, rtMetrics)
	metrics.Read(s)
	out := rtSample{mallocs: ms.Mallocs}
	if s[0].Value.Kind() == metrics.KindFloat64 {
		out.gcCPU = s[0].Value.Float64()
	}
	if s[1].Value.Kind() == metrics.KindFloat64 {
		out.totalCPU = s[1].Value.Float64()
	}
	var ru syscall.Rusage
	if syscall.Getrusage(syscall.RUSAGE_SELF, &ru) == nil {
		out.procCPU = time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
	}
	return out
}

// setRuntime reports runtime.allocs_per_access and runtime.gc_cpu_frac for
// the phase between a and b, which served accesses accesses.
func (r *run) setRuntime(a, b rtSample, accesses int64) {
	r.set("runtime.allocs_per_access", ratio(float64(b.mallocs-a.mallocs), float64(accesses)))
	r.set("runtime.gc_cpu_frac", ratio(b.gcCPU-a.gcCPU, b.totalCPU-a.totalCPU))
}
