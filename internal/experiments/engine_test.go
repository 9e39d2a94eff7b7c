package experiments

import (
	"context"
	"io"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"domino/internal/telemetry"
)

// TestRunJobsMoreJobsThanWorkers drives the pool with far more jobs than
// workers and checks every job ran exactly once and every Collect executed
// serially, in job order, after all Runs. Run under -race (CI does) this
// is the engine's honesty check.
func TestRunJobsMoreJobsThanWorkers(t *testing.T) {
	const n = 64
	o := Options{Parallelism: 8}
	var running, ran atomic.Int64
	collected := make([]int, 0, n)
	jobs := make([]Job, n)
	for i := range jobs {
		jobs[i] = Job{
			Run: func() any {
				running.Add(1)
				defer running.Add(-1)
				ran.Add(1)
				return i * i
			},
			Collect: func(v any) {
				// Collect must run after every job has finished...
				if running.Load() != 0 {
					t.Errorf("Collect ran while %d jobs still running", running.Load())
				}
				if v.(int) != i*i {
					t.Errorf("job %d got result %v", i, v)
				}
				collected = append(collected, i)
			},
		}
	}
	runJobs(o, jobs)
	if ran.Load() != n {
		t.Fatalf("ran %d of %d jobs", ran.Load(), n)
	}
	// ...and in job order.
	for i, c := range collected {
		if c != i {
			t.Fatalf("collect order broken at %d: %v", i, collected[:i+1])
		}
	}
}

func TestRunJobsSerialFallback(t *testing.T) {
	for _, par := range []int{0, 1, 3} {
		order := []int{}
		jobs := []Job{
			{Run: func() any { return "a" }, Collect: func(v any) { order = append(order, 0) }},
			{Run: func() any { return "b" }, Collect: func(v any) { order = append(order, 1) }},
		}
		runJobs(Options{Parallelism: par}, jobs)
		if len(order) != 2 || order[0] != 0 || order[1] != 1 {
			t.Fatalf("Parallelism=%d: collect order %v", par, order)
		}
	}
}

// TestRunJobsPanicPropagates checks a panicking job resurfaces on the
// caller's goroutine instead of crashing the process from a worker.
func TestRunJobsPanicPropagates(t *testing.T) {
	defer func() {
		if r := recover(); r != "boom" {
			t.Fatalf("recovered %v, want boom", r)
		}
	}()
	jobs := []Job{
		{Run: func() any { return nil }},
		{Run: func() any { panic("boom") }},
		{Run: func() any { return nil }},
		{Run: func() any { return nil }},
	}
	runJobs(Options{Parallelism: 4}, jobs)
}

// TestRunJobsFirstPanicInJobOrder drives the pool with several panicking
// jobs finishing in arbitrary worker order and checks two things: the
// panic that resurfaces on the caller is the first one in *job* order
// (not completion order), and the workers drain cleanly first — every
// job, including those after the panicking ones, ran exactly once.
func TestRunJobsFirstPanicInJobOrder(t *testing.T) {
	const n = 16
	var ran atomic.Int64
	defer func() {
		if r := recover(); r != "panic-job-1" {
			t.Fatalf("recovered %v, want panic-job-1 (first in job order)", r)
		}
		if ran.Load() != n {
			t.Fatalf("workers did not drain: ran %d of %d jobs", ran.Load(), n)
		}
	}()
	jobs := make([]Job, n)
	for i := range jobs {
		jobs[i] = Job{Run: func() any {
			ran.Add(1)
			switch i {
			case 1:
				// Stall so job 3's panic lands first in completion order.
				time.Sleep(10 * time.Millisecond)
				panic("panic-job-1")
			case 3:
				panic("panic-job-3")
			}
			return i
		}}
	}
	runJobs(Options{Parallelism: 8}, jobs)
	t.Fatal("runJobs returned despite panicking jobs")
}

// recordingObserver captures lifecycle events for assertions.
type recordingObserver struct {
	mu       sync.Mutex
	queued   []string
	started  int
	finished int
	failed   []string
	workers  map[int]bool
	labels   map[string]bool
	negDur   bool
}

func (r *recordingObserver) JobsQueued(labels []string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.queued = append(r.queued, labels...)
}

func (r *recordingObserver) JobStarted(i int, label string, worker int) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.started++
}

func (r *recordingObserver) JobFinished(i int, label string, worker int, d time.Duration) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.finished++
	if r.workers == nil {
		r.workers = map[int]bool{}
		r.labels = map[string]bool{}
	}
	r.workers[worker] = true
	r.labels[label] = true
	if d < 0 {
		r.negDur = true
	}
}

func (r *recordingObserver) JobFailed(i int, label string, worker int, d time.Duration, err error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.failed = append(r.failed, label)
}

// TestRunJobsObserverEvents checks the engine's lifecycle emission on both
// the serial and the parallel path: one queued batch with every label, one
// started+finished pair per job, worker ids within [0, workers).
func TestRunJobsObserverEvents(t *testing.T) {
	for _, par := range []int{1, 4} {
		obs := &recordingObserver{}
		reg := telemetry.New()
		o := Options{Parallelism: par, Observer: obs, Metrics: reg}
		const n = 12
		jobs := make([]Job, n)
		for i := range jobs {
			jobs[i] = Job{Label: string(rune('a' + i)), Run: func() any { return i }}
		}
		runJobs(o, jobs)
		if len(obs.queued) != n || obs.started != n || obs.finished != n {
			t.Fatalf("par=%d: queued=%d started=%d finished=%d, want %d each",
				par, len(obs.queued), obs.started, obs.finished, n)
		}
		if len(obs.labels) != n {
			t.Fatalf("par=%d: %d distinct labels, want %d", par, len(obs.labels), n)
		}
		for w := range obs.workers {
			if w < 0 || w >= par {
				t.Fatalf("par=%d: worker id %d out of range", par, w)
			}
		}
		if obs.negDur {
			t.Fatalf("par=%d: negative job duration", par)
		}
		if got := reg.Counter("engine.jobs").Value(); got != n {
			t.Fatalf("par=%d: engine.jobs = %d, want %d", par, got, n)
		}
		if got := reg.Histogram("engine.job_time").Count(); got != n {
			t.Fatalf("par=%d: engine.job_time count = %d, want %d", par, got, n)
		}
		if got := reg.Gauge("engine.workers").Value(); got != int64(par) {
			t.Fatalf("par=%d: engine.workers = %d", par, got)
		}
	}
}

// renderAll renders every grid and table a runner produces, so the
// determinism test compares complete output byte-for-byte.
var determinismRunners = []struct {
	name   string
	render func(Options) string
}{
	{"Opportunity", func(o Options) string {
		r := Opportunity(context.Background(), o)
		return r.Coverage.String() + r.StreamLength.String() + r.HistogramTable()
	}},
	{"Lookup", func(o Options) string {
		r := Lookup(context.Background(), o)
		return r.Accuracy.String() + r.MatchRate.String() + r.Coverage.String() + r.Overpred.String()
	}},
	{"Comparison", func(o Options) string {
		r := Comparison(context.Background(), o, 1, true)
		return r.Coverage.String() + r.Overpredictions.String()
	}},
	{"Sensitivity", func(o Options) string {
		r := Sensitivity(context.Background(), o)
		return r.HT.String() + r.EIT.String()
	}},
	{"Speedup", func(o Options) string {
		r := Speedup(context.Background(), o, 4)
		s := r.Speedup.String()
		for _, p := range PrefetcherNames {
			s += r.Speedup.format(r.GMean[p])
		}
		return s
	}},
	{"Bandwidth", func(o Options) string {
		r := Bandwidth(context.Background(), o, 4)
		return r.Overhead.String() + r.PerWorkload.String()
	}},
	{"Utilization", func(o Options) string {
		r := Utilization(context.Background(), o, 4)
		return r.BaselineGBps.String() + r.Utilization.String()
	}},
	{"SpatioTemporal", func(o Options) string {
		return SpatioTemporal(context.Background(), o, 4).Coverage.String()
	}},
	{"Ablations", func(o Options) string {
		return Ablations(context.Background(), o, 4).Coverage.String()
	}},
	{"DegreeSweep", func(o Options) string {
		r := DegreeSweep(context.Background(), o, nil, []int{1, 4})
		return r.Coverage.String() + r.Overpredictions.String()
	}},
}

// withTelemetry attaches the full telemetry stack — progress and timing
// observers plus a metrics registry — writing to io.Discard, mirroring
// what cmd/dominosim wires up for -progress -timing -metrics.
func withTelemetry(o Options) Options {
	o.Observer = telemetry.MultiObserver(
		telemetry.NewProgress(io.Discard), telemetry.NewTiming())
	o.Metrics = telemetry.New()
	return o
}

// TestRunnerDeterminism asserts every migrated runner renders
// byte-identical output at Parallelism 1 and Parallelism 8, and that
// attaching telemetry changes nothing — the engine's contract: worker
// count and observability must never change a byte of stdout. Every
// runner checks the plain j8 leg; the telemetry legs (instrumented
// serial and parallel paths) run on the two cheapest runners only, since
// those paths live in runJobs and are identical for every runner —
// repeating them ten times would push the -race suite past its timeout
// on a single CPU. It runs at QuickOptions scale on two contrasting
// workloads; -short trims to a representative runner subset.
func TestRunnerDeterminism(t *testing.T) {
	base := QuickOptions()
	base.Workloads = []string{"OLTP", "MapReduce-W"}
	type leg struct {
		name      string
		par       int
		telemetry bool
	}
	for _, r := range determinismRunners {
		t.Run(r.name, func(t *testing.T) {
			if testing.Short() {
				switch r.name {
				case "Comparison", "Speedup", "Opportunity", "DegreeSweep":
				default:
					t.Skip("short mode runs a representative subset")
				}
			}
			legs := []leg{{"j8", 8, false}}
			switch r.name {
			case "DegreeSweep", "Bandwidth":
				legs = append(legs,
					leg{"j1+telemetry", 1, true}, leg{"j8+telemetry", 8, true})
			}
			serial := base
			serial.Parallelism = 1
			want := r.render(serial)
			if len(want) == 0 {
				t.Fatal("runner rendered nothing")
			}
			for _, l := range legs {
				o := base
				o.Parallelism = l.par
				if l.telemetry {
					o = withTelemetry(o)
				}
				if got := r.render(o); got != want {
					t.Fatalf("output differs between -j 1 and %s:\n--- j1 ---\n%s\n--- %s ---\n%s",
						l.name, want, l.name, got)
				}
			}
		})
	}
}

// BenchmarkRunJobs measures the engine's per-job dispatch cost with
// telemetry disabled — the acceptance bar is ≤2% overhead over the
// pre-telemetry engine, which amounted to one atomic fetch-add and one
// protectedRun per job. Compare against BenchmarkRunJobsTelemetry for the
// enabled cost.
func BenchmarkRunJobs(b *testing.B) {
	benchRunJobs(b, Options{Parallelism: 4})
}

func BenchmarkRunJobsTelemetry(b *testing.B) {
	benchRunJobs(b, withTelemetry(Options{Parallelism: 4}))
}

func benchRunJobs(b *testing.B, o Options) {
	var sink atomic.Int64
	jobs := make([]Job, 256)
	for i := range jobs {
		jobs[i] = Job{
			Label:   "bench/job",
			Run:     func() any { return i },
			Collect: func(v any) { sink.Add(int64(v.(int))) },
		}
	}
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		runJobs(o, jobs)
	}
}
