package experiments

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"domino/internal/telemetry"
)

// The execution engine runs a runner's independent simulation cells across
// a bounded worker pool while keeping output byte-identical to a serial
// run. The contract every migrated runner follows:
//
//   - one Job per independent unit of simulation (typically one
//     (workload, series) grid cell);
//   - Job.Run owns every piece of mutable state it touches — its own
//     trace generator, dram.Meter and prefetcher instance — and returns a
//     result value without writing to any shared structure;
//   - Job.Collect folds the result into the runner's grids and maps. It
//     executes serially, in job-list order, only after every Run has
//     finished — so grids are assembled in exactly the order the old
//     serial loops used, never via concurrent Grid.Add.
//
// Because every runner is deterministic for fixed Options (package doc),
// Run results do not depend on scheduling, and the ordered Collect pass
// makes rendered output independent of Parallelism.
//
// On top of that contract sits the resilience layer:
//
//   - cancellation: runJobsContext stops dispatching once its context is
//     cancelled, drains the jobs already in flight, and collects what
//     finished — undispatched cells stay missing and render as "-";
//   - fault policy: under Degrade a panicking or timed-out job becomes a
//     missing cell carrying its recovered error into telemetry instead of
//     tearing down the sweep; FailFast preserves the original behaviour
//     (the first failure in job order re-raises on the caller);
//   - checkpoint/resume: with Options.Checkpoint set, every completed
//     checkpointable cell is appended to a JSONL file as it finishes, and
//     a rerun restores those cells instead of re-simulating them. The
//     ordered Collect pass makes resumed output byte-identical to an
//     uninterrupted run at every worker count.

// Job is one independent unit of an experiment. Run executes on a worker
// goroutine; Collect (optional) executes serially afterwards, in job
// order, and receives Run's return value. Label identifies the cell in
// telemetry output ("OLTP/domino"); it never reaches stdout.
type Job struct {
	Label   string
	Run     func() any
	Collect func(any)
	// Restore decodes a checkpointed Run result back into the value
	// Collect expects (see restoreJSON). A nil Restore marks the job as
	// not checkpointable: it is never saved and always re-runs.
	Restore func([]byte) (any, error)
}

// FaultPolicy selects what the engine does when a job panics or exceeds
// Options.JobTimeout.
type FaultPolicy int

const (
	// FailFast re-raises the first failure (in job order) on the caller
	// after the worker pool has drained — the engine's original
	// behaviour, and the zero value.
	FailFast FaultPolicy = iota
	// Degrade records the failure in telemetry (engine.jobs_failed,
	// JobFailed events) and leaves the cell missing, so the sweep
	// completes and the cell renders as "-".
	Degrade
)

// RestoredWorker is the worker id reported in observer events for cells
// restored from a checkpoint rather than simulated.
const RestoredWorker = -1

// parallelism resolves the worker count for a run: Options.Parallelism if
// positive, otherwise the number of usable CPUs.
func (o Options) parallelism() int {
	if o.Parallelism > 0 {
		return o.Parallelism
	}
	return runtime.GOMAXPROCS(0)
}

// Job outcome states. The zero value is jobSkipped so that cells the
// dispatcher never reached (cancellation) need no bookkeeping.
const (
	jobSkipped  uint8 = iota // never dispatched (context cancelled)
	jobDone                  // Run completed
	jobRestored              // result restored from the checkpoint
	jobFailed                // Run panicked or timed out
)

// outcome is one job's result slot.
type outcome struct {
	state    uint8
	value    any
	err      error // state == jobFailed: what went wrong
	pval     any   // recovered panic value, for FailFast re-raise
	panicked bool
}

// sweepStats summarises one runJobsContext call, mostly for tests; the
// same numbers reach callers through engine.* counters and observer
// events.
type sweepStats struct {
	completed int // Run executed successfully
	restored  int // restored from the checkpoint
	failed    int // panicked or timed out
	skipped   int // never dispatched (cancelled)
}

// runJobs executes a batch with the engine's original interface: no
// cancellation, no checkpoint scope. Kept so pre-resilience call sites
// (and their tests) read exactly as before.
func runJobs(o Options, jobs []Job) {
	runJobsContext(context.Background(), o, "", jobs)
}

// runJobsContext executes jobs across min(parallelism, len(jobs)) workers,
// then runs every Collect serially in job order. With one worker the jobs
// run on the calling goroutine in order, preserving serial behaviour
// exactly.
//
// ctx cancellation stops the dispatch of new jobs; jobs already running
// are drained, their results collected, and every undispatched cell is
// counted in engine.jobs_skipped. scope namespaces this batch's cells in
// Options.Checkpoint (runner name plus its parameters, e.g.
// "comparison/degree=4").
//
// When Options.Observer or Options.Metrics is set, runJobsContext emits
// per-job lifecycle events (queued, started, finished/failed with duration
// and worker id) and engine counters. Telemetry never touches the results
// or the Collect order, so rendered output stays byte-identical with it
// on, off, and at every worker count. With everything disabled the only
// cost over the bare engine is a few nil checks per job.
func runJobsContext(ctx context.Context, o Options, scope string, jobs []Job) sweepStats {
	workers := o.parallelism()
	if workers > len(jobs) {
		workers = len(jobs)
	}
	obs := o.Observer
	if obs != nil {
		labels := make([]string, len(jobs))
		for i := range jobs {
			labels[i] = jobs[i].Label
		}
		obs.JobsQueued(labels)
	}
	var jobCount, failCount, skipCount, restoreCount *telemetry.Counter
	var jobTime *telemetry.Histogram
	if o.Metrics != nil {
		o.Metrics.Counter("engine.batches").Inc()
		o.Metrics.Gauge("engine.workers").Set(int64(workers))
		jobCount = o.Metrics.Counter("engine.jobs")
		jobTime = o.Metrics.Histogram("engine.job_time")
		failCount = o.Metrics.Counter("engine.jobs_failed")
		skipCount = o.Metrics.Counter("engine.jobs_skipped")
		restoreCount = o.Metrics.Counter("engine.jobs_restored")
	}
	instrumented := obs != nil || o.Metrics != nil

	results := make([]outcome, len(jobs))

	// Restore pass: cells already in the checkpoint skip simulation
	// entirely. Their observer events carry RestoredWorker and a zero
	// duration so progress totals stay honest without polluting worker
	// statistics.
	if o.Checkpoint != nil {
		for i := range jobs {
			if jobs[i].Restore == nil {
				continue
			}
			raw, ok := o.Checkpoint.lookup(checkpointKey(scope, jobs[i].Label))
			if !ok {
				continue
			}
			v, err := jobs[i].Restore(raw)
			if err != nil {
				// A corrupt entry is not fatal: the cell re-runs.
				continue
			}
			results[i] = outcome{state: jobRestored, value: v}
			restoreCount.Inc()
			if obs != nil {
				obs.JobStarted(i, jobs[i].Label, RestoredWorker)
				obs.JobFinished(i, jobs[i].Label, RestoredWorker, 0)
			}
		}
	}

	// execute runs one job body under recover, optionally bounded by the
	// per-job watchdog. On timeout the worker abandons the job's
	// goroutine (it finishes in the background and its result is
	// discarded) and reports a failed outcome; a job body that never
	// returns is the only way to leak.
	execute := func(i int) outcome {
		run := jobs[i].Run
		if o.chaos != nil {
			run = o.chaos.wrap(jobs[i].Label, run)
		}
		if o.JobTimeout <= 0 {
			return protectedRun(run)
		}
		ch := make(chan outcome, 1)
		if o.drain != nil {
			o.drain.Add(1)
		}
		go func() {
			if o.drain != nil {
				defer o.drain.Done()
			}
			ch <- protectedRun(run)
		}()
		timer := time.NewTimer(o.JobTimeout)
		defer timer.Stop()
		select {
		case out := <-ch:
			return out
		case <-timer.C:
			return outcome{state: jobFailed,
				err: fmt.Errorf("timed out after %s", o.JobTimeout)}
		}
	}

	// runOne wraps execute with telemetry and the checkpoint append.
	// protected=false is the plain serial path: a panic propagates from
	// the job itself, exactly as the pre-engine serial loops behaved.
	runOne := func(i, worker int, protected bool) outcome {
		if !protected {
			if !instrumented {
				return outcome{state: jobDone, value: jobs[i].Run()}
			}
			if obs != nil {
				obs.JobStarted(i, jobs[i].Label, worker)
			}
			t0 := time.Now()
			out := outcome{state: jobDone, value: jobs[i].Run()}
			d := time.Since(t0)
			jobCount.Inc()
			jobTime.Observe(d)
			if obs != nil {
				obs.JobFinished(i, jobs[i].Label, worker, d)
			}
			saveCheckpoint(o, scope, jobs[i], out.value)
			return out
		}
		if obs != nil {
			obs.JobStarted(i, jobs[i].Label, worker)
		}
		t0 := time.Now()
		out := execute(i)
		d := time.Since(t0)
		if out.state == jobFailed {
			failCount.Inc()
			if obs != nil {
				obs.JobFailed(i, jobs[i].Label, worker, d, out.err)
			}
			return out
		}
		jobCount.Inc()
		jobTime.Observe(d)
		if obs != nil {
			obs.JobFinished(i, jobs[i].Label, worker, d)
		}
		saveCheckpoint(o, scope, jobs[i], out.value)
		return out
	}

	if workers <= 1 {
		// The serial path protects jobs only when something has to
		// outlive a failure: Degrade needs the recovered error, and the
		// watchdog needs its own goroutine. A plain FailFast serial run
		// stays unprotected so panics propagate from the job itself.
		protected := o.FaultPolicy == Degrade || o.JobTimeout > 0
		for i := range jobs {
			if results[i].state == jobRestored {
				continue
			}
			if ctx.Err() != nil {
				continue // leave as jobSkipped
			}
			results[i] = runOne(i, 0, protected)
		}
	} else {
		var next atomic.Int64
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(worker int) {
				defer wg.Done()
				for {
					if ctx.Err() != nil {
						return // stop dispatching; in-flight jobs drain
					}
					i := int(next.Add(1)) - 1
					if i >= len(jobs) {
						return
					}
					if results[i].state == jobRestored {
						continue
					}
					results[i] = runOne(i, worker, true)
				}
			}(w)
		}
		wg.Wait()
	}

	var stats sweepStats
	for i := range jobs {
		out := results[i]
		switch out.state {
		case jobSkipped:
			stats.skipped++
			skipCount.Inc()
			continue
		case jobFailed:
			stats.failed++
			if o.FaultPolicy == FailFast {
				if out.panicked {
					panic(out.pval)
				}
				panic(fmt.Sprintf("experiments: job %q %v", jobs[i].Label, out.err))
			}
			continue // Degrade: the cell stays missing
		case jobRestored:
			stats.restored++
		case jobDone:
			stats.completed++
		}
		if jobs[i].Collect != nil {
			jobs[i].Collect(out.value)
		}
	}
	return stats
}

// protectedRun executes a job body, converting a panic into a failed
// outcome so it can resurface — first in job order — on the caller, or
// degrade into a missing cell, per the fault policy.
func protectedRun(run func() any) (out outcome) {
	defer func() {
		if r := recover(); r != nil {
			out = outcome{state: jobFailed,
				err: fmt.Errorf("panicked: %v", r), pval: r, panicked: true}
		}
	}()
	return outcome{state: jobDone, value: run()}
}

// saveCheckpoint appends a completed checkpointable cell, if a checkpoint
// is attached. Safe from worker goroutines.
func saveCheckpoint(o Options, scope string, j Job, v any) {
	if o.Checkpoint == nil || j.Restore == nil {
		return
	}
	o.Checkpoint.append(checkpointKey(scope, j.Label), scope+"/"+j.Label, v)
}
