// Command dominosim runs the paper's experiments and ad-hoc evaluations.
//
// Run one experiment by figure id (see DESIGN.md §3 for the index):
//
//	dominosim -exp fig11
//	dominosim -exp fig14 -accesses 2000000 -warmup 1000000 -scale 16
//
// Simulation cells within an experiment run in parallel, one job per CPU
// by default; -j bounds the worker count (-j 1 is fully serial) without
// changing a byte of the output:
//
//	dominosim -exp fig14 -j 8
//
// Telemetry (all of it on stderr or in files — stdout stays
// byte-identical):
//
//	dominosim -exp fig14 -progress          # live progress + ETA
//	dominosim -exp fig14 -timing            # per-cell wall-time table
//	dominosim -exp fig14 -metrics m.json    # metrics registry dump at exit
//	dominosim -exp fig14 -cpuprofile cpu.pb # runtime profiles (go tool pprof)
//
// Resilience: sweeps degrade rather than die. A simulation cell that
// panics (or exceeds -job-timeout) renders as "-" in the tables and the
// run exits 1 after finishing everything else; -fault-policy failfast
// restores the old crash-on-first-failure behaviour. SIGINT/SIGTERM stop
// the sweep cleanly: in-flight cells drain, finished cells print, and the
// run exits 3. With -checkpoint the finished cells also persist to a JSONL
// file, and rerunning with the same flags resumes from it instead of
// re-simulating:
//
//	dominosim -exp fig14 -checkpoint fig14.ckpt   # ^C, then rerun to resume
//	dominosim -exp fig14 -job-timeout 5m
//	dominosim -exp fig14 -fault-policy failfast
//
// Evaluate one prefetcher on one workload, optionally tracing its
// decisions as JSONL:
//
//	dominosim -eval -workload OLTP -prefetcher domino -degree 4
//	dominosim -eval -workload OLTP -decision-trace trace.jsonl -decision-sample 64
//
// Measure speedup or opportunity:
//
//	dominosim -speedup -workload "Web Search" -prefetcher stms
//	dominosim -opportunity -workload OLTP
//
// List available experiments, workloads and prefetchers:
//
//	dominosim -list
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"runtime"
	"runtime/pprof"
	"strings"
	"syscall"

	"domino"
	"domino/internal/prefetch"
	"domino/internal/telemetry"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	os.Exit(run(ctx, os.Args[1:], os.Stdout, os.Stderr))
}

// run is main, testably: flags from args, results to stdout, telemetry
// and errors to stderr, exit code returned (0 ok, 1 runtime error —
// including failed cells under the degrading fault policy, 2 usage error,
// 3 interrupted). Cancelling ctx stops the sweep after the in-flight cells
// drain.
func run(ctx context.Context, args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("dominosim", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		exp         = fs.String("exp", "", "experiment to run (fig1..fig16); empty for other modes")
		evalMode    = fs.Bool("eval", false, "evaluate one prefetcher on one workload")
		speedup     = fs.Bool("speedup", false, "measure timing speedup for one prefetcher")
		opportunity = fs.Bool("opportunity", false, "measure Sequitur opportunity for one workload")
		list        = fs.Bool("list", false, "list experiments, workloads and prefetchers")
		workloadF   = fs.String("workload", "", "workload name (empty = all, where applicable)")
		prefetcher  = fs.String("prefetcher", "domino", "prefetcher kind")
		degree      = fs.Int("degree", 4, "prefetch degree")
		accesses    = fs.Int("accesses", 2_000_000, "trace length per workload, including warmup")
		warmup      = fs.Int("warmup", 1_000_000, "warmup accesses excluded from measurement")
		scale       = fs.Int("scale", 16, "metadata-table scale divisor (paper size / scale)")
		jobs        = fs.Int("j", 0, "parallel simulation jobs (0 = one per CPU, 1 = serial); output is identical at every setting")
		traceFile   = fs.String("trace", "", "with -eval or -exp: drive the run from an external trace file (native or ChampSim, optionally .gz/.xz) instead of a synthetic workload")
		traceLimit  = fs.Int("trace-limit", 0, "with -trace: cap the number of accesses ingested from the trace (0 = -accesses)")
		samples     = fs.Int("samples", 0, "with -speedup: repeat over N independent samples and report mean ± 95% CI")
		format      = fs.String("format", "table", "with -exp: output format (table, csv, bars)")

		checkpointF = fs.String("checkpoint", "", "with -exp: persist finished cells to this JSONL file and resume from it on rerun")
		faultPolicy = fs.String("fault-policy", "degrade", "what to do when a simulation cell fails: degrade (render \"-\", finish the sweep) or failfast")
		jobTimeout  = fs.Duration("job-timeout", 0, "per-cell wall-time budget; an over-budget cell counts as failed (0 = no limit)")

		progressF  = fs.Bool("progress", false, "render live per-job progress and ETA to stderr")
		timingF    = fs.Bool("timing", false, "print a per-cell wall-time table to stderr after the run")
		metricsF   = fs.String("metrics", "", "write a JSON dump of the metrics registry to this file at exit")
		decTraceF  = fs.String("decision-trace", "", "with -eval: write a JSONL trace of sampled prefetcher decisions to this file")
		decSampleF = fs.Int("decision-sample", 1, "with -decision-trace: record every Nth triggering event")
		cpuprofile = fs.String("cpuprofile", "", "write a CPU profile to this file")
		memprofile = fs.String("memprofile", "", "write a heap profile to this file at exit")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *jobs < 0 {
		fmt.Fprintf(stderr, "dominosim: invalid -j %d: the job count must be >= 0 (0 = one worker per CPU, 1 = serial)\n", *jobs)
		return 2
	}
	if *warmup < 0 {
		fmt.Fprintf(stderr, "dominosim: invalid -warmup %d: the warmup access count must be >= 0\n", *warmup)
		return 2
	}
	if *traceFile != "" && !*evalMode && *exp == "" {
		fmt.Fprintln(stderr, "dominosim: -trace requires -eval or -exp (external traces drive evaluations and experiment sweeps)")
		return 2
	}
	if *traceLimit != 0 && *traceFile == "" {
		fmt.Fprintln(stderr, "dominosim: -trace-limit requires -trace")
		return 2
	}
	if *traceLimit < 0 {
		fmt.Fprintf(stderr, "dominosim: invalid -trace-limit %d: must be >= 0\n", *traceLimit)
		return 2
	}
	if *decTraceF != "" && !*evalMode {
		fmt.Fprintln(stderr, "dominosim: -decision-trace requires -eval (decisions are traced per evaluation, not per experiment)")
		return 2
	}
	if *checkpointF != "" && *exp == "" {
		fmt.Fprintln(stderr, "dominosim: -checkpoint requires -exp (only experiment sweeps have resumable cells)")
		return 2
	}
	var policy domino.FaultPolicy
	switch *faultPolicy {
	case "degrade":
		policy = domino.Degrade
	case "failfast":
		policy = domino.FailFast
	default:
		fmt.Fprintf(stderr, "dominosim: invalid -fault-policy %q (have degrade, failfast)\n", *faultPolicy)
		return 2
	}
	if *jobTimeout < 0 {
		fmt.Fprintf(stderr, "dominosim: invalid -job-timeout %v: must be >= 0\n", *jobTimeout)
		return 2
	}

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			return fail(stderr, err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			f.Close()
			return fail(stderr, err)
		}
		defer func() {
			pprof.StopCPUProfile()
			f.Close()
		}()
	}
	if *memprofile != "" {
		defer func() {
			f, err := os.Create(*memprofile)
			if err != nil {
				fmt.Fprintln(stderr, "dominosim:", err)
				return
			}
			defer f.Close()
			runtime.GC() // up-to-date allocation statistics
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintln(stderr, "dominosim:", err)
			}
		}()
	}

	o := domino.Options{
		Degree: *degree, Accesses: *accesses, Warmup: *warmup, Scale: *scale,
		Parallelism:    *jobs,
		FaultPolicy:    policy,
		JobTimeout:     *jobTimeout,
		CheckpointPath: *checkpointF,
		TraceLimit:     *traceLimit,
	}
	if *exp != "" {
		// -exp consumes the trace through the facade (one bounded load,
		// shared by every cell); -eval streams the file directly.
		o.TracePath = *traceFile
	}

	var progress *telemetry.Progress
	var timing *telemetry.Timing
	var observers []telemetry.JobObserver
	if *progressF {
		progress = telemetry.NewProgress(stderr)
		observers = append(observers, progress)
	}
	if *timingF {
		timing = telemetry.NewTiming()
		observers = append(observers, timing)
	}
	o.Observer = telemetry.MultiObserver(observers...)
	// The registry is always on: the engine's failure/skip counters decide
	// the exit code and the end-of-run summary, not just the -metrics dump.
	o.Metrics = telemetry.New()

	var decisions *telemetry.JSONL
	if *decTraceF != "" {
		f, err := os.Create(*decTraceF)
		if err != nil {
			return fail(stderr, err)
		}
		defer f.Close()
		decisions = telemetry.NewJSONL(f)
		o.DecisionTracer = prefetch.TracerFunc(func(d prefetch.Decision) { decisions.Emit(d) })
		o.DecisionSample = *decSampleF
	}

	stopWall := o.Metrics.Histogram("run.wall").Start()
	err := dispatch(ctx, o, stdout,
		*list, *exp, *evalMode, *speedup, *opportunity,
		*workloadF, *prefetcher, *traceFile, *samples, *format)
	stopWall()

	if progress != nil {
		progress.Finish()
	}
	if timing != nil {
		timing.WriteTable(stderr)
	}
	code := 0
	if err != nil {
		if err == errUsage {
			fs.Usage()
			return 2
		}
		fmt.Fprintln(stderr, "dominosim:", err)
		code = 1
	}
	// Resilience summary: failed cells (degrading fault policy) make the
	// run exit nonzero even though the tables printed; an interrupt that
	// skipped cells exits 3 so scripts can tell "partial by signal" from
	// "partial by failure". Restored counts surface resumes from
	// -checkpoint.
	if failed := o.Metrics.Counter("engine.jobs_failed").Value(); failed > 0 {
		fmt.Fprintf(stderr, "dominosim: %d simulation cell(s) failed; their table cells render as \"-\"\n", failed)
		code = 1
	}
	if restored := o.Metrics.Counter("engine.jobs_restored").Value(); restored > 0 {
		fmt.Fprintf(stderr, "dominosim: %d cell(s) restored from checkpoint %s\n", restored, *checkpointF)
	}
	if skipped := o.Metrics.Counter("engine.jobs_skipped").Value(); skipped > 0 && ctx.Err() != nil {
		fmt.Fprintf(stderr, "dominosim: interrupted: %d cell(s) not run; finished cells are rendered", skipped)
		if *checkpointF != "" {
			fmt.Fprintf(stderr, " and saved to %s (rerun the same command to resume)", *checkpointF)
		}
		fmt.Fprintln(stderr)
		code = 3
	}
	if decisions != nil {
		o.Metrics.Counter("trace.decisions").Add(decisions.Count())
		if err := decisions.Err(); err != nil {
			fmt.Fprintln(stderr, "dominosim: decision trace:", err)
			code = 1
		}
	}
	if *metricsF != "" {
		if err := o.Metrics.WriteFile(*metricsF); err != nil {
			fmt.Fprintln(stderr, "dominosim:", err)
			code = 1
		}
	}
	return code
}

// errUsage asks run to print usage and exit 2.
var errUsage = fmt.Errorf("usage")

// dispatch executes the selected mode, writing results to stdout.
func dispatch(ctx context.Context, o domino.Options, stdout io.Writer,
	list bool, exp string, evalMode, speedup, opportunity bool,
	workloadF, prefetcher, traceFile string, samples int, format string) error {
	switch {
	case list:
		fmt.Fprintln(stdout, "experiments:", join(domino.Experiments()))
		fmt.Fprintln(stdout, "workloads:  ", strings.Join(domino.Workloads(), ", "))
		fmt.Fprintln(stdout, "prefetchers:", join(domino.Kinds()))
	case exp != "":
		var ws []string
		if workloadF != "" {
			ws = []string{workloadF}
		}
		out, err := domino.RunExperimentFormatContext(ctx, domino.Experiment(exp), o, domino.Format(format), ws...)
		if err != nil {
			return err
		}
		fmt.Fprint(stdout, out)
	case evalMode && traceFile != "":
		f, err := os.Open(traceFile)
		if err != nil {
			return err
		}
		defer f.Close()
		rep, err := domino.EvaluateTraceFile(f, traceFile, domino.Kind(prefetcher), o)
		if err != nil {
			return err
		}
		fmt.Fprintf(stdout, "%-16s %-12s coverage=%5.1f%% overpred=%5.1f%% accuracy=%5.1f%% misses=%d\n",
			rep.Workload, rep.Prefetcher, rep.Coverage*100, rep.Overprediction*100,
			rep.Accuracy*100, rep.Misses)
	case evalMode:
		for _, w := range pick(workloadF) {
			rep, err := domino.Evaluate(w, domino.Kind(prefetcher), o)
			if err != nil {
				return err
			}
			fmt.Fprintf(stdout, "%-16s %-12s coverage=%5.1f%% overpred=%5.1f%% accuracy=%5.1f%% traffic-overhead=%5.1f%% misses=%d\n",
				rep.Workload, rep.Prefetcher, rep.Coverage*100, rep.Overprediction*100,
				rep.Accuracy*100, rep.TrafficOverhead*100, rep.Misses)
		}
	case speedup && samples > 1:
		for _, w := range pick(workloadF) {
			ci, err := domino.MeasureSpeedupCI(w, domino.Kind(prefetcher), o, samples)
			if err != nil {
				return err
			}
			fmt.Fprintf(stdout, "%-16s %-12s speedup=%.3f ±%.3f (95%% CI, %d samples, err %.1f%%)\n",
				w, prefetcher, ci.Mean, ci.CI95, samples, ci.RelativeError*100)
		}
	case speedup:
		for _, w := range pick(workloadF) {
			rep, err := domino.MeasureSpeedup(w, domino.Kind(prefetcher), o)
			if err != nil {
				return err
			}
			fmt.Fprintf(stdout, "%-16s %-12s baseline-IPC=%.3f IPC=%.3f speedup=%.3f\n",
				rep.Workload, rep.Prefetcher, rep.BaselineIPC, rep.IPC, rep.Speedup)
		}
	case opportunity:
		for _, w := range pick(workloadF) {
			rep, err := domino.MeasureOpportunity(w, o)
			if err != nil {
				return err
			}
			fmt.Fprintf(stdout, "%-16s opportunity=%5.1f%% mean-stream=%.2f short-streams=%5.1f%% misses=%d\n",
				rep.Workload, rep.Coverage*100, rep.MeanStreamLength,
				rep.ShortStreamFraction*100, rep.Misses)
		}
	default:
		return errUsage
	}
	return nil
}

func pick(workload string) []string {
	if workload != "" {
		return []string{workload}
	}
	return domino.Workloads()
}

func join[T ~string](xs []T) string {
	ss := make([]string, len(xs))
	for i, x := range xs {
		ss[i] = string(x)
	}
	return strings.Join(ss, ", ")
}

func fail(stderr io.Writer, err error) int {
	fmt.Fprintln(stderr, "dominosim:", err)
	return 1
}
