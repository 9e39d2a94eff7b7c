// Package domino is a from-scratch Go implementation of the Domino
// temporal data prefetcher (Bakhshalipour, Lotfi-Kamran, Sarbazi-Azad,
// "Domino Temporal Data Prefetcher", HPCA 2018), together with the
// baseline prefetchers it is evaluated against (STMS, Digram, ISB, VLDP),
// the Sequitur opportunity oracle, synthetic server workloads standing in
// for the paper's CloudSuite/SPECweb/TPC-C traces, and a trace-based and
// timing evaluation harness that regenerates every figure of the paper's
// evaluation.
//
// This package is the high-level facade: evaluate a prefetcher on a
// workload, measure speedup, quantify the temporal opportunity, or run a
// whole paper experiment by figure number. The building blocks live under
// internal/ (see DESIGN.md for the module map); cmd/dominosim exposes the
// same functionality on the command line.
//
// A minimal use:
//
//	report, err := domino.Evaluate("OLTP", domino.Domino, domino.DefaultOptions())
//	fmt.Println(report.Coverage) // fraction of L1-D misses covered
package domino

import (
	"fmt"
	"io"
	"path/filepath"
	"time"

	"domino/internal/dram"
	"domino/internal/experiments"
	"domino/internal/prefetch"
	"domino/internal/sequitur"
	"domino/internal/telemetry"
	"domino/internal/timing"
	"domino/internal/trace"
	"domino/internal/workload"

	"domino/internal/config"
)

// Kind selects one of the implemented prefetchers.
type Kind string

// The available prefetchers. Domino is the paper's contribution; the rest
// are the baselines of Section IV-D (plus a classic stride prefetcher and
// the stacked spatio-temporal system of Section V-E).
const (
	None        Kind = "none"
	Stride      Kind = "stride"
	Markov      Kind = "markov"
	GHB         Kind = "ghb"
	VLDP        Kind = "vldp"
	ISB         Kind = "isb"
	STMS        Kind = "stms"
	Digram      Kind = "digram"
	Domino      Kind = "domino"
	SpatioTempo Kind = "vldp+domino"
)

// Kinds lists every selectable prefetcher.
func Kinds() []Kind {
	return []Kind{None, Stride, Markov, GHB, VLDP, ISB, STMS, Digram, Domino, SpatioTempo}
}

// Workloads returns the nine server workloads of Table II, in the paper's
// figure order.
func Workloads() []string { return append([]string(nil), workload.Names...) }

// Options scale an evaluation. Zero values are replaced by defaults.
type Options struct {
	// Degree is the prefetch degree (paper: 1 for Fig. 11, 4 elsewhere).
	Degree int
	// Accesses is the trace length, including warmup.
	Accesses int
	// Warmup is the number of leading accesses used only to warm caches
	// and prefetcher metadata.
	Warmup int
	// Scale divides the paper-size metadata tables to match shortened
	// traces (DESIGN.md §3).
	Scale int
	// Parallelism bounds the worker pool experiments use to run their
	// independent simulation cells (cmd/dominosim's -j flag). 0 means one
	// worker per usable CPU; 1 forces a serial run. Output is
	// byte-identical at every setting.
	Parallelism int
	// Observer, if non-nil, receives per-job lifecycle events from the
	// experiment engine: telemetry.NewProgress for a live stderr
	// progress line, telemetry.NewTiming for a per-cell wall-time table,
	// or both via telemetry.MultiObserver. Observers never affect
	// results or rendered output.
	Observer telemetry.JobObserver
	// Metrics, if non-nil, accumulates counters and histograms across the
	// run — engine job counts and durations, and per-class off-chip
	// traffic for trace-based evaluations. Dump it with
	// Registry.WriteJSON (cmd/dominosim's -metrics flag).
	Metrics *telemetry.Registry
	// DecisionTracer, if non-nil, receives a sampled structured record
	// of every prefetcher decision during Evaluate and
	// EvaluateTraceFile (cmd/dominosim exports it as JSONL via
	// -decision-trace).
	DecisionTracer prefetch.DecisionTracer
	// DecisionSample records every Nth triggering event when
	// DecisionTracer is set; values below 1 record every event.
	DecisionSample int
	// FaultPolicy selects what experiments do when a simulation cell
	// panics or times out: FailFast (the zero value) re-raises the first
	// failure in job order; Degrade records the failure, renders the cell
	// as "-", and lets the rest of the sweep finish (cmd/dominosim's
	// default).
	FaultPolicy FaultPolicy
	// JobTimeout, when positive, bounds each simulation cell's wall time;
	// a cell exceeding it counts as failed under FaultPolicy.
	JobTimeout time.Duration
	// CheckpointPath, when non-empty, persists completed cells of
	// RunExperiment/RunExperimentFormat runs to a JSONL file and restores
	// them on a rerun with the same configuration, so an interrupted
	// sweep resumes instead of restarting (cmd/dominosim's -checkpoint).
	CheckpointPath string
	// TracePath, when non-empty, drives experiment sweeps from an
	// external trace file — native or ChampSim format, optionally
	// gzip/xz-compressed (see internal/trace) — instead of the synthetic
	// workload generators (cmd/dominosim's -trace with -exp). Grids then
	// carry one workload row, named after the file.
	TracePath string
	// TraceLimit bounds how many accesses are loaded from TracePath; 0
	// means Accesses (the engine never replays more than that per cell).
	TraceLimit int
}

// FaultPolicy selects how experiment sweeps react to failing cells.
type FaultPolicy int

const (
	// FailFast re-raises the first cell failure in job order, the
	// historical behaviour.
	FailFast FaultPolicy = iota
	// Degrade drops failed cells from the rendered grids ("-") and lets
	// the sweep finish.
	Degrade
)

// DefaultOptions is laptop scale: 2 M accesses, half warmup, tables /16,
// degree 4.
func DefaultOptions() Options {
	return Options{Degree: 4, Accesses: 2_000_000, Warmup: 1_000_000, Scale: 16}
}

// QuickOptions is demo/CI scale.
func QuickOptions() Options {
	return Options{Degree: 4, Accesses: 400_000, Warmup: 200_000, Scale: 32}
}

func (o Options) normalised() Options {
	d := DefaultOptions()
	if o.Degree <= 0 {
		o.Degree = d.Degree
	}
	if o.Accesses <= 0 {
		o.Accesses = d.Accesses
	}
	if o.Warmup < 0 || o.Warmup >= o.Accesses {
		o.Warmup = o.Accesses / 2
	}
	if o.Warmup == 0 {
		o.Warmup = o.Accesses / 2
	}
	if o.Scale <= 0 {
		o.Scale = d.Scale
	}
	return o
}

func (o Options) experimentOptions(workloads ...string) experiments.Options {
	return experiments.Options{
		Accesses:    o.Accesses,
		Warmup:      o.Warmup,
		Scale:       o.Scale,
		Workloads:   workloads,
		Parallelism: o.Parallelism,
		Observer:    o.Observer,
		Metrics:     o.Metrics,
		FaultPolicy: experiments.FaultPolicy(o.FaultPolicy),
		JobTimeout:  o.JobTimeout,
	}
}

// Report is the outcome of a trace-based evaluation (the metrics of
// Figures 11 and 13).
type Report struct {
	Workload   string
	Prefetcher Kind
	// Misses is the baseline L1-D miss count of the measured window.
	Misses uint64
	// Coverage is the fraction of misses served by the prefetch buffer.
	Coverage float64
	// Overprediction is never-consumed prefetches over baseline misses.
	Overprediction float64
	// Accuracy is consumed prefetches over issued prefetches.
	Accuracy float64
	// MeanStreamLength is the average run of consecutive covered misses
	// (Figure 2's realised stream length).
	MeanStreamLength float64
	// TrafficOverhead is extra off-chip traffic (wrong prefetches +
	// metadata) over baseline demand traffic (Figure 15's metric).
	TrafficOverhead float64
}

// Evaluate runs the trace-based evaluation of one prefetcher on one
// workload under the Section IV-D conditions.
func Evaluate(workloadName string, kind Kind, o Options) (Report, error) {
	o = o.normalised()
	wp, err := lookupWorkload(workloadName)
	if err != nil {
		return Report{}, err
	}
	if err := validKind(kind); err != nil {
		return Report{}, err
	}
	meter := &dram.Meter{}
	cfg := prefetch.DefaultEvalConfig()
	cfg.Meter = meter
	cfg.Tracer = o.DecisionTracer
	cfg.TraceEvery = o.DecisionSample
	p := experiments.Build(string(kind), o.Degree, meter, o.Scale)
	tr := trace.Limit(workload.New(wp), o.Accesses)
	r := prefetch.RunWarm(tr, p, cfg, o.Warmup)
	publishTraffic(o.Metrics, meter)
	rep := Report{
		Workload:         wp.Name,
		Prefetcher:       kind,
		Misses:           r.Misses,
		Coverage:         r.Coverage(),
		Overprediction:   r.Overprediction(),
		Accuracy:         r.Accuracy(),
		MeanStreamLength: r.MeanStreamLength(),
	}
	if base := float64(r.Misses) * 64; base > 0 {
		rep.TrafficOverhead = float64(meter.OverheadBytes()) / base
	}
	return rep, nil
}

// EvaluateTraceFile runs the trace-based evaluation of one prefetcher on
// an external trace, instead of a built-in synthetic workload. The input
// may be in the native format written by cmd/tracegen or in the ChampSim
// instruction format, optionally gzip- or xz-compressed; the format is
// auto-detected (see internal/trace). The report's Workload field carries
// the provided label.
func EvaluateTraceFile(r io.Reader, label string, kind Kind, o Options) (Report, error) {
	o = o.normalised()
	if err := validKind(kind); err != nil {
		return Report{}, err
	}
	s, err := trace.NewStream(r)
	if err != nil {
		return Report{}, err
	}
	defer s.Close()
	meter := &dram.Meter{}
	cfg := prefetch.DefaultEvalConfig()
	cfg.Meter = meter
	cfg.Tracer = o.DecisionTracer
	cfg.TraceEvery = o.DecisionSample
	p := experiments.Build(string(kind), o.Degree, meter, o.Scale)
	warm := o.Warmup
	// Native traces declare their length up front: halve an
	// all-of-the-trace warmup so a measurement window remains. ChampSim
	// traces are headerless; RunWarm's end-of-trace clamp covers them.
	if count, ok := s.Count(); ok && uint64(warm) >= count {
		warm = int(count / 2)
	}
	var tr trace.Reader = s
	if o.TraceLimit > 0 {
		tr = trace.Limit(s, o.TraceLimit)
	}
	res := prefetch.RunWarm(tr, p, cfg, warm)
	if err := s.Err(); err != nil {
		return Report{}, err
	}
	publishTraffic(o.Metrics, meter)
	rep := Report{
		Workload:         label,
		Prefetcher:       kind,
		Misses:           res.Misses,
		Coverage:         res.Coverage(),
		Overprediction:   res.Overprediction(),
		Accuracy:         res.Accuracy(),
		MeanStreamLength: res.MeanStreamLength(),
	}
	if base := float64(res.Misses) * 64; base > 0 {
		rep.TrafficOverhead = float64(meter.OverheadBytes()) / base
	}
	return rep, nil
}

// loadTrace materialises the configured external trace file in memory,
// bounded by TraceLimit (or Accesses), for experiment sweeps: a sweep's
// cells replay the trace many times in parallel, so one bounded load
// beats re-decoding the file per cell — and the bound keeps a hostile or
// oversized file from ballooning the sweep's memory. The returned label
// (the file's base name) becomes the grid's workload row.
func (o Options) loadTrace() (*trace.Trace, string, error) {
	s, err := trace.OpenStream(o.TracePath)
	if err != nil {
		return nil, "", err
	}
	defer s.Close()
	max := o.TraceLimit
	if max <= 0 {
		max = o.Accesses
	}
	t := trace.Collect(trace.Limit(s, max), 0)
	if err := s.Err(); err != nil {
		return nil, "", fmt.Errorf("%s: %w", o.TracePath, err)
	}
	if t.Len() == 0 {
		return nil, "", fmt.Errorf("%s: trace contains no accesses", o.TracePath)
	}
	return t, filepath.Base(o.TracePath), nil
}

// SpeedupReport is the outcome of a timing evaluation (Figure 14's metric).
type SpeedupReport struct {
	Workload    string
	Prefetcher  Kind
	BaselineIPC float64
	IPC         float64
	Speedup     float64
}

// MeasureSpeedup runs the timing model for one prefetcher on one workload
// and reports its speedup over the no-prefetcher baseline.
func MeasureSpeedup(workloadName string, kind Kind, o Options) (SpeedupReport, error) {
	o = o.normalised()
	wp, err := lookupWorkload(workloadName)
	if err != nil {
		return SpeedupReport{}, err
	}
	if err := validKind(kind); err != nil {
		return SpeedupReport{}, err
	}
	mc := config.DefaultMachine().ScaleLLCForTrace(o.Scale)
	base := timing.Run(trace.Limit(workload.New(wp), o.Accesses), mc, prefetch.Null{}, nil, o.Warmup)
	meter := &dram.Meter{}
	p := experiments.Build(string(kind), o.Degree, meter, o.Scale)
	r := timing.Run(trace.Limit(workload.New(wp), o.Accesses), mc, p, meter, o.Warmup)
	return SpeedupReport{
		Workload:    wp.Name,
		Prefetcher:  kind,
		BaselineIPC: base.IPC(),
		IPC:         r.IPC(),
		Speedup:     r.SpeedupOver(base),
	}, nil
}

// OpportunityReport is the Sequitur measurement of a workload's temporal
// prefetching opportunity (Figures 1, 2 and 12).
type OpportunityReport struct {
	Workload string
	// Misses is the analysed miss-sequence length.
	Misses int
	// Coverage is the oracle coverage: the fraction of misses inside
	// repeated streams, minus each stream's trigger.
	Coverage float64
	// MeanStreamLength is the average repeated-segment length.
	MeanStreamLength float64
	// ShortStreamFraction is the fraction of streams of length <= 2 —
	// the streams a two-address-only lookup cannot act on.
	ShortStreamFraction float64
}

// MeasureOpportunity runs Sequitur over a workload's baseline miss
// sequence.
func MeasureOpportunity(workloadName string, o Options) (OpportunityReport, error) {
	o = o.normalised()
	wp, err := lookupWorkload(workloadName)
	if err != nil {
		return OpportunityReport{}, err
	}
	tr := trace.Limit(workload.New(wp), o.Accesses)
	lines := prefetch.MissLines(tr, prefetch.DefaultEvalConfig())
	syms := make([]uint64, len(lines))
	for i, l := range lines {
		syms[i] = uint64(l)
	}
	a := sequitur.Analyze(syms)
	return OpportunityReport{
		Workload:            wp.Name,
		Misses:              a.TotalMisses,
		Coverage:            a.Coverage(),
		MeanStreamLength:    a.MeanStreamLength(),
		ShortStreamFraction: a.FractionShortStreams(),
	}, nil
}

// publishTraffic folds a run's off-chip traffic decomposition into the
// metrics registry, one counter pair per dram.Class, accumulating across
// evaluations within a process.
func publishTraffic(reg *telemetry.Registry, meter *dram.Meter) {
	if reg == nil {
		return
	}
	meter.Each(func(c dram.Class, bytes, transfers uint64) {
		reg.Counter("dram." + c.String() + ".bytes").Add(int64(bytes))
		reg.Counter("dram." + c.String() + ".transfers").Add(int64(transfers))
	})
}

func lookupWorkload(name string) (workload.Params, error) {
	for _, n := range workload.Names {
		if n == name {
			return workload.ByName(n), nil
		}
	}
	return workload.Params{}, fmt.Errorf("domino: unknown workload %q (have %v)", name, workload.Names)
}

func validKind(k Kind) error {
	for _, have := range Kinds() {
		if have == k {
			return nil
		}
	}
	return fmt.Errorf("domino: unknown prefetcher %q (have %v)", k, Kinds())
}

// CI is a sampled measurement with a 95% confidence interval, following
// the paper's SimFlex-style sampling methodology ("performance
// measurements are computed with 95% confidence and an error of less than
// 4%").
type CI struct {
	Mean          float64
	CI95          float64
	RelativeError float64
	Samples       []float64
}

// MeasureSpeedupCI repeats MeasureSpeedup over k independent samples
// (distinct execution windows of the same workload) and reports the mean
// speedup with its 95% confidence half-width.
func MeasureSpeedupCI(workloadName string, kind Kind, o Options, k int) (CI, error) {
	o = o.normalised()
	if _, err := lookupWorkload(workloadName); err != nil {
		return CI{}, err
	}
	if err := validKind(kind); err != nil {
		return CI{}, err
	}
	if k < 2 {
		k = 2
	}
	r := experiments.SpeedupCI(o.experimentOptions(), workloadName, string(kind), o.Degree, k)
	return CI{Mean: r.Mean, CI95: r.CI95, RelativeError: r.RelativeError(), Samples: r.Samples}, nil
}
