// Command perfbench is the repository benchmark. One invocation runs one
// workload from a single process, as an outside caller of the simulator's
// public packages: it builds its inputs from --seed, measures for
// --seconds, checks the program's outputs against independent replays,
// and prints every metric by name and unit.
//
//	perfbench --workload eval-trace --seed 1 --seconds 30 --trace 0
//
// With --trace 0 the metrics are the end-to-end ones, measured with no
// tracing. With --trace 1 the benchmark makes a plain pass and then a
// second, traced pass over the same inputs, and prints the per-layer
// metrics: self times at each layer boundary, counts, the share of the
// traced wall time no layer accounts for, and the tracing overhead.
//
// The last line of standard output is one JSON object:
//
//	{"correct":true,"attempted":12,"failed":0,"metrics":{"wall_s":{"value":0.71,"unit":"s"}, ...}}
//
// The exit code is 0 only when every output check passed. README.md
// lists the workloads and the metric table.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"
)

// metricDef names one reported metric and its unit. The lists below are
// the benchmark's contract; BENCHMARK.json repeats them (a test keeps the
// two in step).
type metricDef struct{ name, unit string }

// endToEnd are printed with --trace 0, by every workload.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"wall_s", "s"},
	{"accesses_per_s", "1/s"},
	{"peak_rss_mb", "MB"},
	{"batch_p50_us", "us"},
	{"batch_p99_us", "us"},
}

// perLayer are printed with --trace 1, by every workload. A layer the
// workload does not exercise reports 0.
var perLayer = []metricDef{
	{"trace.decode_ns_per_access", "ns"},
	{"workload.gen_ns_per_access", "ns"},
	{"cache.l1_filter_ns_per_access", "ns"},
	{"cache.l1_miss_ratio", "ratio"},
	{"prefetch.step_self_ns_per_access", "ns"},
	{"prefetch.redundant_frac", "ratio"},
	{"prefetch.coverage", "ratio"},
	{"prefetch.accuracy", "ratio"},
	{"core.trigger_ns_per_event", "ns"},
	{"core.events", "count"},
	{"core.candidates_per_event", "count"},
	{"stms.trigger_ns_per_event", "ns"},
	{"digram.trigger_ns_per_event", "ns"},
	{"isb.trigger_ns_per_event", "ns"},
	{"vldp.trigger_ns_per_event", "ns"},
	{"timing.step_self_ns_per_access", "ns"},
	{"timing.baseline_cell_s", "s"},
	{"experiments.cell_s_sum", "s"},
	{"experiments.cell_max_s", "s"},
	{"experiments.idle_frac", "ratio"},
	{"serve.submit_us_p50", "us"},
	{"serve.submit_us_p99", "us"},
	{"serve.queue_wait_us_p50", "us"},
	{"serve.queue_wait_us_p99", "us"},
	{"serve.batch_service_us_p50", "us"},
	{"serve.batch_service_us_p99", "us"},
	{"serve.session_ns_per_access", "ns"},
	{"serve.overhead_ns_per_access", "ns"},
	{"serve.session_builds", "count"},
	{"serve.evictions", "count"},
	{"serve.hit_rate", "ratio"},
	{"serve.gen_late_p99_us", "us"},
	{"runtime.allocs_per_access", "count"},
	{"runtime.gc_cpu_frac", "ratio"},
	{"failed_frac", "ratio"},
	{"unexplained_frac", "ratio"},
	{"trace_overhead_frac", "ratio"},
}

// sizes fixes how much work one run does. Tests shrink it.
type sizes struct {
	evalAccesses  int     // eval-trace: trace length, half of it warm-up
	sweepAccesses int     // sweep-fig14: accesses per cell
	serveRate     float64 // serve-open: offered accesses per second
}

func defaultSizes() sizes {
	return sizes{
		evalAccesses:  1 << 20,
		sweepAccesses: 200_000,
		serveRate:     serveOfferedRate,
	}
}

// workloads maps a --workload name onto its runner.
var workloads = map[string]func(*run) error{
	"eval-trace":  evalTrace,
	"sweep-fig14": sweepFig14,
	"serve-open":  serveOpen,
}

// options is one invocation's parsed command line.
type options struct {
	workload string
	seed     int64
	seconds  time.Duration
	traced   bool
	outDir   string
	size     sizes
}

func main() {
	opts, err := parseFlags(os.Args[1:], os.Stderr)
	if err != nil {
		os.Exit(2)
	}
	os.Exit(runBenchmark(opts, os.Stdout, os.Stderr))
}

func parseFlags(args []string, stderr io.Writer) (options, error) {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		name    = fs.String("workload", "", "workload: eval-trace, sweep-fig14 or serve-open")
		seed    = fs.Int64("seed", 1, "input seed; the same seed gives the same inputs")
		seconds = fs.Float64("seconds", 10, "length of the measured phase")
		traced  = fs.Int("trace", 0, "1 = also make a traced pass and print the per-layer metrics")
		outDir  = fs.String("outdir", ".bench_build", "directory for the trace file and the span log")
	)
	if err := fs.Parse(args); err != nil {
		return options{}, err
	}
	if _, ok := workloads[*name]; !ok {
		fmt.Fprintf(stderr, "perfbench: unknown --workload %q (have eval-trace, sweep-fig14, serve-open)\n", *name)
		return options{}, fmt.Errorf("unknown workload")
	}
	if *seconds <= 0 || (*traced != 0 && *traced != 1) {
		fmt.Fprintln(stderr, "perfbench: --seconds must be positive and --trace 0 or 1")
		return options{}, fmt.Errorf("bad flags")
	}
	return options{
		workload: *name,
		seed:     *seed,
		seconds:  time.Duration(*seconds * float64(time.Second)),
		traced:   *traced == 1,
		outDir:   *outDir,
		size:     defaultSizes(),
	}, nil
}

// runBenchmark runs one workload and prints its report and result line.
// It returns the process exit code.
func runBenchmark(o options, stdout, stderr io.Writer) int {
	if err := os.MkdirAll(o.outDir, 0o755); err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	env := stampEnv()
	envLine, _ := json.Marshal(env)
	fmt.Fprintf(stdout, "env %s\n", envLine)
	if env.Warning != "" {
		fmt.Fprintf(stderr, "perfbench: warning: %s\n", env.Warning)
	}
	r := &run{
		workload: o.workload,
		seed:     o.seed,
		seconds:  o.seconds,
		traced:   o.traced,
		size:     o.size,
		dir:      o.outDir,
		log:      stdout,
		values:   make(map[string]float64),
	}
	if err := workloads[o.workload](r); err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", o.workload, err)
		return 1
	}
	if !o.traced {
		r.set("peak_rss_mb", peakRSSMB())
	}
	r.set("failed_frac", ratio(float64(r.failed), float64(r.attempted)))
	if o.traced && len(r.spans.spans) > 0 {
		path := filepath.Join(o.outDir, fmt.Sprintf("spans-%s-seed%d.jsonl", o.workload, o.seed))
		if err := r.spans.write(path, env); err != nil {
			fmt.Fprintf(stderr, "perfbench: writing spans: %v\n", err)
			return 1
		}
		r.logf("spans: %d written to %s", len(r.spans.spans), path)
	}
	defs := endToEnd
	if o.traced {
		defs = perLayer
	}
	out, err := r.result(defs)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", o.workload, err)
		return 1
	}
	for _, p := range r.problems {
		fmt.Fprintf(stderr, "perfbench: check failed: %s\n", p)
	}
	line, _ := json.Marshal(out)
	fmt.Fprintf(stdout, "%s\n", line)
	if !out.Correct {
		return 1
	}
	return 0
}

// run is the state of one invocation: its inputs, the values measured so
// far, and the output checks that failed.
type run struct {
	workload string
	seed     int64
	seconds  time.Duration
	traced   bool
	size     sizes
	dir      string
	log      io.Writer

	values    map[string]float64
	attempted int64
	failed    int64
	problems  []string
	spans     spanLog
}

func (r *run) set(name string, v float64) { r.values[name] = v }

// setupRepeats is how many times a workload whose set-up takes n repeats
// to settle sets up; setup_s is the median. A traced run does not report
// setup_s and sets up once.
func (r *run) setupRepeats(n int) int {
	if r.traced {
		return 1
	}
	return n
}

// check records a failed output check; a nil error is a pass.
func (r *run) check(err error) {
	if err != nil {
		r.problems = append(r.problems, err.Error())
	}
}

// logf prints one human-readable report line.
func (r *run) logf(format string, args ...any) {
	fmt.Fprintf(r.log, "%s: %s\n", r.workload, fmt.Sprintf(format, args...))
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// result assembles the final line for the metrics in defs. An end-to-end
// metric a workload did not measure is a bug; a per-layer metric of a
// layer the workload does not exercise reports 0.
func (r *run) result(defs []metricDef) (result, error) {
	out := result{
		Correct:   len(r.problems) == 0 && r.failed == 0,
		Attempted: r.attempted,
		Failed:    r.failed,
		Metrics:   make(map[string]metricValue, len(defs)),
	}
	if out.Attempted < 1 {
		return out, fmt.Errorf("nothing attempted")
	}
	for _, d := range defs {
		v, ok := r.values[d.name]
		if !ok && contains(endToEnd, d.name) {
			return out, fmt.Errorf("metric %s was not measured", d.name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return out, fmt.Errorf("metric %s is not finite", d.name)
		}
		out.Metrics[d.name] = metricValue{Value: v, Unit: d.unit}
	}
	return out, nil
}

func contains(defs []metricDef, name string) bool {
	for _, d := range defs {
		if d.name == name {
			return true
		}
	}
	return false
}

// peakRSSMB is the process's peak resident set (VmHWM), in MB.
func peakRSSMB() float64 {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			var kb float64
			fmt.Sscanf(strings.TrimSpace(rest), "%f", &kb)
			return kb / 1024
		}
	}
	return 0
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// median returns the middle of xs (the mean of the middle two for an even
// count); xs is sorted in place.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	n := len(xs)
	if n%2 == 1 {
		return xs[n/2]
	}
	return (xs[n/2-1] + xs[n/2]) / 2
}

// quantile returns the nearest-rank q-quantile of xs, sorting it in place.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	i := int(math.Ceil(q*float64(len(xs)))) - 1
	return xs[max(0, min(i, len(xs)-1))]
}

// medianQuantile is the q-quantile within each group of samples (a pass
// or a time window), median over the groups: a tail that a host hiccup in
// one group cannot move.
func medianQuantile(groups [][]float64, q float64) float64 {
	var qs []float64
	for _, g := range groups {
		if len(g) > 0 {
			qs = append(qs, quantile(g, q))
		}
	}
	return median(qs)
}

// mix derives independent 64-bit seeds from the run seed (splitmix64).
func mix(seed int64, salt uint64) int64 {
	x := uint64(seed) + salt*0x9e3779b97f4a7c15
	x = (x ^ x>>30) * 0xbf58476d1ce4e5b9
	x = (x ^ x>>27) * 0x94d049bb133111eb
	return int64((x ^ x>>31) >> 1)
}

func micros(d time.Duration) float64 { return float64(d) / 1e3 }
