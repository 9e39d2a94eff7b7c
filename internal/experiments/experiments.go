// Package experiments contains one runner per figure and table of the
// paper's evaluation (Section V). Each runner generates the workload
// traces, drives the prefetchers through the shared evaluation framework,
// and returns the same rows/series the paper reports; cmd/dominosim prints
// them and bench_test.go wraps each in a benchmark.
//
// Scale: the paper simulates traces long enough to need a 16 M-entry HT;
// the default Options here run 2 M-access traces (a few hundred thousand
// triggering events per workload) and scale Domino's metadata tables by
// the same factor, preserving the capacity-sensitivity shape (DESIGN.md
// §3). Every runner is deterministic for fixed Options.
package experiments

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"time"

	"domino/internal/core"
	"domino/internal/digram"
	"domino/internal/dram"
	"domino/internal/ghb"
	"domino/internal/isb"
	"domino/internal/markov"
	"domino/internal/prefetch"
	"domino/internal/stms"
	"domino/internal/stride"
	"domino/internal/telemetry"
	"domino/internal/trace"
	"domino/internal/vldp"
	"domino/internal/workload"
)

// Options control the scale of every experiment.
type Options struct {
	// Accesses is the trace length per workload, including warmup.
	Accesses int
	// Warmup is the number of leading accesses replayed to warm caches
	// and prefetcher metadata before statistics are measured, mirroring
	// the paper's warmed-checkpoint methodology.
	Warmup int
	// Scale divides Domino's paper-size metadata tables (16 M-entry HT,
	// 2 M-row EIT) to match the shortened traces.
	Scale int
	// Workloads restricts the run; nil means all nine.
	Workloads []string
	// Parallelism bounds the worker pool the execution engine uses to run
	// a runner's independent simulation cells; 0 (the default) means
	// runtime.GOMAXPROCS(0) and 1 forces a fully serial run. Rendered
	// output is byte-identical at every setting (see engine.go).
	Parallelism int
	// Observer, if non-nil, receives per-job lifecycle events from the
	// engine (telemetry.NewProgress, telemetry.NewTiming, or both via
	// telemetry.MultiObserver). Observers write to stderr or buffers
	// chosen by the caller; rendered experiment output is unaffected.
	Observer telemetry.JobObserver
	// Metrics, if non-nil, accumulates engine counters and histograms
	// (jobs, batches, workers, per-job wall time, plus the resilience
	// counters jobs_failed/jobs_skipped/jobs_restored) for a -metrics
	// dump.
	Metrics *telemetry.Registry
	// FaultPolicy selects what the engine does when a simulation cell
	// panics or times out: FailFast (the zero value) re-raises the first
	// failure in job order, Degrade turns the cell into a missing "-"
	// entry and lets the sweep finish.
	FaultPolicy FaultPolicy
	// JobTimeout, when positive, bounds each cell's wall time: a cell
	// exceeding it is treated as failed under the fault policy. The
	// abandoned cell finishes in the background and its result is
	// discarded.
	JobTimeout time.Duration
	// Checkpoint, if non-nil, persists completed cells and restores them
	// on a rerun (see OpenCheckpoint).
	Checkpoint *Checkpoint
	// ExternalTrace, if non-nil, replaces the synthetic workload
	// generators: every runner replays this in-memory trace (still bounded
	// by Accesses) and the grids carry a single workload row named
	// ExternalTraceName. The trace is shared read-only across cells — each
	// cell replays it through its own cursor, so parallel sweeps stay
	// deterministic.
	ExternalTrace *trace.Trace
	// ExternalTraceName labels the grid row in external-trace mode; empty
	// means "trace".
	ExternalTraceName string

	// chaos, when set (tests only), injects deterministic panics and
	// stalls into job bodies to exercise the degradation paths.
	chaos *chaosConfig
	// drain, when set (tests only), tracks job goroutines abandoned by
	// the timeout watchdog so tests can wait for them before checking
	// for leaks.
	drain *sync.WaitGroup
}

// DefaultOptions is laptop scale: 2 M accesses (half of them warmup),
// tables scaled by 16.
func DefaultOptions() Options {
	return Options{Accesses: 2_000_000, Warmup: 1_000_000, Scale: 16}
}

// QuickOptions is CI/bench scale.
func QuickOptions() Options {
	return Options{Accesses: 400_000, Warmup: 200_000, Scale: 32}
}

func (o Options) workloads() []workload.Params {
	if o.ExternalTrace != nil {
		name := o.ExternalTraceName
		if name == "" {
			name = "trace"
		}
		return []workload.Params{{Name: name}}
	}
	if len(o.Workloads) == 0 {
		return workload.All()
	}
	out := make([]workload.Params, len(o.Workloads))
	for i, n := range o.Workloads {
		out[i] = workload.ByName(n)
	}
	return out
}

func (o Options) trace(p workload.Params) trace.Reader {
	if o.ExternalTrace != nil {
		return trace.Limit(o.ExternalTrace.Reader(), o.Accesses)
	}
	return trace.Limit(workload.New(p), o.Accesses)
}

// multicoreTrace returns the per-core trace override for multicore runs,
// or nil when the synthetic generators are in play. Every core replays
// the same external trace, as four threads sharing one recorded
// application would.
func (o Options) multicoreTrace() func(core int) trace.Reader {
	if o.ExternalTrace == nil {
		return nil
	}
	t := o.ExternalTrace
	return func(int) trace.Reader { return t.Reader() }
}

// missSymbols extracts a workload's baseline L1-D miss line sequence as
// uint64 symbols, the input to Sequitur and the lookup analyses.
func missSymbols(o Options, p workload.Params) []uint64 {
	lines := prefetch.MissLines(o.trace(p), prefetch.DefaultEvalConfig())
	out := make([]uint64, len(lines))
	for i, l := range lines {
		out[i] = uint64(l)
	}
	return out
}

// PrefetcherNames lists the evaluated prefetchers in the paper's figure
// order.
var PrefetcherNames = []string{"vldp", "isb", "stms", "digram", "domino"}

// Build constructs a named prefetcher at the given degree, recording
// metadata traffic into meter (may be nil). Temporal baselines get
// unlimited metadata and Domino gets paper-size tables divided by scale,
// mirroring Section IV-D. Build panics on an unknown name.
func Build(name string, degree int, meter *dram.Meter, scale int) prefetch.Prefetcher {
	switch name {
	case "none":
		return prefetch.Null{}
	case "stride":
		return stride.New(stride.DefaultConfig(degree))
	case "markov":
		return markov.New(markov.DefaultConfig(degree))
	case "ghb":
		return ghb.New(ghb.DefaultConfig(degree))
	case "vldp":
		return vldp.New(vldp.DefaultConfig(degree))
	case "isb":
		return isb.New(isb.DefaultConfig(degree))
	case "stms":
		return stms.New(stms.DefaultConfig(degree), meter)
	case "digram":
		return digram.New(digram.DefaultConfig(degree), meter)
	case "domino":
		return core.New(core.ScaledConfig(degree, scale), meter)
	case "vldp+domino":
		return prefetch.NewStack(
			vldp.New(vldp.DefaultConfig(degree)),
			core.New(core.ScaledConfig(degree, scale), meter))
	default:
		panic("experiments: unknown prefetcher " + name)
	}
}

// Cell is one (workload, series) measurement.
type Cell struct {
	Workload string
	Series   string
	Value    float64
}

// Grid is a set of cells renderable as the paper's grouped-bar figures.
// Populate it through Add: Add maintains an index that makes Value and
// Lookup O(1), which matters now that grids are assembled in a tight
// collect pass after parallel runs (engine.go).
type Grid struct {
	Title  string
	Unit   string // e.g. "%" for fractions rendered as percentages
	Cells  []Cell
	series []string
	index  map[cellKey]int
}

type cellKey struct{ workload, series string }

// Add appends a measurement.
func (g *Grid) Add(workload, series string, v float64) {
	if g.index == nil {
		g.index = make(map[cellKey]int)
	}
	if _, dup := g.index[cellKey{workload, series}]; !dup {
		// First writer wins, matching the old linear scan's behaviour on
		// duplicate (workload, series) pairs.
		g.index[cellKey{workload, series}] = len(g.Cells)
	}
	g.Cells = append(g.Cells, Cell{Workload: workload, Series: series, Value: v})
	for _, s := range g.series {
		if s == series {
			return
		}
	}
	g.series = append(g.series, series)
}

// Lookup returns the cell for (workload, series) and whether it exists —
// use it where a missing cell (a dropped job) must be distinguishable from
// a measured zero.
func (g *Grid) Lookup(workload, series string) (float64, bool) {
	if g.index != nil {
		if i, ok := g.index[cellKey{workload, series}]; ok {
			return g.Cells[i].Value, true
		}
		return 0, false
	}
	// Grids built by writing Cells directly (tests, literals) have no
	// index; fall back to the scan.
	for _, c := range g.Cells {
		if c.Workload == workload && c.Series == series {
			return c.Value, true
		}
	}
	return 0, false
}

// Value returns the cell for (workload, series), or 0 if it is missing.
func (g *Grid) Value(workload, series string) float64 {
	v, _ := g.Lookup(workload, series)
	return v
}

// Series returns the series names in insertion order.
func (g *Grid) Series() []string { return g.series }

// Workloads returns the distinct workload names in insertion order.
func (g *Grid) Workloads() []string {
	var out []string
	seen := map[string]bool{}
	for _, c := range g.Cells {
		if !seen[c.Workload] {
			seen[c.Workload] = true
			out = append(out, c.Workload)
		}
	}
	return out
}

// Mean returns the arithmetic mean of a series across the workloads that
// actually measured it. Missing (workload, series) cells are skipped, not
// averaged in as zeroes.
func (g *Grid) Mean(series string) float64 {
	var sum float64
	n := 0
	for _, c := range g.Cells {
		if c.Series == series {
			sum += c.Value
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}

// String renders the grid as an aligned table, one row per workload, one
// column per series, with a final mean row.
func (g *Grid) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s\n", g.Title)
	series := g.Series()
	width := 16
	for _, w := range g.Workloads() {
		if len(w)+1 > width {
			width = len(w) + 1
		}
	}
	fmt.Fprintf(&b, "%-*s", width, "workload")
	for _, s := range series {
		fmt.Fprintf(&b, "%12s", s)
	}
	b.WriteByte('\n')
	for _, w := range g.Workloads() {
		fmt.Fprintf(&b, "%-*s", width, w)
		for _, s := range series {
			b.WriteString(g.cellString(w, s))
		}
		b.WriteByte('\n')
	}
	fmt.Fprintf(&b, "%-*s", width, "Mean")
	for _, s := range series {
		b.WriteString(g.format(g.Mean(s)))
	}
	b.WriteByte('\n')
	return b.String()
}

// cellString renders one table cell; a missing cell renders as "-" so a
// dropped measurement cannot masquerade as a measured 0.0.
func (g *Grid) cellString(w, s string) string {
	v, ok := g.Lookup(w, s)
	if !ok {
		return fmt.Sprintf("%12s", "-")
	}
	return g.format(v)
}

func (g *Grid) format(v float64) string {
	if g.Unit == "%" {
		return fmt.Sprintf("%11.1f%%", v*100)
	}
	return fmt.Sprintf("%12.2f", v)
}

// SortCells orders cells by workload then series, for stable output in
// tests, and rebuilds the lookup index around the new positions.
func (g *Grid) SortCells() {
	sort.Slice(g.Cells, func(i, j int) bool {
		if g.Cells[i].Workload != g.Cells[j].Workload {
			return g.Cells[i].Workload < g.Cells[j].Workload
		}
		return g.Cells[i].Series < g.Cells[j].Series
	})
	g.index = make(map[cellKey]int, len(g.Cells))
	for i, c := range g.Cells {
		if _, dup := g.index[cellKey{c.Workload, c.Series}]; !dup {
			g.index[cellKey{c.Workload, c.Series}] = i
		}
	}
}
