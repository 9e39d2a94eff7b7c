package main

import (
	"context"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"time"

	"domino/internal/config"
	"domino/internal/dram"
	"domino/internal/experiments"
	"domino/internal/prefetch"
	"domino/internal/timing"
	"domino/internal/trace"
	"domino/internal/workload"
)

// sweep-fig14: a reduced Figure 14 through experiments.Speedup at
// Parallelism = nproc — the no-prefetcher baseline plus five prefetchers
// on three workloads that differ in dependence chains, MLP and stream
// length. A "batch" is one engine cell. The workload generators keep
// their calibrated seeds; --seed moves the warm-up boundary, so every
// seed measures a different window of the same traces with the same
// amount of work.

var (
	sweepWorkloads   = []string{"OLTP", "Web Search", "MapReduce-W"}
	sweepPrefetchers = []string{"vldp", "isb", "stms", "digram", "domino"}
)

const (
	sweepDegree = 4
	sweepScale  = 16
)

func sweepOptions(r *run) experiments.Options {
	n := r.size.sweepAccesses
	// Warm-up in [3n/8, 5n/8).
	warm := 3*n/8 + int(uint64(mix(r.seed, 2))%uint64(n/4))
	return experiments.Options{
		Accesses:    n,
		Warmup:      warm,
		Scale:       sweepScale,
		Workloads:   sweepWorkloads,
		Parallelism: runtime.NumCPU(),
		FaultPolicy: experiments.Degrade,
	}
}

func sweepFig14(r *run) error {
	o := sweepOptions(r)
	cells := len(sweepWorkloads) * (1 + len(sweepPrefetchers))

	// Set-up is what every cell builds before its first access: its
	// generator and its prefetcher with empty tables.
	var setups []float64
	for i := 0; i < r.setupRepeats(15); i++ {
		t0 := time.Now()
		var keep []any
		for _, w := range sweepWorkloads {
			keep = append(keep, workload.New(workload.ByName(w)))
			for _, name := range sweepPrefetchers {
				keep = append(keep, experiments.Build(name, sweepDegree, &dram.Meter{}, o.Scale))
			}
		}
		setups = append(setups, time.Since(t0).Seconds())
		runtime.KeepAlive(keep)
	}
	r.set("setup_s", median(setups))

	plainFor := r.seconds
	if r.traced {
		plainFor = r.seconds / 2
	}
	rt0 := sampleRuntime()
	passes := sweepPlain(o, plainFor)
	rt1 := sampleRuntime()

	ref := sweepReference(o)
	r.attempted += int64(len(passes) * cells)
	for i, p := range passes {
		missing, err := checkSweep(p.res, ref)
		r.failed += int64(missing) // a failed cell is missing from the grid
		if err != nil {
			r.check(fmt.Errorf("sweep-fig14 pass %d: %w", i, err))
		}
	}

	var walls, all, sums, maxes, idles, baselines []float64
	var perPass [][]float64
	for _, p := range passes {
		walls = append(walls, p.wall.Seconds())
		var sum, mx float64
		var us []float64
		for _, c := range p.cells {
			sum += c.d
			mx = max(mx, c.d)
			us = append(us, c.d*1e6)
			if strings.HasSuffix(c.label, "/baseline") {
				baselines = append(baselines, c.d)
			}
		}
		all = append(all, us...)
		perPass = append(perPass, us)
		sums = append(sums, sum)
		maxes = append(maxes, mx)
		workers := min(o.Parallelism, cells)
		idles = append(idles, 1-sum/(float64(workers)*p.wall.Seconds()))
	}
	wall := median(walls)
	r.logf("%d passes of %d cells x %d accesses (warm-up %d, -j %d): wall median %.4fs (min %.4fs, max %.4fs), domino gmean speedup %.4f",
		len(passes), cells, o.Accesses, o.Warmup, o.Parallelism, wall, walls[0], walls[len(walls)-1], passes[0].res.GMean["domino"])
	if !r.traced {
		r.set("wall_s", wall)
		r.set("accesses_per_s", float64(cells*o.Accesses)/wall)
		p50, p99 := quantile(all, 0.50), medianQuantile(perPass, 0.99)
		r.set("batch_p50_us", p50)
		r.set("batch_p99_us", p99)
		r.logf("batch = one cell: p50 %.0fus over %d samples, p99 %.0fus (per pass of %d cells, median of %d passes)",
			p50, len(all), p99, cells, len(perPass))
		return nil
	}

	r.setRuntime(rt0, rt1, int64(len(passes)*cells*o.Accesses))
	cellSum := median(sums)
	r.set("timing.baseline_cell_s", median(baselines))
	r.set("experiments.cell_s_sum", cellSum)
	r.set("experiments.cell_max_s", median(maxes))
	r.set("experiments.idle_frac", median(idles))
	sweepTraced(r, o, cellSum)
	return nil
}

// sweepPass is one plain experiments.Speedup call.
type sweepPass struct {
	res   *experiments.SpeedupResult
	wall  time.Duration
	cells []cellTime
}

type cellTime struct {
	label string
	d     float64 // seconds
}

// cellLog is the telemetry.JobObserver the plain passes attach: it keeps
// every finished cell's duration. A failed cell is missing from the grid,
// which the output check counts.
type cellLog struct {
	mu    sync.Mutex
	cells []cellTime
}

func (l *cellLog) JobsQueued([]string)         {}
func (l *cellLog) JobStarted(int, string, int) {}

func (l *cellLog) JobFinished(_ int, label string, _ int, d time.Duration) {
	l.mu.Lock()
	l.cells = append(l.cells, cellTime{label, d.Seconds()})
	l.mu.Unlock()
}

func (l *cellLog) JobFailed(int, string, int, time.Duration, error) {}

func sweepPlain(o experiments.Options, d time.Duration) []sweepPass {
	var out []sweepPass
	start := time.Now()
	for len(out) == 0 || time.Since(start) < d {
		runtime.GC() // each pass starts from a collected heap, as a fresh process would
		log := &cellLog{}
		o.Observer = log
		t0 := time.Now()
		res := experiments.Speedup(context.Background(), o, sweepDegree)
		out = append(out, sweepPass{res: res, wall: time.Since(t0), cells: log.cells})
	}
	return out
}

// sweepRef is the benchmark's own serial timing.Run of every cell.
type sweepRef struct {
	baseIPC map[string]float64
	speedup map[string]map[string]float64
}

func sweepTrace(o experiments.Options, w string) trace.Reader {
	return trace.Limit(workload.New(workload.ByName(w)), o.Accesses)
}

func sweepReference(o experiments.Options) sweepRef {
	mc := config.DefaultMachine().ScaleLLCForTrace(o.Scale)
	ref := sweepRef{baseIPC: map[string]float64{}, speedup: map[string]map[string]float64{}}
	for _, w := range sweepWorkloads {
		base := timing.Run(sweepTrace(o, w), mc, prefetch.Null{}, &dram.Meter{}, o.Warmup)
		ref.baseIPC[w] = base.IPC()
		ref.speedup[w] = map[string]float64{}
		for _, name := range sweepPrefetchers {
			meter := &dram.Meter{}
			p := experiments.Build(name, sweepDegree, meter, o.Scale)
			ref.speedup[w][name] = timing.Run(sweepTrace(o, w), mc, p, meter, o.Warmup).SpeedupOver(base)
		}
	}
	return ref
}

// checkSweep compares every engine cell with the serial reference,
// exactly. It returns the number of cells missing from the grid.
func checkSweep(res *experiments.SpeedupResult, ref sweepRef) (missing int, err error) {
	for _, w := range sweepWorkloads {
		got, ok := res.BaselineIPC[w]
		switch {
		case !ok:
			missing++
			err = firstErr(err, fmt.Errorf("%s/baseline: missing", w))
		case got != ref.baseIPC[w]:
			err = firstErr(err, fmt.Errorf("%s/baseline: IPC %v, serial timing.Run %v", w, got, ref.baseIPC[w]))
		}
		for _, name := range sweepPrefetchers {
			got, ok := res.Speedup.Lookup(w, name)
			switch {
			case !ok:
				missing++
				err = firstErr(err, fmt.Errorf("%s/%s: missing", w, name))
			case got != ref.speedup[w][name]:
				err = firstErr(err, fmt.Errorf("%s/%s: speedup %v, serial timing.Run %v", w, name, got, ref.speedup[w][name]))
			}
		}
	}
	return missing, err
}

func firstErr(a, b error) error {
	if a != nil {
		return a
	}
	return b
}

// sweepTraced replays every cell serially, driving timing.Simulator.Step
// itself with the generator and the prefetcher wrapped in timing
// decorators. The warm-up rebase of timing.Run is not reachable from
// outside the package, so the replay measures the whole trace; the host
// work per access is the same. plainCellSum is the plain passes' median
// summed cell time, the serial equivalent of the traced wall time.
func sweepTraced(r *run, o experiments.Options, plainCellSum float64) {
	mc := config.DefaultMachine().ScaleLLCForTrace(o.Scale)
	c := newClock()
	trig := map[string]*timedPrefetcher{}
	var gen, step layer
	var accesses int64
	for _, w := range sweepWorkloads {
		for _, name := range append([]string{"none"}, sweepPrefetchers...) {
			rd := &timedReader{r: sweepTrace(o, w), c: c}
			meter := &dram.Meter{}
			pf := &timedPrefetcher{p: experiments.Build(name, sweepDegree, meter, o.Scale), c: c}
			sim := timing.New(mc, pf, meter)
			cell := r.spans.add(accesses, 0, "cell "+w+"/"+name, c.now(), 0)
			for {
				a, ok := rd.Next()
				if !ok {
					break
				}
				calls := pf.l.calls
				t0 := c.now()
				sim.Step(a)
				step.add(t0, c.now())
				if accesses%spanEvery == 0 {
					root := r.spans.add(accesses, cell, "access", rd.l.t0, step.t1)
					r.spans.add(accesses, root, "workload.gen", rd.l.t0, rd.l.t1)
					st := r.spans.add(accesses, root, "timing.step", step.t0, step.t1)
					if pf.l.calls > calls {
						r.spans.add(accesses, st, name+".trigger", pf.l.t0, pf.l.t1)
					}
				}
				accesses++
			}
			r.spans.spans[cell-1].End = c.now()
			gen.ns += rd.l.ns
			if name == "none" {
				pf.l = layer{} // prefetch.Null: nothing to attribute
			}
			if t := trig[name]; t != nil {
				t.l.calls += pf.l.calls
				t.l.ns += pf.l.ns
				t.cands += pf.cands
			} else {
				trig[name] = pf
			}
		}
	}
	wall := float64(c.now())
	var trigNS int64
	for _, t := range trig {
		trigNS += t.l.ns
	}
	genNS, stepSelf := float64(gen.ns), float64(step.ns-trigNS)
	n := float64(accesses)
	r.set("workload.gen_ns_per_access", genNS/n)
	r.set("timing.step_self_ns_per_access", stepSelf/n)
	d := trig["domino"]
	r.set("core.trigger_ns_per_event", d.l.perCall())
	r.set("core.events", float64(d.l.calls))
	r.set("core.candidates_per_event", ratio(float64(d.cands), float64(d.l.calls)))
	for _, name := range []string{"stms", "digram", "isb", "vldp"} {
		r.set(name+".trigger_ns_per_event", trig[name].l.perCall())
	}
	unexplained := 1 - (genNS+stepSelf+float64(trigNS))/wall
	overhead := wall/1e9/plainCellSum - 1
	r.set("unexplained_frac", unexplained)
	r.set("trace_overhead_frac", overhead)
	r.logf("decomposition of %d cells, %d accesses, serial (traced wall %.3fs, plain summed cell time %.3fs, tracing overhead %.1f%%):",
		len(sweepWorkloads)*(1+len(sweepPrefetchers)), accesses, wall/1e9, plainCellSum, 100*overhead)
	r.logf("  workload.gen     %7.1f ns/access  %5.1f%%", genNS/n, 100*genNS/wall)
	r.logf("  timing.step self %7.1f ns/access  %5.1f%%", stepSelf/n, 100*stepSelf/wall)
	for _, name := range sweepPrefetchers {
		t := trig[name]
		r.logf("  %-6s trigger    %7.1f ns/access  %5.1f%% (%d events, %.1f ns each)",
			name, float64(t.l.ns)/n, 100*float64(t.l.ns)/wall, t.l.calls, t.l.perCall())
	}
	r.logf("  unexplained                      %5.1f%%", 100*unexplained)
}
