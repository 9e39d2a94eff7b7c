package main

import (
	"compress/gzip"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"domino/internal/core"
	"domino/internal/mem"
	"domino/internal/prefetch"
	"domino/internal/trace"
	"domino/internal/workload"
)

// eval-trace: the real-trace `dominosim -eval -trace` path. Set-up writes a
// gzip-compressed ChampSim file from a seeded OLTP generator; each pass
// streams it through trace.OpenStream into prefetch.RunWarm with Domino
// (degree 4, tables scaled by 16), the first half of the trace being
// warm-up. A "batch" is evalChunk consecutive accesses of a pass.
//
// The generators draw document lines from line 0 up, so a few accesses
// have byte address 0, which ChampSim cannot represent (0 marks an unused
// operand slot). The benchmark's input is the generator's stream without
// them, both in the file and in the direct replay the output is checked
// against.

const (
	evalWorkload = "OLTP"
	evalDegree   = 4
	evalScale    = 16
	evalChunk    = 4096
)

func evalParams(seed int64) workload.Params {
	p := workload.ByName(evalWorkload)
	p.Seed = mix(seed, 1)
	return p
}

func newEvalDomino() prefetch.Prefetcher {
	return core.New(core.ScaledConfig(evalDegree, evalScale), nil)
}

func evalTrace(r *run) error {
	n := r.size.evalAccesses
	warm := n / 2
	params := evalParams(r.seed)
	path := filepath.Join(r.dir, fmt.Sprintf("eval-trace-seed%d.champsim.gz", r.seed))
	defer os.Remove(path)

	var setups []float64
	for i := 0; i < r.setupRepeats(3); i++ {
		t0 := time.Now()
		if err := writeChampSim(path, params, n); err != nil {
			return err
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	r.set("setup_s", median(setups))

	plainFor := r.seconds
	if r.traced {
		plainFor = r.seconds / 2
	}
	rt0 := sampleRuntime()
	passes, err := evalPlain(path, warm, plainFor)
	if err != nil {
		return err
	}
	rt1 := sampleRuntime()
	ref := prefetch.RunWarm(evalInput(params, n), newEvalDomino(), prefetch.DefaultEvalConfig(), warm)
	r.attempted += int64(len(passes))
	for i, p := range passes {
		if err := checkEval(p.res, ref); err != nil {
			r.failed++
			r.check(fmt.Errorf("eval-trace pass %d: %w", i, err))
		}
	}

	var walls, all []float64
	var perPass [][]float64
	for _, p := range passes {
		walls = append(walls, p.wall.Seconds())
		all = append(all, p.chunks...)
		perPass = append(perPass, p.chunks)
	}
	wall := median(walls)
	r.logf("%d passes of %d accesses (warm-up %d): wall median %.4fs (min %.4fs, max %.4fs), coverage %.4f accuracy %.4f",
		len(passes), n, warm, wall, walls[0], walls[len(walls)-1], ref.Coverage(), ref.Accuracy())
	if !r.traced {
		p50, p99 := quantile(all, 0.50), medianQuantile(perPass, 0.99)
		r.set("wall_s", wall)
		r.set("accesses_per_s", float64(n)/wall)
		r.set("batch_p50_us", p50)
		r.set("batch_p99_us", p99)
		r.logf("batch = %d accesses: p50 %.1fus over %d samples, p99 %.1fus (per pass of %d samples, median of %d passes; over the whole run %.1fus)",
			evalChunk, p50, len(all), p99, len(perPass[0]), len(perPass), quantile(all, 0.99))
		return nil
	}

	r.setRuntime(rt0, rt1, int64(n*len(passes)))
	res, err := evalTraced(r, path, n, warm, wall)
	if err != nil {
		return err
	}
	r.attempted++
	if err := checkEval(res, ref); err != nil {
		r.failed++
		r.check(fmt.Errorf("eval-trace traced pass: %w", err))
	}

	// Generation and the L1 filter, timed over the same accesses.
	g := evalInput(params, n)
	acc := make([]mem.Access, n)
	t0 := time.Now()
	for i := range acc {
		acc[i], _ = g.Next()
	}
	r.set("workload.gen_ns_per_access", float64(time.Since(t0).Nanoseconds())/float64(n))
	t0 = time.Now()
	misses := prefetch.MissLines((&trace.Trace{Accesses: acc}).Reader(), prefetch.DefaultEvalConfig())
	r.set("cache.l1_filter_ns_per_access", float64(time.Since(t0).Nanoseconds())/float64(n))
	r.set("cache.l1_miss_ratio", float64(len(misses))/float64(n))
	return nil
}

// evalInput is the benchmark's input: the first n accesses of p's
// generator that have a nonzero address.
func evalInput(p workload.Params, n int) trace.Reader {
	g := workload.New(p)
	return trace.Limit(trace.Func(func() (mem.Access, bool) {
		for {
			if a, ok := g.Next(); !ok || a.Addr != 0 {
				return a, ok
			}
		}
	}), n)
}

// writeChampSim writes evalInput(p, n) to path as a gzip-compressed
// ChampSim trace. Gaps are dropped, so each access is one 64-byte record;
// the evaluator ignores gaps anyway. The trace is written in slices so
// set-up memory stays flat.
func writeChampSim(path string, p workload.Params, n int) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	zw, err := gzip.NewWriterLevel(f, gzip.BestSpeed)
	if err != nil {
		f.Close()
		return err
	}
	g := evalInput(p, n)
	part := &trace.Trace{Accesses: make([]mem.Access, 0, 1<<16)}
	for left := n; left > 0; {
		part.Accesses = part.Accesses[:0]
		for i := 0; i < min(left, cap(part.Accesses)); i++ {
			a, _ := g.Next()
			a.Gap = 0
			part.Accesses = append(part.Accesses, a)
		}
		left -= len(part.Accesses)
		if err := trace.WriteChampSim(zw, part); err != nil {
			f.Close()
			return fmt.Errorf("writing %s: %w", path, err)
		}
	}
	if err := zw.Close(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// evalPass is one plain streamed evaluation.
type evalPass struct {
	res    *prefetch.Result
	wall   time.Duration
	chunks []float64 // per-evalChunk latency, us
}

// evalPlain repeats the streamed evaluation until d has elapsed (at least
// once). Each pass starts from a collected heap, as a fresh process would.
func evalPlain(path string, warm int, d time.Duration) ([]evalPass, error) {
	var out []evalPass
	start := time.Now()
	for len(out) == 0 || time.Since(start) < d {
		runtime.GC()
		p, err := evalOnce(path, warm)
		if err != nil {
			return nil, err
		}
		out = append(out, p)
	}
	return out, nil
}

func evalOnce(path string, warm int) (evalPass, error) {
	t0 := time.Now()
	s, err := trace.OpenStream(path)
	if err != nil {
		return evalPass{}, err
	}
	ct := &chunkTimer{r: s, last: t0}
	res := prefetch.RunWarm(ct, newEvalDomino(), prefetch.DefaultEvalConfig(), warm)
	wall := time.Since(t0)
	err = s.Err()
	s.Close()
	if err != nil {
		return evalPass{}, fmt.Errorf("streaming %s: %w", path, err)
	}
	return evalPass{res: res, wall: wall, chunks: ct.lat}, nil
}

// chunkTimer is the plain pass's only instrument: one clock read per
// evalChunk accesses, for the batch latency distribution.
type chunkTimer struct {
	r    trace.Reader
	n    int
	last time.Time
	lat  []float64
}

func (c *chunkTimer) Next() (mem.Access, bool) {
	a, ok := c.r.Next()
	if c.n++; c.n == evalChunk {
		now := time.Now()
		c.lat = append(c.lat, micros(now.Sub(c.last)))
		c.last, c.n = now, 0
	}
	return a, ok
}

// evalTraced is the traced pass: the benchmark drives Evaluator.Step
// itself, the way RunWarm does, with the stream and Domino wrapped in
// timing decorators. plainWall is the plain pass's median wall time.
func evalTraced(r *run, path string, n, warm int, plainWall float64) (*prefetch.Result, error) {
	s, err := trace.OpenStream(path)
	if err != nil {
		return nil, err
	}
	defer s.Close()
	c := newClock()
	rd := &timedReader{r: s, c: c}
	pf := &timedPrefetcher{p: newEvalDomino(), c: c}
	ev := prefetch.NewEvaluator(pf, prefetch.DefaultEvalConfig())
	var issued int64
	ev.OnIssue(func(prefetch.Candidate) { issued++ })
	var step layer
	i := 0
	for ; ; i++ {
		a, ok := rd.Next()
		if !ok {
			break
		}
		calls := pf.l.calls
		t0 := c.now()
		ev.Step(a)
		step.add(t0, c.now())
		if i+1 == warm {
			ev.ResetStats()
		}
		if i%spanEvery == 0 {
			root := r.spans.add(int64(i), 0, "access", rd.l.t0, step.t1)
			r.spans.add(int64(i), root, "trace.decode", rd.l.t0, rd.l.t1)
			st := r.spans.add(int64(i), root, "prefetch.step", step.t0, step.t1)
			if pf.l.calls > calls {
				r.spans.add(int64(i), st, "core.trigger", pf.l.t0, pf.l.t1)
			}
		}
	}
	wall := c.now()
	if i < warm {
		ev.ResetStats()
	}
	res := ev.Finish()
	if err := s.Err(); err != nil {
		return nil, fmt.Errorf("streaming %s: %w", path, err)
	}

	decode := float64(rd.l.ns)
	stepSelf := float64(step.ns - pf.l.ns)
	trig := float64(pf.l.ns)
	r.set("trace.decode_ns_per_access", decode/float64(i))
	r.set("prefetch.step_self_ns_per_access", stepSelf/float64(i))
	r.set("core.trigger_ns_per_event", pf.l.perCall())
	r.set("core.events", float64(pf.l.calls))
	r.set("core.candidates_per_event", ratio(float64(pf.cands), float64(pf.l.calls)))
	r.set("prefetch.redundant_frac", ratio(float64(pf.cands-issued), float64(pf.cands)))
	r.set("prefetch.coverage", res.Coverage())
	r.set("prefetch.accuracy", res.Accuracy())
	unexplained := 1 - (decode+stepSelf+trig)/float64(wall)
	r.set("unexplained_frac", unexplained)
	overhead := float64(wall)/1e9/plainWall - 1
	r.set("trace_overhead_frac", overhead)
	r.logf("decomposition of %d accesses (traced wall %.4fs, plain %.4fs, tracing overhead %.1f%%):",
		i, float64(wall)/1e9, plainWall, 100*overhead)
	r.logf("  trace.decode       %7.1f ns/access  %5.1f%%", decode/float64(i), 100*decode/float64(wall))
	r.logf("  prefetch.step self %7.1f ns/access  %5.1f%%", stepSelf/float64(i), 100*stepSelf/float64(wall))
	r.logf("  core.trigger       %7.1f ns/access  %5.1f%% (%d events, %.1f ns each)",
		trig/float64(i), 100*trig/float64(wall), pf.l.calls, pf.l.perCall())
	r.logf("  unexplained                        %5.1f%%", 100*unexplained)
	return res, nil
}

// checkEval compares a streamed evaluation with the direct replay of the
// generator's accesses: both must see the same misses and coverage and
// issue and use the same prefetches.
func checkEval(got, want *prefetch.Result) error {
	type stat struct {
		name      string
		got, want uint64
	}
	for _, s := range []stat{
		{"accesses", got.Accesses, want.Accesses},
		{"l1 hits", got.L1Hits, want.L1Hits},
		{"misses", got.Misses, want.Misses},
		{"covered", got.Covered, want.Covered},
		{"issued", got.Issued, want.Issued},
		{"used", got.Used, want.Used},
	} {
		if s.got != s.want {
			return fmt.Errorf("%s: streamed %d, direct replay %d", s.name, s.got, s.want)
		}
	}
	return nil
}
