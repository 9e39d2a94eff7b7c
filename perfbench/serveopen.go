package main

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"time"

	"domino/internal/core"
	"domino/internal/mem"
	"domino/internal/prefetch"
	"domino/internal/serve"
	"domino/internal/telemetry"
	"domino/internal/workload"
)

// serve-open: an in-process serve.Server (2 shards, Domino at scale 64,
// batches of 256 accesses) under open-loop load at a fixed offered rate.
// Steady tenants stream continuously; every serveChurnEvery-th batch is
// the only batch of a fresh tenant, which pays a session build and, once
// its shard is full, an LRU eviction. Load comes from at most nproc
// goroutines, each with its own schedule; a batch's latency runs from
// when it was due to be sent until its reply arrives. The run is a series
// of servePassLen passes, each against a fresh server.

const (
	// serveOfferedRate is the offered load in accesses per second, about
	// half of the ~1.5 M accesses/s dominoserve sustains closed-loop on the
	// reference machine (2 CPUs). BENCHMARK.json's serve-open entry states
	// the same number.
	serveOfferedRate = 700_000
	serveShards      = 2
	serveScale       = 64
	serveDegree      = 4
	serveBatch       = 256
	serveSteady      = 8
	serveChurnEvery  = 256
	// serveTenantCap is the per-shard session cap: room for every steady
	// tenant plus a few churn tenants, so churn evicts churn.
	serveTenantCap = 16
	// servePassLen is the length of one open-loop pass.
	servePassLen = 5 * time.Second
)

func steadyName(j int) string        { return fmt.Sprintf("steady-%d", j) }
func churnName(loader, k int) string { return fmt.Sprintf("churn-%d-%d", loader, k) }

func steadyParams(seed int64, j int) workload.Params {
	p := workload.ByName(workload.Names[j%len(workload.Names)])
	p.Seed = mix(seed, 100+uint64(j))
	return p
}

// churnParams seeds the stream that loader cuts its churn tenants' single
// batches from: churn tenant k gets the k-th batch of it.
func churnParams(seed int64, loader int) workload.Params {
	p := workload.ByName(workload.Names[(loader+4)%len(workload.Names)])
	p.Seed = mix(seed, 1000+uint64(loader))
	return p
}

func serveLoaders() int { return min(runtime.NumCPU(), serveSteady) }

func nextBatch(g *workload.Generator) []mem.Access {
	b := make([]mem.Access, serveBatch)
	for i := range b {
		b[i], _ = g.Next()
	}
	return b
}

// batchOut is what the server (or the direct replay) answered for one
// batch. Prefetched lines are kept as a count and an order-sensitive hash.
type batchOut struct {
	hits, misses, prefetched int
	hash                     uint64
	err                      bool
}

func hashLines(h uint64, lines []mem.Line) uint64 {
	for _, l := range lines {
		h = (h ^ uint64(l)) * 0x100000001b3
	}
	return h
}

// batchTimes are one batch's timestamps, ns since the pass started. The
// set-up batch of a steady tenant has due < 0 and is not a latency sample.
type batchTimes struct{ due, sent, submitted, replied int64 }

type tenantRec struct {
	times []batchTimes
	got   []batchOut
}

// loader is one load goroutine's state: the tenants it owns, its churn
// stream, and the records of what it sent and got back.
type loader struct {
	id     int
	steady []*workload.Generator
	names  []string
	churn  *workload.Generator
	churnN int
	reply  chan serve.Result

	mu   sync.Mutex
	recs map[string]*tenantRec
}

func (l *loader) rec(tenant string) *tenantRec {
	t := l.recs[tenant]
	if t == nil {
		t = &tenantRec{}
		l.recs[tenant] = t
	}
	return t
}

// serveSetup builds the load generators and the server, starts it, and
// serves one batch of every steady tenant synchronously, so each steady
// session exists before the open loop starts.
func serveSetup(r *run, reg *telemetry.Registry) (*serve.Server, []*loader, error) {
	srv, err := serve.New(serve.Config{
		Shards:             serveShards,
		MaxTenantsPerShard: serveTenantCap,
		Prefetcher:         "domino",
		Degree:             serveDegree,
		Scale:              serveScale,
		Metrics:            reg,
	})
	if err != nil {
		return nil, nil, err
	}
	srv.Start()
	ls := make([]*loader, serveLoaders())
	for i := range ls {
		ls[i] = &loader{
			id:    i,
			churn: workload.New(churnParams(r.seed, i)),
			// Sized to absorb a burst of replies while the collector is
			// descheduled; a full channel stalls the replying shard.
			reply: make(chan serve.Result, 256),
			recs:  map[string]*tenantRec{},
		}
	}
	for j := 0; j < serveSteady; j++ {
		l := ls[j%len(ls)]
		l.steady = append(l.steady, workload.New(steadyParams(r.seed, j)))
		l.names = append(l.names, steadyName(j))
	}
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	reply := make(chan serve.Result, 1)
	for _, l := range ls {
		for i, g := range l.steady {
			if err := srv.Submit(ctx, serve.Batch{Tenant: l.names[i], Accesses: nextBatch(g), Reply: reply}); err != nil {
				return nil, nil, err
			}
			res := <-reply
			rec := l.rec(l.names[i])
			rec.times = append(rec.times, batchTimes{due: -1})
			rec.got = append(rec.got, outcomeOf(res))
		}
	}
	return srv, ls, nil
}

func outcomeOf(res serve.Result) batchOut {
	return batchOut{
		hits: res.Hits, misses: res.Misses, prefetched: len(res.Prefetched),
		hash: hashLines(0, res.Prefetched), err: res.Err != nil,
	}
}

// servePass is one open-loop run against a fresh server.
type servePass struct {
	wall      time.Duration
	accesses  int64
	batches   int64
	failed    int64
	recs      map[string]*tenantRec
	stats     serve.Stats
	cpu       time.Duration
	rt0, rt1  rtSample
	submitErr error
}

// serveLoad drives srv open-loop at rate accesses/s for d.
func serveLoad(srv *serve.Server, ls []*loader, rate float64, d time.Duration, traced bool) (*servePass, error) {
	interval := time.Duration(float64(len(ls)*serveBatch) / rate * 1e9)
	ctx, cancel := context.WithTimeout(context.Background(), d+time.Minute)
	defer cancel()
	pass := &servePass{recs: map[string]*tenantRec{}}
	pass.rt0 = sampleRuntime()
	start := time.Now()
	var outstanding, collectors, loaders sync.WaitGroup
	var lastReply sync.Mutex
	var last time.Time
	errs := make([]error, len(ls))
	for _, l := range ls {
		collectors.Add(1)
		go func(l *loader) {
			defer collectors.Done()
			for res := range l.reply {
				now := time.Now()
				l.mu.Lock()
				rec := l.recs[res.Tenant]
				k := len(rec.got)
				rec.got = append(rec.got, outcomeOf(res))
				rec.times[k].replied = int64(now.Sub(start))
				l.mu.Unlock()
				lastReply.Lock()
				if now.After(last) {
					last = now
				}
				lastReply.Unlock()
				outstanding.Done()
			}
		}(l)
	}
	for i, l := range ls {
		loaders.Add(1)
		go func(i int, l *loader) {
			defer loaders.Done()
			steadyN := 0
			for b := 0; ; b++ {
				due := time.Duration(float64(b) * float64(interval))
				if due >= d {
					return
				}
				var tenant string
				var acc []mem.Access
				if b%serveChurnEvery == serveChurnEvery-1 {
					tenant, acc = churnName(l.id, l.churnN), nextBatch(l.churn)
					l.churnN++
				} else {
					k := steadyN % len(l.steady)
					tenant, acc = l.names[k], nextBatch(l.steady[k])
					steadyN++
				}
				sleepUntil(start.Add(due))
				sent := time.Since(start)
				l.mu.Lock()
				rec := l.rec(tenant)
				k := len(rec.times)
				rec.times = append(rec.times, batchTimes{due: int64(due), sent: int64(sent)})
				l.mu.Unlock()
				outstanding.Add(1)
				if err := srv.Submit(ctx, serve.Batch{Tenant: tenant, Accesses: acc, Reply: l.reply}); err != nil {
					outstanding.Done()
					errs[i] = fmt.Errorf("submit %s: %w", tenant, err)
					return
				}
				if traced {
					submitted := int64(time.Since(start))
					l.mu.Lock()
					rec.times[k].submitted = submitted
					l.mu.Unlock()
				}
			}
		}(i, l)
	}
	loaders.Wait()
	done := make(chan struct{})
	go func() { outstanding.Wait(); close(done) }()
	select {
	case <-done:
	case <-ctx.Done():
		return nil, fmt.Errorf("replies still outstanding after %s", d+time.Minute)
	}
	for _, l := range ls {
		close(l.reply)
	}
	collectors.Wait()
	pass.rt1 = sampleRuntime()
	pass.wall = last.Sub(start)
	pass.cpu = pass.rt1.procCPU - pass.rt0.procCPU
	if err := srv.Drain(ctx); err != nil {
		return nil, fmt.Errorf("drain: %w", err)
	}
	pass.stats = srv.Stats()
	for i, l := range ls {
		pass.submitErr = firstErr(pass.submitErr, errs[i])
		for name, rec := range l.recs {
			pass.recs[name] = rec
			for k, t := range rec.times {
				if t.due < 0 {
					continue
				}
				pass.batches++
				if k >= len(rec.got) || rec.got[k].err {
					pass.failed++
				} else {
					pass.accesses += serveBatch
				}
			}
		}
	}
	return pass, nil
}

// samples gathers, over every answered open-loop batch of the pass, f of
// its timestamps in microseconds.
func (p *servePass) samples(f func(batchTimes) int64) []float64 {
	var out []float64
	for _, rec := range p.recs {
		for _, t := range rec.times {
			if t.due >= 0 && t.replied != 0 {
				out = append(out, float64(f(t))/1e3)
			}
		}
	}
	return out
}

func latency(t batchTimes) int64    { return t.replied - t.due }
func lateness(t batchTimes) int64   { return t.sent - t.due }
func submitTime(t batchTimes) int64 { return t.submitted - t.sent }

func serveOpen(r *run) error {
	var setups []float64
	for i := 0; i < r.setupRepeats(5); i++ {
		t0 := time.Now()
		srv, _, err := serveSetup(r, nil)
		if err != nil {
			return err
		}
		setups = append(setups, time.Since(t0).Seconds())
		if err := srv.Drain(context.Background()); err != nil {
			return err
		}
	}
	r.set("setup_s", median(setups))

	// The run is a series of servePassLen passes, each against a fresh
	// server whose heap starts collected, so a run samples several
	// sessions' worth of growth and collection instead of one.
	plainFor := r.seconds
	if r.traced {
		plainFor = r.seconds / 2
	}
	passLen := min(servePassLen, plainFor)
	var plain []*servePass
	for i := 0; i < max(1, int(plainFor/passLen)); i++ {
		p, err := servePassOnce(r, nil, passLen, false)
		if err != nil {
			return err
		}
		plain = append(plain, p)
	}
	passes := plain
	var reg *telemetry.Registry
	if r.traced {
		reg = telemetry.New()
		tp, err := servePassOnce(r, reg, passLen, true)
		if err != nil {
			return err
		}
		passes = append(passes, tp)
	}

	// The output check: a direct prefetch.Session replay of every tenant.
	want := map[string]int{}
	for _, p := range passes {
		r.attempted += p.batches
		r.failed += p.failed
		r.check(p.submitErr)
		for name, rec := range p.recs {
			want[name] = max(want[name], len(rec.got))
		}
	}
	ref, rs := serveReplay(r.seed, want, false)
	for i, p := range passes {
		if err := checkServe(p.recs, ref); err != nil {
			r.check(fmt.Errorf("serve-open pass %d: %w", i, err))
		}
	}

	var walls, rates, lat []float64
	var accesses int64
	var cpu time.Duration
	for _, p := range plain {
		walls = append(walls, p.wall.Seconds())
		rates = append(rates, float64(p.accesses)/p.wall.Seconds())
		lat = append(lat, p.samples(latency)...)
		accesses += p.accesses
		cpu += p.cpu
	}
	first := plain[0]
	r.logf("open loop at %.0f accesses/s: %d passes of %.1fs; first pass %d batches (%d failed), %d tenants, %d evictions",
		r.size.serveRate, len(plain), passLen.Seconds(), first.batches, first.failed, len(first.recs), evictions(first.stats))
	if !r.traced {
		// The tail is set by a few collection stalls per pass, so the p99
		// is taken over every batch of the run, not per pass.
		p50, p99 := quantile(lat, 0.50), quantile(lat, 0.99)
		r.set("wall_s", median(walls))
		r.set("accesses_per_s", median(rates))
		r.set("batch_p50_us", p50)
		r.set("batch_p99_us", p99)
		r.logf("batch = %d accesses, timed from when it was due: p50 %.1fus p99 %.1fus over %d samples",
			serveBatch, p50, p99, len(lat))
		return nil
	}

	r.setRuntime(first.rt0, first.rt1, first.accesses)
	r.set("serve.session_ns_per_access", rs.sessionNS())
	serveTraced(r, passes[len(passes)-1], reg, rs.sessionNS(), float64(cpu)/float64(accesses))

	// A decorated replay of the steady tenants splits the session step.
	steady := map[string]int{}
	for j := 0; j < serveSteady; j++ {
		steady[steadyName(j)] = want[steadyName(j)]
	}
	_, ds := serveReplay(r.seed, steady, true)
	r.set("prefetch.step_self_ns_per_access", float64(ds.sessionNs-ds.trig.ns)/float64(ds.accesses))
	r.set("core.trigger_ns_per_event", ds.trig.perCall())
	r.set("core.events", float64(ds.trig.calls))
	r.set("core.candidates_per_event", ratio(float64(ds.cands), float64(ds.trig.calls)))
	r.set("prefetch.redundant_frac", ratio(float64(ds.cands-ds.issued), float64(ds.cands)))
	r.set("prefetch.coverage", ratio(float64(ds.covered), float64(ds.misses)))
	r.set("prefetch.accuracy", ratio(float64(ds.used), float64(ds.issuedBuf)))
	r.set("cache.l1_miss_ratio", ratio(float64(ds.misses), float64(ds.accesses)))
	return nil
}

// servePassOnce sets up a fresh server from a collected heap and drives
// it open-loop for d.
func servePassOnce(r *run, reg *telemetry.Registry, d time.Duration, traced bool) (*servePass, error) {
	runtime.GC()
	srv, ls, err := serveSetup(r, reg)
	if err != nil {
		return nil, err
	}
	return serveLoad(srv, ls, r.size.serveRate, d, traced)
}

func evictions(s serve.Stats) (n uint64) {
	for _, sh := range s.Shards {
		n += sh.Evicted
	}
	return n
}

// serveTraced reports the traced pass: the client-side boundaries from
// the batch timestamps, the server-side ones from the registry's
// histograms. plainCPU is the plain pass's process CPU per access.
func serveTraced(r *run, p *servePass, reg *telemetry.Registry, sessionNS, plainCPU float64) {
	var queue, service telemetry.HistogramStats
	for i := 0; i < serveShards; i++ {
		queue = queue.Merge(reg.Histogram(fmt.Sprintf("serve.shard%d.queue_wait_ns", i)).Stats())
		service = service.Merge(reg.Histogram(fmt.Sprintf("serve.shard%d.batch_ns", i)).Stats())
	}
	sub := p.samples(submitTime)
	late := p.samples(lateness)
	lat := p.samples(latency)
	r.set("serve.submit_us_p50", quantile(sub, 0.50))
	r.set("serve.submit_us_p99", quantile(sub, 0.99))
	r.set("serve.gen_late_p99_us", quantile(late, 0.99))
	r.set("serve.queue_wait_us_p50", float64(queue.Quantile(0.50))/1e3)
	r.set("serve.queue_wait_us_p99", float64(queue.Quantile(0.99))/1e3)
	r.set("serve.batch_service_us_p50", float64(service.Quantile(0.50))/1e3)
	r.set("serve.batch_service_us_p99", float64(service.Quantile(0.99))/1e3)
	servicePerAccess := ratio(float64(service.Sum), float64(p.accesses))
	r.set("serve.overhead_ns_per_access", servicePerAccess-sessionNS)
	var hits, misses, builds uint64
	for _, sh := range p.stats.Shards {
		hits += sh.Hits
		misses += sh.Misses
		builds += uint64(sh.Tenants) + sh.Evicted
	}
	r.set("serve.session_builds", float64(builds))
	r.set("serve.evictions", float64(evictions(p.stats)))
	r.set("serve.hit_rate", ratio(float64(hits), float64(hits+misses)))

	var latSum, lateSum, subSum float64
	for i := range lat {
		latSum += lat[i]
		lateSum += late[i]
		subSum += sub[i]
	}
	latSum *= 1e3
	lateSum *= 1e3
	subSum *= 1e3
	qSum, sSum := float64(queue.Sum), float64(service.Sum)
	unexplained := 1 - (lateSum+subSum+qSum+sSum)/latSum
	overhead := float64(p.cpu)/float64(p.accesses)/plainCPU - 1
	r.set("unexplained_frac", unexplained)
	r.set("trace_overhead_frac", overhead)

	// Sampled spans: every 16th batch of each tenant (spanEvery accesses).
	var id int64
	for name, rec := range p.recs {
		for k, t := range rec.times {
			if t.due < 0 || k%(spanEvery/serveBatch) != 0 {
				continue
			}
			id++
			root := r.spans.add(id, 0, "batch "+name, t.due, t.replied)
			r.spans.add(id, root, "serve.gen_late", t.due, t.sent)
			r.spans.add(id, root, "serve.submit", t.sent, t.submitted)
			r.spans.add(id, root, "serve.reply", t.submitted, t.replied)
		}
	}

	n := float64(len(lat))
	r.logf("decomposition of %d batches (mean latency %.1fus from due; process CPU per access %.0fns traced vs %.0fns plain, tracing overhead %.1f%%):",
		len(lat), latSum/n/1e3, float64(p.cpu)/float64(p.accesses), plainCPU, 100*overhead)
	r.logf("  generator late     %8.1f us/batch  %5.1f%% (p50 %.1fus)", lateSum/n/1e3, 100*lateSum/latSum, quantile(late, 0.5))
	r.logf("  serve.submit       %8.1f us/batch  %5.1f%%", subSum/n/1e3, 100*subSum/latSum)
	r.logf("  shard queue wait   %8.1f us/batch  %5.1f%%", qSum/n/1e3, 100*qSum/latSum)
	r.logf("  batch service      %8.1f us/batch  %5.1f%% (session %.1f ns/access, shard overhead %.1f ns/access)",
		sSum/n/1e3, 100*sSum/latSum, sessionNS, servicePerAccess-sessionNS)
	r.logf("  unexplained (reply hop, collector) %5.1f%%", 100*unexplained)
}

// replayStats totals one direct replay.
type replayStats struct {
	accesses  int64
	sessionNs int64 // time inside Session.Access
	trig      layer // decorated replays only
	cands     int64
	issued    int64 // non-redundant candidates, from the outcomes
	misses    uint64
	covered   uint64
	issuedBuf uint64
	used      uint64
}

func (s replayStats) sessionNS() float64 { return ratio(float64(s.sessionNs), float64(s.accesses)) }

func (s *replayStats) add(o replayStats) {
	s.accesses += o.accesses
	s.sessionNs += o.sessionNs
	s.trig.calls += o.trig.calls
	s.trig.ns += o.trig.ns
	s.cands += o.cands
	s.issued += o.issued
	s.misses += o.misses
	s.covered += o.covered
	s.issuedBuf += o.issuedBuf
	s.used += o.used
}

// serveReplay regenerates the first want[tenant] batches of each tenant
// and runs them through a direct prefetch.Session built the way the server
// builds one, timing Session.Access. With decorate set, the prefetcher is
// wrapped in a timing decorator. Tenants replay on nproc goroutines.
func serveReplay(seed int64, want map[string]int, decorate bool) (map[string][]batchOut, replayStats) {
	type job struct {
		gen     *workload.Generator
		tenants []string // in stream order: each cuts the next want[t] batches
	}
	var jobs []job
	for j := 0; j < serveSteady; j++ {
		if want[steadyName(j)] > 0 {
			jobs = append(jobs, job{workload.New(steadyParams(seed, j)), []string{steadyName(j)}})
		}
	}
	for l := 0; l < serveLoaders(); l++ {
		var names []string
		for k := 0; want[churnName(l, k)] > 0; k++ {
			names = append(names, churnName(l, k))
		}
		if len(names) > 0 {
			jobs = append(jobs, job{workload.New(churnParams(seed, l)), names})
		}
	}
	out := make(map[string][]batchOut, len(want))
	var total replayStats
	var mu sync.Mutex
	var wg sync.WaitGroup
	next := make(chan job)
	for w := 0; w < runtime.NumCPU(); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for jb := range next {
				for _, name := range jb.tenants {
					got, st := replayTenant(jb.gen, want[name], decorate)
					mu.Lock()
					out[name] = got
					total.add(st)
					mu.Unlock()
				}
			}
		}()
	}
	for _, jb := range jobs {
		next <- jb
	}
	close(next)
	wg.Wait()
	return out, total
}

func replayTenant(g *workload.Generator, batches int, decorate bool) ([]batchOut, replayStats) {
	var p prefetch.Prefetcher = core.New(core.ScaledConfig(serveDegree, serveScale), nil)
	var tp *timedPrefetcher
	if decorate {
		tp = &timedPrefetcher{p: p, c: newClock()}
		p = tp
	}
	s := prefetch.NewSession(p, prefetch.DefaultEvalConfig())
	var st replayStats
	out := make([]batchOut, batches)
	for b := range out {
		acc := nextBatch(g)
		o := &out[b]
		t0 := time.Now()
		for _, a := range acc {
			res := s.Access(a)
			if res.Triggered {
				if res.Hit {
					o.hits++
				} else {
					o.misses++
				}
			}
			o.prefetched += len(res.Prefetched)
			o.hash = hashLines(o.hash, res.Prefetched)
		}
		st.sessionNs += int64(time.Since(t0))
		st.accesses += int64(len(acc))
		st.issued += int64(o.prefetched)
	}
	ss := s.Stats()
	st.misses, st.covered, st.issuedBuf, st.used = ss.Misses, ss.Covered, ss.Issued, ss.Used
	if tp != nil {
		st.trig, st.cands = tp.l, tp.cands
	}
	return out, st
}

// checkServe compares every batch the server answered with the direct
// replay of its tenant. Steady tenants stay warmer than the session cap
// and churn tenants send a single batch, so no eviction can change an
// answer: every tenant must match exactly.
func checkServe(recs map[string]*tenantRec, ref map[string][]batchOut) error {
	for name, rec := range recs {
		want := ref[name]
		for k, got := range rec.got {
			if got.err {
				return fmt.Errorf("%s batch %d: failed", name, k)
			}
			if k >= len(want) || got != want[k] {
				var w batchOut
				if k < len(want) {
					w = want[k]
				}
				return fmt.Errorf("%s batch %d: served %+v, direct Session replay %+v", name, k, got, w)
			}
		}
	}
	return nil
}
