// Shard supervision: each shard's single-writer goroutine runs under a
// per-shard supervisor that isolates per-batch faults, replaces a dead or
// stuck goroutine with exponential backoff plus deterministic jitter, and
// finally fails pending work fast once the restart budget is exhausted.
//
// The containment layers, innermost first:
//
//  1. processGuarded recovers a panic raised while processing one batch:
//     only that batch fails (Result.Err through Batch.Reply), the
//     offending tenant takes a quarantine strike, and the goroutine keeps
//     serving. This is the common case — a latent bug in one tenant's
//     session must not take down the 63 tenants sharing the shard.
//  2. runGen recovers a panic that escapes batch isolation (a chaos
//     "kill", or a fault in the shard loop itself), fails the in-flight
//     batch, and reports the death to the supervisor.
//  3. supervise rebuilds the goroutine with backoff + jitter. The queue
//     channel survives the restart, so queued batches are processed by
//     the replacement; session metadata does not survive — tenants are
//     re-admitted lazily, rebuilding their prefetcher state on first use.
//  4. The watchdog (Config.BatchDeadline) handles the one failure Go
//     cannot recover from the inside: a goroutine stuck in a batch. The
//     stuck incarnation is abandoned (it exits on its own when it
//     unblocks, after replying late to its batch) and a fresh incarnation
//     takes over the queue.
package serve

import (
	"fmt"
	"time"

	"domino/internal/flathash"
	"domino/internal/prefetch"
)

// ShardState is a shard's supervision state, reported by Health.
type ShardState int32

const (
	// ShardStopped: not started yet, or cleanly drained.
	ShardStopped ShardState = iota
	// ShardAlive: the shard goroutine is serving.
	ShardAlive
	// ShardRestarting: the goroutine died (or was stuck) and the
	// supervisor is backing off before rebuilding it.
	ShardRestarting
	// ShardDead: the restart budget is exhausted; pending and future
	// batches fail with ErrShardDown until the server is drained.
	ShardDead
)

func (s ShardState) String() string {
	switch s {
	case ShardStopped:
		return "stopped"
	case ShardAlive:
		return "alive"
	case ShardRestarting:
		return "restarting"
	case ShardDead:
		return "dead"
	default:
		return fmt.Sprintf("ShardState(%d)", int32(s))
	}
}

// shardState is the goroutine-owned serving state of one shard
// incarnation. A supervisor restart builds a fresh one: sessions (and
// their metadata) are rebuilt lazily as tenants resubmit, which is what
// keeps a crashed shard from replaying whatever state poisoned it.
type shardState struct {
	gen     uint64 // incarnation that owns this state
	tenants map[string]*tenantSession
	clock   uint64
	classes map[string]*classCounters // per-class counter cache
	traceN  uint64                    // accesses seen, for every-Nth sampling
	quar    map[string]*quarState     // per-tenant fault history

	// sched is the weighted-fair scheduler (governed shards only, see
	// overload.go); bytes/brownout are the memory budget governor's
	// accounting (budget.go). All goroutine-owned, like the rest.
	sched    *fairSched
	bytes    int64
	brownout bool
}

func newShardState(cfg Config, gen uint64) *shardState {
	st := &shardState{
		gen:     gen,
		tenants: make(map[string]*tenantSession, cfg.MaxTenantsPerShard),
		classes: make(map[string]*classCounters),
		quar:    make(map[string]*quarState),
	}
	if cfg.Overload != nil {
		st.sched = newFairSched()
	}
	return st
}

// current reports whether this incarnation still owns the shard. A
// watchdog-abandoned incarnation finishing its stuck batch must not
// touch the per-incarnation gauges (quarantined, live tenants) that the
// supervisor reset and handed to the replacement — Health would drift
// or go negative. Monotonic counters are exempt: late accounting of a
// real event is fine, a stale gauge is not.
func (st *shardState) current(sh *shard) bool {
	return sh.gen.Load() == st.gen
}

// runExit is how an incarnation reports its end to the supervisor.
type exitKind uint8

const (
	exitClean exitKind = iota // input channel closed: graceful drain
	exitPanic                 // the goroutine panicked outside batch isolation
	exitStuck                 // watchdog verdict (produced by watch, not runGen)
)

type runExit struct {
	kind  exitKind
	cause string
}

// supervise owns one shard's goroutine lifecycle. It returns only when
// the shard drains cleanly or goes permanently dead (and then after
// failing every remaining queued batch, so no Reply is left hanging).
func (s *Server) supervise(sh *shard) {
	defer s.wg.Done()
	backoff := sh.cfg.RestartBackoff
	burst := 0 // restarts within the current crash burst
	gen := sh.gen.Add(1)
	for {
		// A fresh incarnation starts with no quarantined tenants, no
		// accounted session bytes, and no brownout.
		sh.quarantinedN.Store(0)
		sh.quarG.Set(0)
		sh.brownoutB.Store(false)
		sh.tenantBytes.Store(0)
		sh.tenantBytesG.Set(0)
		sh.setState(ShardAlive)
		up := sh.cfg.now()
		done := make(chan runExit, 1)
		go sh.runGen(gen, done)
		exit := sh.watch(gen, done)
		if exit.kind == exitClean {
			sh.setState(ShardStopped)
			sh.queueDepth.Set(0)
			return
		}
		// Supersede the failed incarnation now, before the backoff sleep:
		// a watchdog-abandoned goroutine that unblocks during the sleep
		// must see the new generation after its current batch and exit,
		// rather than keep draining the queue concurrently with the
		// replacement. The replacement reads this pre-assigned gen.
		gen = sh.gen.Add(1)
		if sh.cfg.now().Sub(up) > sh.cfg.RestartBackoffMax {
			// The incarnation was stable before this fault: new burst,
			// fresh backoff and restart budget.
			backoff = sh.cfg.RestartBackoff
			burst = 0
		}
		burst++
		if exit.kind == exitStuck {
			sh.stalledC.Inc()
		}
		if sh.cfg.MaxRestarts < 0 || (sh.cfg.MaxRestarts > 0 && burst > sh.cfg.MaxRestarts) {
			sh.setState(ShardDead)
			sh.failPending()
			return
		}
		sh.setState(ShardRestarting)
		sh.restarts.Add(1)
		sh.restartsC.Inc()
		time.Sleep(restartDelay(backoff, sh.chaosSeed(), uint64(sh.id), burst))
		backoff = min(2*backoff, sh.cfg.RestartBackoffMax)
	}
}

// watch waits for the incarnation to exit, or — when the watchdog is
// armed — declares it stuck once it has been inside one batch for longer
// than Config.BatchDeadline.
func (sh *shard) watch(gen uint64, done <-chan runExit) runExit {
	d := sh.cfg.BatchDeadline
	if d <= 0 {
		return <-done
	}
	poll := max(d/4, time.Millisecond)
	tick := time.NewTicker(poll)
	defer tick.Stop()
	for {
		select {
		case e := <-done:
			return e
		case <-tick.C:
			since := sh.busySince.Load()
			if since != 0 && sh.busyGen.Load() == gen &&
				time.Since(time.Unix(0, since)) > d {
				return runExit{kind: exitStuck}
			}
		}
	}
}

// runGen is one incarnation of the shard goroutine: drain batches until
// the input channel closes, applying each batch to its tenant's session
// in order. A panic that escapes batch isolation fails the in-flight
// batch and reports exitPanic; the supervisor decides what happens next.
// A governed shard (Config.Overload) swaps this plain FIFO loop for the
// weighted-fair loop in overload.go.
func (sh *shard) runGen(gen uint64, done chan<- runExit) {
	st := newShardState(sh.cfg, gen)
	if sh.governed {
		sh.runGoverned(st, gen, done)
		return
	}
	var cur *Batch
	defer func() {
		if r := recover(); r != nil {
			if cur != nil {
				sh.failBatch(*cur, fmt.Errorf("serve: shard %d died processing batch: %v", sh.id, r))
			}
			done <- runExit{kind: exitPanic, cause: fmt.Sprint(r)}
		}
	}()
	for b := range sh.in {
		cur = &b
		sh.handle(st, gen, b)
		cur = nil
		if sh.gen.Load() != gen {
			// Superseded: the watchdog replaced this incarnation while it
			// was stuck. The replacement owns the queue now; exit without
			// reading another batch. (The batch just finished was replied
			// normally, merely late.)
			return
		}
	}
	done <- runExit{kind: exitClean}
}

// handle runs one batch: queue accounting, watchdog stamps, guarded
// processing, telemetry, stats, reply.
func (sh *shard) handle(st *shardState, gen uint64, b Batch) {
	// Depth counts this batch plus everything still queued behind it —
	// including the fair scheduler's backlog on a governed shard.
	depth := int64(len(sh.in)) + 1
	if st.sched != nil {
		depth += int64(st.sched.backlog)
	}
	sh.queueDepth.Set(depth - 1)
	if depth > sh.hwm.Load() {
		sh.hwm.Store(depth)
		sh.queueHWM.Set(depth)
	}
	var queueNS int64
	if !b.enqueuedAt.IsZero() {
		queueNS = int64(time.Since(b.enqueuedAt))
		sh.queueWait.ObserveValue(queueNS)
	}
	sh.batchSize.ObserveValue(int64(len(b.Accesses)))

	var stamp int64
	if sh.watchdog {
		stamp = time.Now().UnixNano()
		sh.busyGen.Store(gen)
		sh.busySince.Store(stamp)
	}
	var start time.Time
	if sh.instr {
		start = time.Now()
	}
	res := sh.processGuarded(st, b, queueNS)
	if sh.watchdog {
		// CAS so an abandoned (watchdog-replaced) incarnation finishing
		// late clears only its own stamp, never the replacement's.
		sh.busySince.CompareAndSwap(stamp, 0)
	}
	if sh.instr {
		sh.batchHist.Observe(time.Since(start))
	}

	sh.batchesC.Inc()
	if res.Err != nil {
		sh.failedC.Inc()
	}
	sh.accessesC.Add(int64(res.Accesses))
	sh.hitsC.Add(int64(res.Hits))
	sh.prefetchC.Add(int64(len(res.Prefetched)))

	sh.statMu.Lock()
	sh.stats.Batches++
	if res.Err != nil {
		sh.stats.Failed++
	}
	sh.stats.Accesses += uint64(res.Accesses)
	sh.stats.Hits += uint64(res.Hits)
	sh.stats.Misses += uint64(res.Misses)
	sh.stats.Prefetches += uint64(len(res.Prefetched))
	sh.stats.Tenants = len(st.tenants)
	sh.statMu.Unlock()

	if sh.governed {
		sh.pending.Add(-1)
	}
	if b.Reply != nil {
		b.Reply <- res
	}
}

// processGuarded is the batch-isolation boundary: the quarantine gate,
// the chaos hook, session build, and processing, with a recover that
// turns a panic into a failed batch plus a quarantine strike for the
// offending tenant. A shardKill panic (chaos' shard-fatal fault) is
// re-raised so it escapes to runGen and exercises the supervisor.
func (sh *shard) processGuarded(st *shardState, b Batch, queueNS int64) (res Result) {
	if err := st.admit(sh, b.Tenant); err != nil {
		return Result{Tenant: b.Tenant, Err: err}
	}
	defer func() {
		if r := recover(); r != nil {
			if _, fatal := r.(shardKill); fatal {
				panic(r)
			}
			sh.panicsC.Inc()
			st.recordFault(sh, b.Tenant)
			res = Result{Tenant: b.Tenant, Err: fmt.Errorf("serve: batch panic: %v", r)}
		}
	}()
	if ch := sh.cfg.Chaos; ch != nil {
		ch.injectBatch(b)
	}
	t, err := st.session(sh, b.Tenant)
	if err != nil {
		sh.buildErrsC.Inc()
		st.recordFault(sh, b.Tenant)
		return Result{Tenant: b.Tenant, Err: err}
	}
	return sh.process(st, t, b, queueNS)
}

// process trains and looks up one batch against its tenant's session.
// queueNS is the batch's measured shard-queue wait, attached to sampled
// trace events.
func (sh *shard) process(st *shardState, t *tenantSession, b Batch, queueNS int64) Result {
	res := Result{Tenant: b.Tenant, Accesses: len(b.Accesses)}
	trace, every := sh.cfg.Trace, uint64(sh.cfg.TraceEvery)
	// While the shard is in brownout, only every BrownoutSample-th
	// access is trained and looked up; the rest are served untouched
	// (counted in Result.Accesses, absent from hits/misses). Sampling is
	// per-session and deterministic in the access sequence.
	sample := uint64(1)
	if st.brownout && sh.cfg.BrownoutSample > 1 {
		sample = uint64(sh.cfg.BrownoutSample)
	}
	for _, a := range b.Accesses {
		if sample > 1 {
			t.sampleN++
			if t.sampleN%sample != 0 {
				continue
			}
		}
		out := t.sess.Access(a)
		if out.Triggered {
			if out.Hit {
				res.Hits++
			} else {
				res.Misses++
			}
		}
		if len(out.Prefetched) > 0 {
			res.Prefetched = append(res.Prefetched, out.Prefetched...)
		}
		if trace != nil {
			if st.traceN%every == 0 {
				trace.Emit(TraceEvent{
					Tenant:     b.Tenant,
					Class:      t.class,
					Shard:      sh.id,
					Addr:       uint64(a.Addr),
					PC:         uint64(a.PC),
					Triggered:  out.Triggered,
					Hit:        out.Hit,
					Prefetched: len(out.Prefetched),
					QueueNS:    queueNS,
				})
			}
			st.traceN++
		}
	}
	if t.cc != nil {
		// Per-class accuracy/coverage feed: the deltas of the session's
		// live counters across this batch. Misses here are L1-D misses —
		// exactly the accesses delivered to the prefetcher as triggers.
		snap := t.sess.Stats()
		t.cc.triggered.Add(int64(snap.Misses - t.last.Misses))
		t.cc.covered.Add(int64(snap.Covered - t.last.Covered))
		t.cc.issued.Add(int64(snap.Issued - t.last.Issued))
		t.cc.used.Add(int64(snap.Used - t.last.Used))
		t.last = snap
	}
	return res
}

// session returns the tenant's session, admitting it (and evicting the
// least recently active tenant when the shard is at capacity) on first
// use. A session-build failure fails only this batch — the caller counts
// it and records a quarantine strike — never the shard goroutine.
func (st *shardState) session(sh *shard, tenant string) (*tenantSession, error) {
	st.clock++
	t, ok := st.tenants[tenant]
	if !ok {
		if len(st.tenants) >= sh.cfg.MaxTenantsPerShard {
			st.evictColdest(sh, false)
		}
		// The memory budget governor sizes the newcomer (full or
		// brownout scale) and makes room under the byte ceiling; the
		// cost is accounted only once the session actually builds.
		cost, brown := st.budgetAdmit(sh)
		if ch := sh.cfg.Chaos; ch != nil && ch.buildFails(tenant) {
			return nil, fmt.Errorf("serve: chaos: injected session build failure for tenant %q", tenant)
		}
		scale := sh.cfg.Scale
		if brown {
			scale *= sh.cfg.BrownoutScale
		}
		p, err := buildPrefetcherAt(sh.cfg, scale)
		if err != nil {
			return nil, fmt.Errorf("serve: building session for tenant %q: %w", tenant, err)
		}
		cfg := prefetch.DefaultEvalConfig()
		cfg.BufferBlocks = sh.cfg.BufferBlocks
		t = &tenantSession{sess: prefetch.NewSession(p, cfg), bytes: cost}
		if sh.cfg.Metrics != nil {
			t.class = sh.cfg.TenantClass(tenant)
			t.cc = sh.classFor(st, t.class)
		} else if sh.cfg.Trace != nil {
			t.class = sh.cfg.TenantClass(tenant)
		}
		st.tenants[tenant] = t
		st.addBytes(sh, cost)
		if st.current(sh) {
			sh.tenantsG.Set(int64(len(st.tenants)))
		}
	}
	t.seen = st.clock
	return t, nil
}

// evictColdest drops the least recently active tenant, releasing its
// accounted bytes and updating the tenants gauge at eviction time (not
// only at the next insert — Health and /metrics must see the decrement
// even when nothing is admitted right after). forBudget marks evictions
// forced by the memory budget on top of the LRU cap. Linear scan: the
// per-shard tenant cap is small (default 64).
func (st *shardState) evictColdest(sh *shard, forBudget bool) {
	var victim string
	var oldest uint64
	first := true
	for name, t := range st.tenants {
		if first || t.seen < oldest {
			victim, oldest, first = name, t.seen, false
		}
	}
	if first {
		return
	}
	t := st.tenants[victim]
	delete(st.tenants, victim)
	st.addBytes(sh, -t.bytes)
	if st.current(sh) {
		sh.tenantsG.Set(int64(len(st.tenants)))
	}
	sh.evictionsC.Inc()
	if forBudget {
		sh.budgetEvictC.Inc()
	}
	sh.statMu.Lock()
	sh.stats.Evicted++
	if forBudget {
		sh.stats.BudgetEvicted++
	}
	sh.statMu.Unlock()
}

// failBatch answers a batch with an error Result and accounts the
// failure. Called by the supervisor paths (incarnation death, dead-shard
// rejection) — never by the healthy batch loop.
func (sh *shard) failBatch(b Batch, err error) {
	sh.batchesC.Inc()
	sh.failedC.Inc()
	sh.statMu.Lock()
	sh.stats.Batches++
	sh.stats.Failed++
	sh.statMu.Unlock()
	if sh.governed {
		// Every failBatch caller holds a batch that passed admission, so
		// its pending reservation is released here exactly once.
		sh.pending.Add(-1)
	}
	if b.Reply != nil {
		b.Reply <- Result{Tenant: b.Tenant, Err: err}
	}
}

// failPending is the dead-shard loop: once the restart budget is
// exhausted, the supervisor keeps draining the queue, failing every
// batch with ErrShardDown, until Drain closes the channel. Nothing ever
// hangs on a dead shard — it just answers with errors.
func (sh *shard) failPending() {
	for b := range sh.in {
		sh.failBatch(b, fmt.Errorf("%w: shard %d", ErrShardDown, sh.id))
	}
	sh.queueDepth.Set(0)
}

// chaosSeed is the seed for deterministic restart jitter (the chaos seed
// when chaos is configured, so chaos tests reproduce byte-for-byte).
func (sh *shard) chaosSeed() uint64 {
	if sh.cfg.Chaos != nil {
		return sh.cfg.Chaos.Seed
	}
	return 0
}

// restartDelay is backoff with deterministic jitter in [b/2, b): the
// fraction comes from hashing (seed, shard, attempt), so a fleet of
// shards restarting after a correlated fault spreads out, yet any given
// (seed, shard, attempt) always waits the same duration — which is what
// lets chaos tests pin supervisor timing.
func restartDelay(b time.Duration, seed, shard uint64, attempt int) time.Duration {
	x := flathash.Mix64(seed ^ shard<<32 ^ uint64(attempt)<<48 ^ 0x9e3779b97f4a7c15)
	frac := float64(x>>11) / float64(uint64(1)<<53)
	half := b / 2
	return half + time.Duration(frac*float64(half))
}
