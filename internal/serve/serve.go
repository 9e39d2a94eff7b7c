// Package serve turns the batch simulator into a long-running streaming
// prefetch service: N shards of prefetcher metadata, each owned by a
// single-writer goroutine fed by a bounded channel of batched accesses,
// serving many concurrent per-tenant access streams.
//
// Tenants are hashed to shards, so every access of one tenant is handled
// by the same goroutine in arrival order — sessions need no locks, and a
// tenant's prefetcher metadata (its own prefetch.Session) is fully
// isolated from every other tenant's. Backpressure is the bounded shard
// queue: Submit blocks (or TrySubmit refuses) when a shard is at
// QueueDepth pending batches, so a hot tenant cannot grow server memory;
// it slows its own producers instead.
//
// Steady-state memory is strictly bounded, which is what makes the service
// safe to run indefinitely: prefetcher metadata tables are finite (the
// serving builder never uses history.Unlimited), per-shard session counts
// are capped with least-recently-active eviction, and the per-session
// buffer/stream bookkeeping compacts itself (the bugfixes pinned by this
// package's soak test).
//
// The service is also self-healing — faults degrade, they do not spread:
//
//   - A panic while processing a batch fails only that batch: the shard
//     goroutine recovers, surfaces the error through Batch.Reply
//     (Result.Err) and a serve.shardN.panics counter, and keeps serving.
//   - If a shard goroutine dies anyway, a per-shard supervisor rebuilds
//     it with exponential backoff plus deterministic jitter; tenants are
//     re-admitted lazily (their metadata is rebuilt on first use). The
//     supervision tree lives in supervisor.go.
//   - A tenant whose batches fault repeatedly is quarantined with timed,
//     exponentially backed-off re-admission (quarantine.go), so one
//     poison stream cannot crash-loop a shard shared by 63 others.
//   - An optional per-batch deadline (Config.BatchDeadline) watches for a
//     stuck shard and replaces its goroutine.
//   - Every one of those paths is pinned deterministically by the chaos
//     injector in chaos.go.
//
// Overload degrades the service gracefully instead of toppling it, when
// governance is enabled:
//
//   - With Config.Overload set, each shard serves tenants in weighted-
//     fair order with per-tenant token buckets, sheds batches that
//     out-waited Overload.QueueTarget (ErrShed), and fast-rejects new
//     work past the Config.HighWatermark occupancy (ErrOverloaded).
//     See overload.go.
//   - With Config.MemoryBudget set, live session metadata is accounted
//     in bytes per shard; past the budget the coldest tenants are
//     evicted, and near it the shard enters brownout — new sessions get
//     BrownoutScale× smaller tables and training is sampled — rather
//     than OOM. See budget.go.
//   - Health reports each shard's overload state (ok/brownout/shedding)
//     and accounted bytes; the admin endpoint's /healthz turns shedding
//     into a 503 so load balancers can steer away.
package serve

import (
	"context"
	"errors"
	"fmt"
	"hash/fnv"
	"math"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"domino/internal/core"
	"domino/internal/digram"
	"domino/internal/mem"
	"domino/internal/prefetch"
	"domino/internal/stms"
	"domino/internal/telemetry"
)

// ErrClosed is returned by Submit and TrySubmit after Drain or Close.
var ErrClosed = errors.New("serve: server closed")

// ErrBusy is returned by TrySubmit when the tenant's shard queue is full.
var ErrBusy = errors.New("serve: shard queue full")

// ErrQuarantined is wrapped by Result.Err (and reported through Reply)
// while a tenant is quarantined after repeated faults; the batch is
// rejected without touching any session.
var ErrQuarantined = errors.New("serve: tenant quarantined")

// ErrShardDown is returned by Submit/TrySubmit — and delivered through
// Reply for batches already queued — when a shard has exhausted its
// restart budget (Config.MaxRestarts) and is permanently down.
var ErrShardDown = errors.New("serve: shard permanently down")

// Config parameterises a Server. The zero value of every field is replaced
// by the default documented on it.
type Config struct {
	// Shards is the number of single-writer metadata shards (default 4).
	Shards int
	// QueueDepth is the per-shard bounded queue length, in batches
	// (default 64). A full queue is the backpressure signal.
	QueueDepth int
	// MaxTenantsPerShard caps the sessions a shard keeps warm (default
	// 64). Admitting a tenant beyond the cap evicts the shard's least
	// recently active session, metadata and all.
	MaxTenantsPerShard int
	// Prefetcher is the prefetcher kind each tenant session trains
	// ("domino", "stms" or "digram"; default "domino").
	Prefetcher string
	// Degree is the prefetch degree (default 4).
	Degree int
	// Scale divides the paper-size metadata tables, exactly as in the
	// simulator (default 16). Serving always uses finite tables: the
	// unlimited-metadata configurations of the paper's sensitivity
	// studies are a batch-simulation device, not a deployment shape.
	Scale int
	// BufferBlocks is the per-session prefetch-buffer capacity (default
	// 32, the paper's size).
	BufferBlocks int

	// HighWatermark is the queue-occupancy fraction (0, 1] at which a
	// shard reports Saturated in Health — degraded *before* hard-full —
	// and, when Overload is set, the admission watermark past which
	// Submit/TrySubmit fast-reject with ErrOverloaded (default 0.75;
	// values above 1 are clamped to 1).
	HighWatermark float64
	// Overload, if non-nil, enables overload governance on every shard:
	// weighted-fair scheduling across tenants with token buckets, queue-
	// deadline shedding (ErrShed), and watermark fast-rejects
	// (ErrOverloaded). Nil keeps the plain FIFO loop — an ungoverned
	// server behaves byte-identically to one built before governance
	// existed. See OverloadConfig in overload.go.
	Overload *OverloadConfig
	// MemoryBudget caps the bytes of live session metadata across the
	// whole server; each shard gets an equal slice. Over its slice a
	// shard evicts coldest tenants; approaching it (90%) the shard
	// enters brownout — new sessions built with tables BrownoutScale×
	// smaller and training sampled every BrownoutSample-th access —
	// and leaves again below 50%. 0 disables the budget governor. See
	// budget.go.
	MemoryBudget int64
	// BrownoutScale multiplies Scale for sessions built during brownout
	// (default 8: tables 8× smaller).
	BrownoutScale int
	// BrownoutSample trains every Nth access while a shard is in
	// brownout (default 2; 1 disables sampling). Skipped accesses still
	// count in Result.Accesses — they are served, just not learned from.
	BrownoutSample int

	// MaxRestarts budgets supervisor restarts per shard within one crash
	// burst: 0 (the default) restarts without limit, a negative value
	// disables restarts entirely, and a positive value marks the shard
	// permanently down (ErrShardDown) once exceeded. A shard that stays
	// up longer than RestartBackoffMax starts a fresh burst.
	MaxRestarts int
	// RestartBackoff is the supervisor's first restart delay (default
	// 50ms); each consecutive restart doubles it, with deterministic
	// jitter, up to RestartBackoffMax (default 5s).
	RestartBackoff    time.Duration
	RestartBackoffMax time.Duration

	// QuarantineAfter is the fault budget: a tenant whose batches fault
	// QuarantineAfter times within QuarantineWindow is quarantined
	// (default 3; negative disables quarantine).
	QuarantineAfter int
	// QuarantineWindow is the sliding fault-counting window (default 30s).
	QuarantineWindow time.Duration
	// QuarantineBackoff is the first quarantine duration (default 1s);
	// each re-offence after re-admission doubles it up to
	// QuarantineBackoffMax (default 2m).
	QuarantineBackoff    time.Duration
	QuarantineBackoffMax time.Duration

	// BatchDeadline, when positive, arms the watchdog: a shard stuck in
	// one batch for longer than this is marked unhealthy and its
	// goroutine replaced by the supervisor. The stuck goroutine cannot be
	// killed; it is abandoned and exits on its own once it unblocks (its
	// batch then gets a late reply). 0 disables the watchdog.
	BatchDeadline time.Duration

	// Chaos, if non-nil, deterministically injects faults (batch panics,
	// shard kills, stalls, session-build failures) into the serving path.
	// It exists to drill the recovery machinery — tests and operational
	// fire drills — and must stay nil in production configurations.
	Chaos *Chaos

	// Metrics, if non-nil, receives per-shard throughput counters, queue
	// depth and high-water gauges, batch latency / queue wait / batch
	// size histograms, fault-containment counters (panics, build_errors,
	// batch_failures, restarts, stalls, quarantined, readmitted,
	// quarantine_rejects, quarantined_now), overload-governance counters
	// and gauges (evictions, shed, overloaded, brownout,
	// budget_evictions, tenant_bytes), and per-tenant-class accuracy
	// and coverage counters, all under "serve.*". A nil registry costs
	// nothing on the hot path: every instrumented pointer is nil and
	// every metric call is a single branch.
	Metrics *telemetry.Registry
	// TenantClass maps a tenant name onto its accounting class for the
	// per-class counters ("serve.tenant.<class>.*"). Nil uses
	// DefaultTenantClass. Classes should be low-cardinality: one counter
	// set is registered per distinct class.
	TenantClass func(tenant string) string
	// Trace, if non-nil, receives sampled per-access TraceEvent records
	// as JSON lines: tenant, class, shard, address, triggered/hit,
	// prefetch count and queue wait. A nil sink costs nothing.
	Trace *telemetry.JSONL
	// TraceEvery samples every Nth access per shard into Trace (default
	// 1024 when Trace is set; 1 records everything).
	TraceEvery int

	// now is the clock behind quarantine and restart-burst timing,
	// overridable by tests. Defaults to time.Now.
	now func() time.Time
}

// DefaultTenantClass is the default Config.TenantClass: the tenant name
// up to the last '-' (so "gold-17" and "gold-3" share class "gold"), or
// the whole name when it has no '-'.
func DefaultTenantClass(tenant string) string {
	if i := strings.LastIndexByte(tenant, '-'); i > 0 {
		return tenant[:i]
	}
	if tenant == "" {
		return "unknown"
	}
	return tenant
}

func (c Config) withDefaults() Config {
	if c.TenantClass == nil {
		c.TenantClass = DefaultTenantClass
	}
	if c.Trace != nil && c.TraceEvery <= 0 {
		c.TraceEvery = 1024
	}
	if c.Shards <= 0 {
		c.Shards = 4
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 64
	}
	if c.MaxTenantsPerShard <= 0 {
		c.MaxTenantsPerShard = 64
	}
	if c.Prefetcher == "" {
		c.Prefetcher = "domino"
	}
	if c.Degree <= 0 {
		c.Degree = 4
	}
	if c.Scale <= 0 {
		c.Scale = 16
	}
	if c.BufferBlocks <= 0 {
		c.BufferBlocks = 32
	}
	if c.HighWatermark <= 0 {
		c.HighWatermark = 0.75
	}
	if c.HighWatermark > 1 {
		c.HighWatermark = 1
	}
	if c.Overload != nil {
		c.Overload = c.Overload.withDefaults()
	}
	if c.MemoryBudget < 0 {
		c.MemoryBudget = 0
	}
	if c.BrownoutScale <= 0 {
		c.BrownoutScale = 8
	}
	if c.BrownoutSample <= 0 {
		c.BrownoutSample = 2
	}
	if c.RestartBackoff <= 0 {
		c.RestartBackoff = 50 * time.Millisecond
	}
	if c.RestartBackoffMax <= 0 {
		c.RestartBackoffMax = 5 * time.Second
	}
	if c.RestartBackoffMax < c.RestartBackoff {
		c.RestartBackoffMax = c.RestartBackoff
	}
	if c.QuarantineAfter == 0 {
		c.QuarantineAfter = 3
	}
	if c.QuarantineWindow <= 0 {
		c.QuarantineWindow = 30 * time.Second
	}
	if c.QuarantineBackoff <= 0 {
		c.QuarantineBackoff = time.Second
	}
	if c.QuarantineBackoffMax <= 0 {
		c.QuarantineBackoffMax = 2 * time.Minute
	}
	if c.QuarantineBackoffMax < c.QuarantineBackoff {
		c.QuarantineBackoffMax = c.QuarantineBackoff
	}
	if c.now == nil {
		c.now = time.Now
	}
	return c
}

// buildPrefetcher constructs one tenant's prefetcher with finite metadata
// tables at the configured scale.
func buildPrefetcher(c Config) (prefetch.Prefetcher, error) {
	return buildPrefetcherAt(c, c.Scale)
}

// buildPrefetcherAt builds at an explicit scale divisor — Config.Scale
// normally, Scale×BrownoutScale for sessions admitted during a
// brownout. STMS and Digram default to unlimited history tables in the
// simulator (the paper's configuration); here their history capacity is
// the Domino HT capacity at the same scale, so every serving prefetcher
// has the same bounded-residency story (and the same byte accounting,
// see sessionBytes in budget.go).
func buildPrefetcherAt(c Config, scale int) (prefetch.Prefetcher, error) {
	switch c.Prefetcher {
	case "domino":
		return core.New(core.ScaledConfig(c.Degree, scale), nil), nil
	case "stms":
		sc := stms.DefaultConfig(c.Degree)
		sc.HTEntries = core.ScaledConfig(c.Degree, scale).Tables.HTEntries
		return stms.New(sc, nil), nil
	case "digram":
		dc := digram.DefaultConfig(c.Degree)
		dc.HTEntries = core.ScaledConfig(c.Degree, scale).Tables.HTEntries
		return digram.New(dc, nil), nil
	default:
		return nil, fmt.Errorf("serve: unknown prefetcher %q (have domino, stms, digram)", c.Prefetcher)
	}
}

// Batch is one unit of work: a run of consecutive accesses from one
// tenant's stream, in program order.
type Batch struct {
	// Tenant names the access stream; it selects the shard and the
	// session. Accesses of one tenant are processed in submission order.
	Tenant string
	// Accesses are the tenant's next accesses, oldest first.
	Accesses []mem.Access
	// Reply, if non-nil, receives exactly one Result when the batch has
	// been processed or failed. The shard's send blocks until the caller
	// receives (or the channel has room), so give Reply capacity if the
	// client does anything else between submit and receive.
	Reply chan<- Result

	// enqueuedAt is stamped by Submit/TrySubmit when the server is
	// instrumented, so the shard can report queue wait. Zero when
	// telemetry and tracing are both disabled — the uninstrumented hot
	// path never calls time.Now.
	enqueuedAt time.Time
}

// TraceEvent is one sampled access record emitted to Config.Trace as a
// JSON line, for post-hoc accuracy/latency analysis of a live service.
type TraceEvent struct {
	Tenant string `json:"tenant"`
	Class  string `json:"class"`
	Shard  int    `json:"shard"`
	Addr   uint64 `json:"addr"`
	PC     uint64 `json:"pc,omitempty"`
	// Triggered reports the access missed the L1-D and reached the
	// prefetcher; Hit that the prefetch buffer covered it.
	Triggered bool `json:"triggered"`
	Hit       bool `json:"hit"`
	// Prefetched is the number of lines issued in response.
	Prefetched int `json:"prefetched"`
	// QueueNS is how long the access's batch waited in the shard queue.
	QueueNS int64 `json:"queue_ns"`
}

// Result is the service's answer for one batch.
type Result struct {
	// Tenant echoes the batch's tenant.
	Tenant string
	// Accesses is the number of accesses processed.
	Accesses int
	// Hits counts accesses covered by the tenant's prefetch buffer;
	// Misses counts uncovered L1 misses (L1 hits are neither).
	Hits   int
	Misses int
	// Prefetched lists the lines the service decided to prefetch for this
	// batch, in issue order. The slice is owned by the caller.
	Prefetched []mem.Line
	// Err is non-nil when the service failed the batch instead of
	// processing it: the batch panicked (the fault is isolated to this
	// batch), the tenant's session could not be built, the tenant is
	// quarantined (errors.Is(err, ErrQuarantined)), or the shard is
	// permanently down (errors.Is(err, ErrShardDown)). A failed batch
	// trains nothing.
	Err error
}

// ShardStats is one shard's lifetime totals.
type ShardStats struct {
	Shard      int
	Batches    uint64
	Accesses   uint64
	Hits       uint64
	Misses     uint64
	Prefetches uint64
	Tenants    int
	Evicted    uint64
	// Failed counts batches that were answered with Result.Err instead
	// of being processed (panics, build failures, quarantine rejections,
	// shed batches, dead-shard rejections).
	Failed uint64
	// Shed counts batches failed by the queue-deadline shedder
	// (errors.Is(Result.Err, ErrShed)); Overloaded counts submissions
	// fast-rejected at the high watermark; BudgetEvicted counts
	// evictions forced by the memory budget (a subset of Evicted).
	Shed          uint64
	Overloaded    uint64
	BudgetEvicted uint64
}

// Stats aggregates the per-shard totals.
type Stats struct {
	Shards   []ShardStats
	Accesses uint64
	Hits     uint64
	Misses   uint64
	Failed   uint64
}

// Server is the sharded prefetch service. Construct with New, launch with
// Start, feed with Submit/TrySubmit, stop with Drain.
type Server struct {
	cfg    Config
	shards []*shard

	mu     sync.RWMutex // guards closed vs. in-flight Submits
	closed bool
	wg     sync.WaitGroup
}

// shard is one single-writer metadata partition. The goroutine-owned
// session state lives in shardState (one per goroutine incarnation, see
// supervisor.go); this struct holds the queue, the supervision/health
// atomics, and the telemetry sinks shared across incarnations.
type shard struct {
	id  int
	in  chan Batch
	cfg Config

	// instr is set when any observability sink (registry or trace) is
	// configured; it gates the per-batch time.Now stamp in Submit.
	instr bool
	// watchdog is set when Config.BatchDeadline is armed; it gates the
	// per-batch busy stamps below.
	watchdog bool
	// governed is set when Config.Overload is non-nil; ov aliases the
	// defaulted overload configuration.
	governed bool
	ov       *OverloadConfig

	// pending counts admitted-but-unfinished batches (channel +
	// scheduler + in process) on a governed shard; the high-watermark
	// fast-reject in Submit/TrySubmit reads it. Unused when ungoverned.
	pending atomic.Int64
	// satCap is the shard's effective capacity in batches (QueueDepth
	// plain, 2×QueueDepth governed: channel plus scheduler);
	// satThreshold is the occupancy at which the shard is Saturated —
	// and, governed, fast-rejecting.
	satCap       int
	satThreshold int

	// budget is this shard's slice of Config.MemoryBudget (0 = budget
	// governor off); fullBytes/brownBytes are the per-session metadata
	// cost at Scale and at Scale×BrownoutScale.
	budget     int64
	fullBytes  int64
	brownBytes int64
	// brownoutB and tenantBytes mirror the owning incarnation's
	// brownout flag and accounted session bytes for Health.
	brownoutB   atomic.Bool
	tenantBytes atomic.Int64

	// state is the shard's supervision state (ShardState), written by
	// Start and the supervisor, read by Health and Submit.
	state atomic.Int32
	// gen is the current goroutine incarnation. An incarnation that
	// observes a newer generation after finishing a batch knows it was
	// replaced by the watchdog and exits without touching the queue.
	gen atomic.Uint64
	// restarts counts supervisor restarts over the shard's lifetime.
	restarts atomic.Uint64
	// quarantinedN is the number of tenants currently quarantined, for
	// Health (the owning incarnation writes it).
	quarantinedN atomic.Int64
	// busyGen/busySince stamp the batch being processed (incarnation and
	// start nanos; busySince 0 = idle) for the watchdog.
	busyGen   atomic.Uint64
	busySince atomic.Int64
	// hwm is the queue-depth high-water mark (batches, including the one
	// being processed), written by the shard goroutine, read by Health.
	hwm atomic.Int64

	// telemetry (nil-safe when no registry is configured)
	queueDepth   *telemetry.Gauge
	queueHWM     *telemetry.Gauge
	tenantsG     *telemetry.Gauge
	accessesC    *telemetry.Counter
	batchesC     *telemetry.Counter
	hitsC        *telemetry.Counter
	prefetchC    *telemetry.Counter
	evictionsC   *telemetry.Counter   // tenant sessions evicted (LRU cap + budget)
	shedC        *telemetry.Counter   // batches failed by the deadline shedder
	overloadedC  *telemetry.Counter   // watermark fast-rejects
	brownoutC    *telemetry.Counter   // brownout entries
	budgetEvictC *telemetry.Counter   // evictions forced by the memory budget
	tenantBytesG *telemetry.Gauge     // accounted session metadata bytes
	panicsC      *telemetry.Counter   // recovered per-batch panics
	buildErrsC   *telemetry.Counter   // session build failures
	failedC      *telemetry.Counter   // batches answered with Result.Err
	restartsC    *telemetry.Counter   // supervisor restarts
	stalledC     *telemetry.Counter   // watchdog replacements of a stuck goroutine
	quarantinedC *telemetry.Counter   // tenants entering quarantine
	readmittedC  *telemetry.Counter   // tenants re-admitted after quarantine
	quarRejectC  *telemetry.Counter   // batches rejected while quarantined
	quarG        *telemetry.Gauge     // tenants currently quarantined
	batchHist    *telemetry.Histogram // batch processing latency, ns
	queueWait    *telemetry.Histogram // submit-to-dequeue wait, ns
	batchSize    *telemetry.Histogram // accesses per batch

	statMu sync.Mutex
	stats  ShardStats
}

func (sh *shard) curState() ShardState { return ShardState(sh.state.Load()) }
func (sh *shard) setState(s ShardState) {
	sh.state.Store(int32(s))
}

// classCounters is one tenant class's accuracy/coverage counter set.
// The counters come from the shared registry (same names resolve to the
// same atomics across shards); each incarnation caches the lookup so the
// registry lock is off the batch path.
type classCounters struct {
	triggered *telemetry.Counter // L1 misses delivered to the prefetcher
	covered   *telemetry.Counter // misses covered by the prefetch buffer
	issued    *telemetry.Counter // prefetches inserted into the buffer
	used      *telemetry.Counter // prefetches later consumed
}

// classFor returns the incarnation's cached counter set for class,
// registering the counters on first use. Nil-safe: with no registry the
// counters are nil and every Add is a no-op.
func (sh *shard) classFor(st *shardState, class string) *classCounters {
	if cc, ok := st.classes[class]; ok {
		return cc
	}
	reg := sh.cfg.Metrics
	p := "serve.tenant." + class + "."
	cc := &classCounters{
		triggered: reg.Counter(p + "triggered"),
		covered:   reg.Counter(p + "covered"),
		issued:    reg.Counter(p + "issued"),
		used:      reg.Counter(p + "used"),
	}
	st.classes[class] = cc
	return cc
}

// tenantSession is one tenant's pipeline plus its recency stamp and the
// bookkeeping for per-class counter deltas.
type tenantSession struct {
	sess  *prefetch.Session
	seen  uint64
	class string
	cc    *classCounters
	last  prefetch.SessionStats // stats at the end of the previous batch
	// bytes is the session's accounted metadata cost (0 when the budget
	// governor is off); sampleN counts accesses for brownout sampling.
	bytes   int64
	sampleN uint64
}

// New validates cfg (building a throwaway prefetcher to fail fast on an
// unknown kind) and returns an unstarted server.
func New(cfg Config) (*Server, error) {
	cfg = cfg.withDefaults()
	if _, err := buildPrefetcher(cfg); err != nil {
		return nil, err
	}
	s := &Server{cfg: cfg}
	for i := 0; i < cfg.Shards; i++ {
		sh := &shard{
			id:       i,
			in:       make(chan Batch, cfg.QueueDepth),
			cfg:      cfg,
			instr:    cfg.Metrics != nil || cfg.Trace != nil,
			watchdog: cfg.BatchDeadline > 0,
			governed: cfg.Overload != nil,
			ov:       cfg.Overload,
			stats:    ShardStats{Shard: i},
		}
		sh.satCap = cfg.QueueDepth
		if sh.governed {
			// Governed capacity is the channel plus the scheduler's half.
			sh.satCap = 2 * cfg.QueueDepth
		}
		sh.satThreshold = min(max(int(math.Ceil(cfg.HighWatermark*float64(sh.satCap))), 1), sh.satCap)
		if cfg.MemoryBudget > 0 {
			sh.budget = max(cfg.MemoryBudget/int64(cfg.Shards), 1)
			sh.fullBytes = sessionBytes(cfg.Scale)
			sh.brownBytes = sessionBytes(cfg.Scale * cfg.BrownoutScale)
		}
		if reg := cfg.Metrics; reg != nil {
			p := fmt.Sprintf("serve.shard%d.", i)
			sh.queueDepth = reg.Gauge(p + "queue_depth")
			sh.queueHWM = reg.Gauge(p + "queue_hwm")
			sh.tenantsG = reg.Gauge(p + "tenants")
			sh.accessesC = reg.Counter(p + "accesses")
			sh.batchesC = reg.Counter(p + "batches")
			sh.hitsC = reg.Counter(p + "hits")
			sh.prefetchC = reg.Counter(p + "prefetches")
			sh.evictionsC = reg.Counter(p + "evictions")
			sh.shedC = reg.Counter(p + "shed")
			sh.overloadedC = reg.Counter(p + "overloaded")
			sh.brownoutC = reg.Counter(p + "brownout")
			sh.budgetEvictC = reg.Counter(p + "budget_evictions")
			sh.tenantBytesG = reg.Gauge(p + "tenant_bytes")
			sh.panicsC = reg.Counter(p + "panics")
			sh.buildErrsC = reg.Counter(p + "build_errors")
			sh.failedC = reg.Counter(p + "batch_failures")
			sh.restartsC = reg.Counter(p + "restarts")
			sh.stalledC = reg.Counter(p + "stalls")
			sh.quarantinedC = reg.Counter(p + "quarantined")
			sh.readmittedC = reg.Counter(p + "readmitted")
			sh.quarRejectC = reg.Counter(p + "quarantine_rejects")
			sh.quarG = reg.Gauge(p + "quarantined_now")
			sh.batchHist = reg.Histogram(p + "batch_ns")
			sh.queueWait = reg.Histogram(p + "queue_wait_ns")
			sh.batchSize = reg.Histogram(p + "batch_size")
		}
		s.shards = append(s.shards, sh)
	}
	return s, nil
}

// Config returns the server's effective (defaulted) configuration.
func (s *Server) Config() Config { return s.cfg }

// Start launches one supervisor per shard; each supervisor runs (and,
// after faults, re-runs) the shard's single-writer goroutine.
func (s *Server) Start() {
	for _, sh := range s.shards {
		s.wg.Add(1)
		sh.setState(ShardAlive)
		go s.supervise(sh)
	}
}

// shardFor hashes a tenant onto its shard.
func (s *Server) shardFor(tenant string) *shard {
	h := fnv.New32a()
	h.Write([]byte(tenant))
	return s.shards[int(h.Sum32())%len(s.shards)]
}

// admitGoverned is the watermark gate for a governed shard: it reserves
// one pending slot, or accounts an ErrOverloaded fast-reject when the
// reservation would cross the high watermark. Returns whether the batch
// may proceed to the queue.
func (sh *shard) admitGoverned() bool {
	if n := sh.pending.Add(1); int(n) > sh.satThreshold {
		sh.pending.Add(-1)
		sh.overloadedC.Inc()
		sh.statMu.Lock()
		sh.stats.Overloaded++
		sh.statMu.Unlock()
		return false
	}
	return true
}

// Submit enqueues b on its tenant's shard, blocking while the shard queue
// is full — the backpressure path. It returns ctx.Err() if ctx is done
// first, ErrClosed once the server is draining or closed, ErrShardDown
// if the tenant's shard has exhausted its restart budget, and — on a
// governed shard — ErrOverloaded without blocking once pending work is
// at the high watermark (past the watermark the server wants clients to
// shed or back off, not to park more work).
func (s *Server) Submit(ctx context.Context, b Batch) error {
	sh := s.shardFor(b.Tenant)
	s.mu.RLock()
	defer s.mu.RUnlock()
	if s.closed {
		return ErrClosed
	}
	if sh.curState() == ShardDead {
		return ErrShardDown
	}
	if sh.governed {
		if !sh.admitGoverned() {
			return ErrOverloaded
		}
		// cfg.now, not time.Now: the sojourn deadline must follow the
		// same (test-overridable) clock as the shedder.
		b.enqueuedAt = sh.cfg.now()
	} else if sh.instr {
		b.enqueuedAt = time.Now()
	}
	select {
	case sh.in <- b:
		return nil
	case <-ctx.Done():
		if sh.governed {
			sh.pending.Add(-1)
		}
		return ctx.Err()
	}
}

// TrySubmit is the non-blocking Submit: it returns ErrBusy instead of
// waiting when the shard queue is full, for callers that prefer load
// shedding over backpressure — and, on a governed shard, ErrOverloaded
// once pending work is at the high watermark.
func (s *Server) TrySubmit(b Batch) error {
	sh := s.shardFor(b.Tenant)
	s.mu.RLock()
	defer s.mu.RUnlock()
	if s.closed {
		return ErrClosed
	}
	if sh.curState() == ShardDead {
		return ErrShardDown
	}
	if sh.governed {
		if !sh.admitGoverned() {
			return ErrOverloaded
		}
		b.enqueuedAt = sh.cfg.now()
	} else if sh.instr {
		b.enqueuedAt = time.Now()
	}
	select {
	case sh.in <- b:
		return nil
	default:
		if sh.governed {
			sh.pending.Add(-1)
		}
		return ErrBusy
	}
}

// Drain stops the server gracefully: new submissions fail with ErrClosed,
// every batch already queued is processed, and Drain returns when all
// shards have gone idle (or with ctx.Err() if ctx expires first — the
// shards keep draining in the background in that case).
func (s *Server) Drain(ctx context.Context) error {
	s.mu.Lock()
	if !s.closed {
		s.closed = true
		for _, sh := range s.shards {
			close(sh.in)
		}
	}
	s.mu.Unlock()
	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// Stats snapshots the per-shard lifetime totals.
func (s *Server) Stats() Stats {
	var out Stats
	for _, sh := range s.shards {
		sh.statMu.Lock()
		st := sh.stats
		sh.statMu.Unlock()
		out.Shards = append(out.Shards, st)
		out.Accesses += st.Accesses
		out.Hits += st.Hits
		out.Misses += st.Misses
		out.Failed += st.Failed
	}
	return out
}

// ShardHealth is one shard's liveness and queue occupancy.
type ShardHealth struct {
	Shard int  `json:"shard"`
	Alive bool `json:"alive"`
	// State is the supervision state: "alive", "restarting" (the
	// supervisor is backing off before rebuilding the goroutine), "dead"
	// (restart budget exhausted) or "stopped" (not started, or cleanly
	// drained).
	State string `json:"state"`
	// Restarts counts supervisor restarts of this shard's goroutine.
	Restarts uint64 `json:"restarts"`
	// Quarantined is the number of tenants currently quarantined.
	Quarantined int `json:"quarantined"`
	// QueueLen and QueueCap describe pending work right now: on a plain
	// shard the bounded input channel, on a governed shard everything
	// admitted and unfinished (channel + scheduler + in process, cap
	// 2×QueueDepth). Saturated flags occupancy at or past the
	// Config.HighWatermark fraction of capacity — degradation shows
	// here before the queue is hard-full.
	QueueLen  int  `json:"queue_len"`
	QueueCap  int  `json:"queue_cap"`
	Saturated bool `json:"saturated"`
	// QueueHWM is the lifetime high-water mark of queued batches,
	// including the one being processed.
	QueueHWM int `json:"queue_hwm"`
	Tenants  int `json:"tenants"`
	// Overload is the shard's overload state: "ok", "brownout" (memory
	// budget pressure: scaled-down sessions, sampled training) or
	// "shedding" (at the watermark: submissions fast-rejected, stale
	// batches shed). The admin endpoint maps "shedding" to a 503.
	Overload string `json:"overload"`
	// TenantBytes is the accounted session metadata on this shard (0
	// when the memory budget governor is off).
	TenantBytes int64 `json:"tenant_bytes"`
}

// Health is the server's liveness report, served by the admin endpoint's
// /healthz.
type Health struct {
	// OK is true while the server accepts work: not closed and every
	// shard's goroutine alive (a shard that is restarting or dead takes
	// the server out of OK until the supervisor brings it back).
	OK     bool `json:"ok"`
	Closed bool `json:"closed"`
	// Degraded is true while any shard reports an overload state other
	// than "ok" (brownout or shedding). The server still accepts work —
	// OK governs that — but it is degrading service to survive.
	Degraded bool          `json:"degraded"`
	Shards   []ShardHealth `json:"shards"`
}

// Health snapshots shard liveness and queue occupancy. It is safe to
// call at any time, including before Start and after Drain.
func (s *Server) Health() Health {
	s.mu.RLock()
	closed := s.closed
	s.mu.RUnlock()
	h := Health{OK: !closed, Closed: closed}
	for _, sh := range s.shards {
		state := sh.curState()
		sh.statMu.Lock()
		tenants := sh.stats.Tenants
		sh.statMu.Unlock()
		qlen, qcap := len(sh.in), cap(sh.in)
		if sh.governed {
			qlen, qcap = int(sh.pending.Load()), sh.satCap
		}
		over := "ok"
		switch {
		case sh.governed && qlen >= sh.satThreshold:
			over = "shedding"
		case sh.brownoutB.Load():
			over = "brownout"
		}
		shh := ShardHealth{
			Shard:       sh.id,
			Alive:       state == ShardAlive,
			State:       state.String(),
			Restarts:    sh.restarts.Load(),
			Quarantined: int(sh.quarantinedN.Load()),
			QueueLen:    qlen,
			QueueCap:    qcap,
			Saturated:   qlen >= sh.satThreshold,
			QueueHWM:    int(sh.hwm.Load()),
			Tenants:     tenants,
			Overload:    over,
			TenantBytes: sh.tenantBytes.Load(),
		}
		if state != ShardAlive {
			h.OK = false
		}
		if over != "ok" {
			h.Degraded = true
		}
		h.Shards = append(h.Shards, shh)
	}
	return h
}
