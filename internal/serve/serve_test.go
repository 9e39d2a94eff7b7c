package serve

import (
	"context"
	"encoding/json"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"domino/internal/mem"
	"domino/internal/prefetch"
	"domino/internal/telemetry"
	"domino/internal/trace"
	"domino/internal/workload"
)

func testConfig() Config {
	return Config{Shards: 2, QueueDepth: 8, MaxTenantsPerShard: 4, Prefetcher: "domino", Scale: 64}
}

func collect(t *testing.T, n int, seed int64) []mem.Access {
	t.Helper()
	return collectN(n, seed)
}

func collectN(n int, seed int64) []mem.Access {
	p := workload.ByName("OLTP")
	p.Seed = seed
	return trace.Collect(workload.New(p), n).Accesses
}

func newSessionForTest(c Config, p prefetch.Prefetcher) *prefetch.Session {
	ec := prefetch.DefaultEvalConfig()
	ec.BufferBlocks = c.BufferBlocks
	return prefetch.NewSession(p, ec)
}

func TestServerRejectsUnknownPrefetcher(t *testing.T) {
	if _, err := New(Config{Prefetcher: "oracle"}); err == nil {
		t.Fatal("unknown prefetcher accepted")
	}
}

func TestServerProcessesBatchesInOrder(t *testing.T) {
	s, err := New(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	s.Start()
	accesses := collect(t, 10_000, 1)

	reply := make(chan Result, 1)
	var hits, misses, total int
	for i := 0; i < len(accesses); i += 100 {
		b := Batch{Tenant: "t0", Accesses: accesses[i : i+100], Reply: reply}
		if err := s.Submit(context.Background(), b); err != nil {
			t.Fatal(err)
		}
		r := <-reply
		hits += r.Hits
		misses += r.Misses
		total += r.Accesses
	}
	if err := s.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
	if total != len(accesses) {
		t.Fatalf("processed %d accesses, want %d", total, len(accesses))
	}
	st := s.Stats()
	if st.Accesses != uint64(total) || st.Hits != uint64(hits) || st.Misses != uint64(misses) {
		t.Fatalf("Stats = %+v, want accesses=%d hits=%d misses=%d", st, total, hits, misses)
	}
	// A temporal workload trained in order must find recurring streams:
	// some prefetch-buffer hits, and far fewer hits than accesses.
	if hits == 0 || hits >= total {
		t.Fatalf("hits = %d of %d accesses: training looks broken", hits, total)
	}
}

// TestServerMatchesSession pins shard routing and batching as pure
// plumbing: the concurrent server must produce exactly the per-tenant
// results a directly driven Session produces on the same stream.
func TestServerMatchesSession(t *testing.T) {
	cfg := testConfig()
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	s.Start()

	tenants := []string{"alpha", "beta", "gamma"}
	streams := make(map[string][]mem.Access)
	for i, tn := range tenants {
		streams[tn] = collect(t, 5000, int64(100+i))
	}

	var wg sync.WaitGroup
	got := make(map[string]*Result)
	var mu sync.Mutex
	for _, tn := range tenants {
		wg.Add(1)
		go func(tn string) {
			defer wg.Done()
			reply := make(chan Result, 1)
			agg := &Result{Tenant: tn}
			accesses := streams[tn]
			for i := 0; i < len(accesses); i += 250 {
				if err := s.Submit(context.Background(), Batch{Tenant: tn, Accesses: accesses[i : i+250], Reply: reply}); err != nil {
					t.Error(err)
					return
				}
				r := <-reply
				agg.Accesses += r.Accesses
				agg.Hits += r.Hits
				agg.Misses += r.Misses
				agg.Prefetched = append(agg.Prefetched, r.Prefetched...)
			}
			mu.Lock()
			got[tn] = agg
			mu.Unlock()
		}(tn)
	}
	wg.Wait()
	if err := s.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}

	for _, tn := range tenants {
		p, err := buildPrefetcher(cfg.withDefaults())
		if err != nil {
			t.Fatal(err)
		}
		sess := newSessionForTest(cfg.withDefaults(), p)
		want := Result{Tenant: tn}
		for _, a := range streams[tn] {
			out := sess.Access(a)
			if out.Triggered {
				if out.Hit {
					want.Hits++
				} else {
					want.Misses++
				}
			}
			want.Prefetched = append(want.Prefetched, out.Prefetched...)
		}
		g := got[tn]
		if g == nil {
			t.Fatalf("tenant %s: no result", tn)
		}
		if g.Hits != want.Hits || g.Misses != want.Misses || len(g.Prefetched) != len(want.Prefetched) {
			t.Fatalf("tenant %s: server hits/misses/prefetches = %d/%d/%d, session %d/%d/%d",
				tn, g.Hits, g.Misses, len(g.Prefetched), want.Hits, want.Misses, len(want.Prefetched))
		}
		for i := range g.Prefetched {
			if g.Prefetched[i] != want.Prefetched[i] {
				t.Fatalf("tenant %s: prefetch %d = %v, session issued %v", tn, i, g.Prefetched[i], want.Prefetched[i])
			}
		}
	}
}

func TestSubmitAfterDrainFails(t *testing.T) {
	s, err := New(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	s.Start()
	if err := s.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
	if err := s.Submit(context.Background(), Batch{Tenant: "t"}); err != ErrClosed {
		t.Fatalf("Submit after Drain = %v, want ErrClosed", err)
	}
	if err := s.TrySubmit(Batch{Tenant: "t"}); err != ErrClosed {
		t.Fatalf("TrySubmit after Drain = %v, want ErrClosed", err)
	}
	// Drain is idempotent.
	if err := s.Drain(context.Background()); err != nil {
		t.Fatalf("second Drain = %v", err)
	}
}

// TestBackpressure checks both faces of a full shard queue: TrySubmit
// refuses with ErrBusy, and Submit blocks until the caller's context
// expires.
func TestBackpressure(t *testing.T) {
	cfg := testConfig()
	cfg.Shards = 1
	cfg.QueueDepth = 2
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Not started: nothing drains the queue, so it fills and stays full.
	a := collect(t, 8, 1)
	for i := 0; i < cfg.QueueDepth; i++ {
		if err := s.TrySubmit(Batch{Tenant: "t", Accesses: a}); err != nil {
			t.Fatalf("fill %d: %v", i, err)
		}
	}
	if err := s.TrySubmit(Batch{Tenant: "t", Accesses: a}); err != ErrBusy {
		t.Fatalf("TrySubmit on full queue = %v, want ErrBusy", err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	if err := s.Submit(ctx, Batch{Tenant: "t", Accesses: a}); err != context.DeadlineExceeded {
		t.Fatalf("Submit on full queue = %v, want DeadlineExceeded", err)
	}
	// Start and drain so the goroutines exit.
	s.Start()
	if err := s.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
}

func TestTenantCapEvictsColdest(t *testing.T) {
	cfg := testConfig()
	cfg.Shards = 1
	cfg.MaxTenantsPerShard = 2
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	s.Start()
	a := collect(t, 64, 1)
	reply := make(chan Result, 1)
	for _, tn := range []string{"a", "b", "a", "c", "a", "d"} {
		if err := s.Submit(context.Background(), Batch{Tenant: tn, Accesses: a, Reply: reply}); err != nil {
			t.Fatal(err)
		}
		<-reply
	}
	if err := s.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
	st := s.Stats()
	if st.Shards[0].Tenants > 2 {
		t.Fatalf("shard holds %d tenants, cap is 2", st.Shards[0].Tenants)
	}
	// b and c each had to make room (b for c, c for d); a stayed hot.
	if st.Shards[0].Evicted < 2 {
		t.Fatalf("evictions = %d, want >= 2", st.Shards[0].Evicted)
	}
}

func TestMetricsPublished(t *testing.T) {
	cfg := testConfig()
	cfg.Metrics = telemetry.New()
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	s.Start()
	reply := make(chan Result, 1)
	if err := s.Submit(context.Background(), Batch{Tenant: "t", Accesses: collect(t, 500, 1), Reply: reply}); err != nil {
		t.Fatal(err)
	}
	<-reply
	if err := s.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
	var accesses int64
	var sawBatch bool
	for _, m := range cfg.Metrics.Snapshot() {
		if m.Kind == "counter" && m.Value != nil {
			if len(m.Name) > 6 && m.Name[:6] == "serve." && hasSuffix(m.Name, ".accesses") {
				accesses += *m.Value
			}
		}
		if m.Kind == "histogram" && hasSuffix(m.Name, ".batch_ns") && m.Histogram.Count > 0 {
			sawBatch = true
		}
	}
	if accesses != 500 {
		t.Fatalf("serve.*.accesses total = %d, want 500", accesses)
	}
	if !sawBatch {
		t.Fatal("no batch latency histogram observation recorded")
	}
}

func hasSuffix(s, suf string) bool {
	return len(s) >= len(suf) && s[len(s)-len(suf):] == suf
}

// TestDrainUnderLoad floods the server from several goroutines, drains
// mid-stream, and checks every accepted batch was processed — no work
// accepted before Drain may be dropped.
func TestDrainUnderLoad(t *testing.T) {
	cfg := testConfig()
	cfg.QueueDepth = 4
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	s.Start()

	const clients = 4
	accepted := make([]uint64, clients)
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			a := collect(t, 256, int64(c))
			for {
				select {
				case <-stop:
					return
				default:
				}
				err := s.Submit(context.Background(), Batch{Tenant: fmt.Sprintf("t%d", c), Accesses: a})
				if err == ErrClosed {
					return
				}
				if err != nil {
					t.Error(err)
					return
				}
				accepted[c] += uint64(len(a))
			}
		}(c)
	}
	time.Sleep(30 * time.Millisecond)
	close(stop)
	wg.Wait() // every accepted Submit has returned before the drain count
	if err := s.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
	var want uint64
	for _, n := range accepted {
		want += n
	}
	if got := s.Stats().Accesses; got != want {
		t.Fatalf("processed %d accesses, accepted %d: drain dropped work", got, want)
	}
}

// TestTraceSinkRecordsSampledAccesses drives a server with an every-Nth
// trace sink and checks the JSONL stream: the sampled cadence, and per
// event a consistent tenant/class/shard and a non-negative queue wait.
func TestTraceSinkRecordsSampledAccesses(t *testing.T) {
	var sb strings.Builder
	cfg := testConfig()
	cfg.Shards = 1
	cfg.Trace = telemetry.NewJSONL(&sb)
	cfg.TraceEvery = 10
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	s.Start()
	reply := make(chan Result, 1)
	accesses := collect(t, 1000, 1)
	for i := 0; i < len(accesses); i += 100 {
		if err := s.Submit(context.Background(), Batch{Tenant: "gold-7", Accesses: accesses[i : i+100], Reply: reply}); err != nil {
			t.Fatal(err)
		}
		<-reply
	}
	if err := s.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
	if err := cfg.Trace.Err(); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(sb.String()), "\n")
	if want := len(accesses) / cfg.TraceEvery; len(lines) != want {
		t.Fatalf("trace events = %d, want %d (every %dth of %d)", len(lines), want, cfg.TraceEvery, len(accesses))
	}
	for _, l := range lines {
		var ev TraceEvent
		if err := json.Unmarshal([]byte(l), &ev); err != nil {
			t.Fatalf("bad trace line %q: %v", l, err)
		}
		if ev.Tenant != "gold-7" || ev.Class != "gold" || ev.Shard != 0 {
			t.Fatalf("trace event = %+v", ev)
		}
		if ev.QueueNS < 0 {
			t.Fatalf("negative queue wait: %+v", ev)
		}
		if ev.Hit && !ev.Triggered {
			t.Fatalf("hit without trigger: %+v", ev)
		}
	}
}

// TestClassCountersMatchResults pins the per-tenant-class accounting
// against the batch results: triggered = hits+misses, covered = hits,
// and issued = the number of prefetched lines, summed per class.
func TestClassCountersMatchResults(t *testing.T) {
	cfg := testConfig()
	cfg.Metrics = telemetry.New()
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	s.Start()
	reply := make(chan Result, 1)
	want := map[string]*Result{"gold": {}, "bronze": {}}
	for i, tn := range []string{"gold-1", "bronze-1", "gold-2", "gold-1", "bronze-1"} {
		if err := s.Submit(context.Background(), Batch{Tenant: tn, Accesses: collect(t, 1500, int64(i)), Reply: reply}); err != nil {
			t.Fatal(err)
		}
		r := <-reply
		agg := want[DefaultTenantClass(tn)]
		agg.Hits += r.Hits
		agg.Misses += r.Misses
		agg.Prefetched = append(agg.Prefetched, r.Prefetched...)
	}
	if err := s.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
	counters := make(map[string]int64)
	for _, m := range cfg.Metrics.Snapshot() {
		if m.Kind == "counter" && m.Value != nil {
			counters[m.Name] = *m.Value
		}
	}
	for class, agg := range want {
		p := "serve.tenant." + class + "."
		if got := counters[p+"triggered"]; got != int64(agg.Hits+agg.Misses) {
			t.Errorf("%striggered = %d, want %d", p, got, agg.Hits+agg.Misses)
		}
		if got := counters[p+"covered"]; got != int64(agg.Hits) {
			t.Errorf("%scovered = %d, want %d", p, got, agg.Hits)
		}
		if got := counters[p+"issued"]; got != int64(len(agg.Prefetched)) {
			t.Errorf("%sissued = %d, want %d", p, got, len(agg.Prefetched))
		}
		if used := counters[p+"used"]; used < 0 || used > counters[p+"issued"] {
			t.Errorf("%sused = %d outside [0, issued=%d]", p, used, counters[p+"issued"])
		}
	}
}

func TestDefaultTenantClass(t *testing.T) {
	cases := map[string]string{
		"gold-17":  "gold",
		"gold-1-2": "gold-1",
		"solo":     "solo",
		"":         "unknown",
		"-x":       "-x",
	}
	for in, want := range cases {
		if got := DefaultTenantClass(in); got != want {
			t.Errorf("DefaultTenantClass(%q) = %q, want %q", in, got, want)
		}
	}
}

// TestHealthLifecycle walks the health report through the server's
// lifecycle: not OK before Start (shards not alive), OK under load, not
// OK (closed) after Drain.
func TestHealthLifecycle(t *testing.T) {
	cfg := testConfig()
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if h := s.Health(); h.OK {
		t.Fatalf("unstarted server reports OK: %+v", h)
	}
	s.Start()
	reply := make(chan Result, 1)
	if err := s.Submit(context.Background(), Batch{Tenant: "t", Accesses: collect(t, 500, 1), Reply: reply}); err != nil {
		t.Fatal(err)
	}
	<-reply
	h := s.Health()
	if !h.OK || h.Closed {
		t.Fatalf("running server health = %+v", h)
	}
	var hwm int
	for _, sh := range h.Shards {
		if !sh.Alive {
			t.Fatalf("shard %d not alive: %+v", sh.Shard, sh)
		}
		if sh.QueueCap != cfg.QueueDepth {
			t.Fatalf("queue cap = %d, want %d", sh.QueueCap, cfg.QueueDepth)
		}
		hwm += sh.QueueHWM
	}
	if hwm < 1 {
		t.Fatalf("no shard recorded a queue high-water mark: %+v", h.Shards)
	}
	if err := s.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
	h = s.Health()
	if h.OK || !h.Closed {
		t.Fatalf("drained server health = %+v", h)
	}
	for _, sh := range h.Shards {
		if sh.Alive {
			t.Fatalf("shard %d alive after drain", sh.Shard)
		}
	}
}

// TestBatchHistogramQuantiles checks that the per-shard latency
// histograms populate and that a merged snapshot yields sane quantiles:
// p50 <= p99 and every estimate within the observed value range.
func TestBatchHistogramQuantiles(t *testing.T) {
	cfg := testConfig()
	cfg.Metrics = telemetry.New()
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	s.Start()
	reply := make(chan Result, 1)
	accesses := collect(t, 20_000, 1)
	for i := 0; i < len(accesses); i += 500 {
		if err := s.Submit(context.Background(), Batch{Tenant: fmt.Sprintf("t-%d", i%7), Accesses: accesses[i : i+500], Reply: reply}); err != nil {
			t.Fatal(err)
		}
		<-reply
	}
	if err := s.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
	var merged telemetry.HistogramStats
	for _, m := range cfg.Metrics.Snapshot() {
		if m.Kind == "histogram" && strings.HasSuffix(m.Name, ".batch_ns") {
			merged = merged.Merge(*m.Histogram)
		}
	}
	if merged.Count != int64(len(accesses)/500) {
		t.Fatalf("batch_ns observations = %d, want %d", merged.Count, len(accesses)/500)
	}
	p50, p99 := merged.Quantile(0.5), merged.Quantile(0.99)
	if p50 <= 0 || p99 < p50 {
		t.Fatalf("quantiles p50=%d p99=%d", p50, p99)
	}
}

// TestSaturatedHighWatermark pins the satellite fix to Health: an
// ungoverned shard reports Saturated at the HighWatermark fraction of
// its queue, not only at the exact moment the queue is full — so
// /healthz degrades before the first ErrBusy, while there is still
// headroom to react.
func TestSaturatedHighWatermark(t *testing.T) {
	cfg := testConfig()
	cfg.Shards = 1
	cfg.QueueDepth = 4
	cfg.HighWatermark = 0.5
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	accesses := collect(t, 16, 1)
	if s.Health().Shards[0].Saturated {
		t.Fatal("empty queue reports saturated")
	}
	if err := s.TrySubmit(Batch{Tenant: "t", Accesses: accesses}); err != nil {
		t.Fatal(err)
	}
	if s.Health().Shards[0].Saturated {
		t.Fatal("1/4 queued reports saturated below the 0.5 watermark")
	}
	if err := s.TrySubmit(Batch{Tenant: "t", Accesses: accesses}); err != nil {
		t.Fatal(err)
	}
	sh := s.Health().Shards[0]
	if !sh.Saturated {
		t.Fatalf("2/4 queued not saturated at the 0.5 watermark: %+v", sh)
	}
	if sh.QueueLen != 2 || sh.QueueCap != 4 {
		t.Fatalf("occupancy = %d/%d, want 2/4 (saturated well before full)", sh.QueueLen, sh.QueueCap)
	}
	s.Start()
	if err := s.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
}
