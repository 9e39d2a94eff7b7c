package telemetry

import (
	"regexp"
	"strconv"
	"strings"
	"testing"
	"time"
)

func TestPromNameMapping(t *testing.T) {
	cases := []struct {
		in, name, labels string
	}{
		{"engine.jobs", "engine_jobs", ""},
		{"serve.shard0.queue_depth", "serve_queue_depth", `{shard="0"}`},
		{"serve.shard12.batch_ns", "serve_batch_ns", `{shard="12"}`},
		{"serve.tenant.gold.used", "serve_tenant_used", `{class="gold"}`},
		{"dram.read-hits.count", "dram_read_hits_count", ""},
		{"serve.tenant", "serve_tenant", ""}, // trailing "tenant" is a metric, not a class marker
	}
	for _, c := range cases {
		name, labels := promName(c.in)
		if name != c.name || labels != c.labels {
			t.Errorf("promName(%q) = %q %q, want %q %q", c.in, name, labels, c.name, c.labels)
		}
	}
}

// TestWritePromExposition renders a mixed registry and checks the text
// exposition: one TYPE header per mapped name, per-shard series merged
// under it, and histograms in cumulative _bucket/_sum/_count form with a
// final le="+Inf" equal to _count.
func TestWritePromExposition(t *testing.T) {
	r := New()
	r.Counter("serve.shard0.accesses").Add(100)
	r.Counter("serve.shard1.accesses").Add(50)
	r.Gauge("serve.shard0.queue_depth").Set(3)
	r.Histogram("serve.shard0.batch").Observe(2 * time.Millisecond)
	h := r.Histogram("serve.shard0.batch_ns")
	h.ObserveValue(10)
	h.ObserveValue(1000)
	h.ObserveValue(1000)
	r.Counter("serve.tenant.gold.used").Add(7)

	var sb strings.Builder
	if err := r.WriteProm(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()

	if n := strings.Count(out, "# TYPE serve_accesses counter"); n != 1 {
		t.Fatalf("serve_accesses TYPE header count = %d, want 1 (shards must group)\n%s", n, out)
	}
	for _, want := range []string{
		`serve_accesses{shard="0"} 100`,
		`serve_accesses{shard="1"} 50`,
		`# TYPE serve_queue_depth gauge`,
		`serve_queue_depth{shard="0"} 3`,
		`# TYPE serve_batch histogram`,
		`serve_batch_count{shard="0"} 1`,
		`# TYPE serve_batch_ns histogram`,
		`# TYPE serve_tenant_used counter`,
		`serve_tenant_used{class="gold"} 7`,
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("exposition missing %q:\n%s", want, out)
		}
	}

	// Histogram series: cumulative, ascending le, +Inf == _count.
	bucketRe := regexp.MustCompile(`serve_batch_ns_bucket\{shard="0",le="([^"]+)"\} (\d+)`)
	matches := bucketRe.FindAllStringSubmatch(out, -1)
	if len(matches) < 3 {
		t.Fatalf("expected at least 3 bucket samples, got %d:\n%s", len(matches), out)
	}
	var prevLe, prevCum int64 = -1, -1
	var inf int64
	for _, m := range matches {
		cum, _ := strconv.ParseInt(m[2], 10, 64)
		if cum < prevCum {
			t.Fatalf("bucket counts not cumulative: %v", matches)
		}
		prevCum = cum
		if m[1] == "+Inf" {
			inf = cum
			continue
		}
		le, err := strconv.ParseInt(m[1], 10, 64)
		if err != nil {
			t.Fatalf("unparsable le %q", m[1])
		}
		if le <= prevLe {
			t.Fatalf("le bounds not ascending: %v", matches)
		}
		prevLe = le
	}
	if inf != 3 {
		t.Fatalf("+Inf bucket = %d, want 3", inf)
	}
	if !strings.Contains(out, `serve_batch_ns_count{shard="0"} 3`) {
		t.Fatalf("_count != +Inf bucket:\n%s", out)
	}
	if !strings.Contains(out, `serve_batch_ns_sum{shard="0"} 2010`) {
		t.Fatalf("_sum wrong:\n%s", out)
	}

	// A nil registry writes nothing and does not error.
	var nilReg *Registry
	var empty strings.Builder
	if err := nilReg.WriteProm(&empty); err != nil || empty.Len() != 0 {
		t.Fatalf("nil registry: err=%v out=%q", err, empty.String())
	}
}
