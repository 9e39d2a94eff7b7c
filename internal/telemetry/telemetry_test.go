package telemetry

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestNilMetricsAreNoOps(t *testing.T) {
	// The disabled path: nil metrics absorb every operation. Any panic
	// here breaks the "instrument unconditionally" contract.
	var c *Counter
	c.Add(3)
	c.Inc()
	if c.Value() != 0 {
		t.Fatal("nil counter has a value")
	}
	var g *Gauge
	g.Set(7)
	if g.Value() != 0 {
		t.Fatal("nil gauge has a value")
	}
	var h *Histogram
	h.Observe(time.Second)
	h.Start()()
	if h.Count() != 0 {
		t.Fatal("nil histogram has observations")
	}
	var r *Registry
	r.Counter("x").Inc()
	r.Gauge("y").Set(1)
	r.Gauge("y").Add(1)
	r.Histogram("z").Observe(1)
	if r.Snapshot() != nil {
		t.Fatal("nil registry has a snapshot")
	}
	var sb strings.Builder
	if err := r.WriteJSON(&sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), `"metrics": []`) {
		t.Fatalf("nil registry JSON = %q", sb.String())
	}
}

func TestCounterConcurrent(t *testing.T) {
	c := &Counter{}
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 1000; j++ {
				c.Inc()
			}
		}()
	}
	wg.Wait()
	if c.Value() != 8000 {
		t.Fatalf("Value = %d, want 8000", c.Value())
	}
}

func TestGaugeAddConcurrent(t *testing.T) {
	g := &Gauge{}
	g.Set(100)
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			delta := int64(1)
			if i%2 == 1 {
				delta = -1
			}
			for j := 0; j < 1000; j++ {
				g.Add(delta)
			}
		}(i)
	}
	wg.Wait()
	if g.Value() != 100 {
		t.Fatalf("Value = %d, want 100 (adds must balance)", g.Value())
	}
}

func TestRegistrySnapshotOrderAndIdentity(t *testing.T) {
	r := New()
	r.Counter("b.jobs").Add(2)
	r.Gauge("a.workers").Set(8)
	r.Histogram("c.time").Observe(time.Millisecond)
	// Same name returns the same metric, not a fresh one.
	r.Counter("b.jobs").Add(3)

	snap := r.Snapshot()
	names := make([]string, len(snap))
	for i, m := range snap {
		names[i] = m.Name
	}
	// Registration order, not sorted.
	want := []string{"b.jobs", "a.workers", "c.time"}
	for i := range want {
		if names[i] != want[i] {
			t.Fatalf("snapshot order = %v, want %v", names, want)
		}
	}
	if *snap[0].Value != 5 {
		t.Fatalf("counter value = %d, want 5", *snap[0].Value)
	}
	if snap[2].Histogram == nil || snap[2].Histogram.Count != 1 {
		t.Fatalf("histogram snapshot = %+v", snap[2].Histogram)
	}
}

func TestRegistryKindMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic on kind mismatch")
		}
	}()
	r := New()
	r.Counter("x")
	r.Gauge("x")
}

func TestRegistryWriteJSON(t *testing.T) {
	r := New()
	r.Counter("jobs").Add(45)
	r.Gauge("zero") // a measured zero must survive serialisation
	var sb strings.Builder
	if err := r.WriteJSON(&sb); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Metrics []struct {
			Name  string `json:"name"`
			Kind  string `json:"kind"`
			Value *int64 `json:"value"`
		} `json:"metrics"`
	}
	if err := json.Unmarshal([]byte(sb.String()), &doc); err != nil {
		t.Fatalf("invalid JSON: %v\n%s", err, sb.String())
	}
	if len(doc.Metrics) != 2 || doc.Metrics[0].Name != "jobs" || *doc.Metrics[0].Value != 45 {
		t.Fatalf("doc = %+v", doc)
	}
	if doc.Metrics[1].Value == nil || *doc.Metrics[1].Value != 0 {
		t.Fatalf("gauge zero dropped: %+v", doc.Metrics[1])
	}
}

func TestJSONL(t *testing.T) {
	var sb strings.Builder
	j := NewJSONL(&sb)
	j.Emit(map[string]int{"a": 1})
	j.Emit(map[string]int{"b": 2})
	if j.Count() != 2 || j.Err() != nil {
		t.Fatalf("count=%d err=%v", j.Count(), j.Err())
	}
	lines := strings.Split(strings.TrimSpace(sb.String()), "\n")
	if len(lines) != 2 {
		t.Fatalf("lines = %q", lines)
	}
	for _, l := range lines {
		var v map[string]int
		if err := json.Unmarshal([]byte(l), &v); err != nil {
			t.Fatalf("line %q: %v", l, err)
		}
	}
}

type failWriter struct{}

func (failWriter) Write([]byte) (int, error) { return 0, errWrite }

var errWrite = &writeErr{}

type writeErr struct{}

func (*writeErr) Error() string { return "write failed" }

func TestJSONLStickyError(t *testing.T) {
	j := NewJSONL(failWriter{})
	j.Emit(1)
	j.Emit(2)
	if j.Err() == nil {
		t.Fatal("error not surfaced")
	}
	if j.Count() != 0 {
		t.Fatalf("count = %d after failed writes", j.Count())
	}
}

// BenchmarkCounterDisabled measures the no-op sink: the whole point of
// nil-receiver metrics is that disabled telemetry costs one branch.
func BenchmarkCounterDisabled(b *testing.B) {
	var c *Counter
	for i := 0; i < b.N; i++ {
		c.Inc()
	}
}

func BenchmarkCounterEnabled(b *testing.B) {
	c := &Counter{}
	for i := 0; i < b.N; i++ {
		c.Inc()
	}
}

func TestRegistryHistogram(t *testing.T) {
	r := New()
	h := r.Histogram("lat")
	h.Observe(3 * time.Millisecond)
	r.Histogram("lat").Observe(5 * time.Millisecond)
	snap := r.Snapshot()
	if len(snap) != 1 || snap[0].Kind != "histogram" || snap[0].Histogram == nil {
		t.Fatalf("snapshot = %+v", snap)
	}
	if snap[0].Histogram.Count != 2 {
		t.Fatalf("histogram count = %d, want 2", snap[0].Histogram.Count)
	}
	var sb strings.Builder
	if err := r.WriteJSON(&sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), `"histogram"`) || !strings.Contains(sb.String(), `"buckets"`) {
		t.Fatalf("JSON dump missing histogram payload:\n%s", sb.String())
	}
	var nilReg *Registry
	nilReg.Histogram("x").Observe(time.Second) // must not panic
}

func TestRegistryWriteFileAtomic(t *testing.T) {
	r := New()
	r.Counter("jobs").Add(3)
	path := filepath.Join(t.TempDir(), "m.json")
	if err := r.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), `"jobs"`) {
		t.Fatalf("dump = %s", data)
	}
	// Overwrite in place: the rename replaces the old document.
	r.Counter("jobs").Add(1)
	if err := r.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	data, _ = os.ReadFile(path)
	if !strings.Contains(string(data), `"value": 4`) {
		t.Fatalf("second dump not updated: %s", data)
	}
	// No temp litter left behind.
	entries, err := os.ReadDir(filepath.Dir(path))
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if strings.HasPrefix(e.Name(), ".metrics-") {
			t.Fatalf("temp file %s left behind", e.Name())
		}
	}
}
