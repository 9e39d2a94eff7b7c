// Package telemetry is the observability layer shared by the experiment
// engine, the evaluation framework, the serving layer and the command
// binaries: a lightweight metrics registry (counters, gauges and
// log-scale histograms for durations and other values, with named,
// ordered snapshots), live per-job progress and wall-time reporting for
// the parallel experiment engine, a JSONL sink for structured event
// traces, and a Prometheus text-exposition renderer for the registry.
//
// Everything in this package is optional and cheap to leave disabled:
// every metric method is safe on a nil receiver and compiles to a single
// branch, so instrumented code holds plain (possibly nil) pointers and
// never checks an "enabled" flag itself. Telemetry output goes to stderr
// or to files chosen by the caller — never to stdout, which the engine
// keeps byte-identical at every parallelism setting.
package telemetry

import (
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing metric. The zero value is ready
// to use; a nil *Counter is a no-op sink.
type Counter struct{ v atomic.Int64 }

// Add increases the counter by n.
func (c *Counter) Add(n int64) {
	if c != nil {
		c.v.Add(n)
	}
}

// Inc increases the counter by one.
func (c *Counter) Inc() { c.Add(1) }

// Value returns the current count (0 for a nil counter).
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is a last-value-wins metric. The zero value is ready to use; a
// nil *Gauge is a no-op sink.
type Gauge struct{ v atomic.Int64 }

// Set records the current value.
func (g *Gauge) Set(n int64) {
	if g != nil {
		g.v.Store(n)
	}
}

// Add moves the gauge by delta. Useful for gauges that track a
// population (connections, quarantined tenants) rather than a sampled
// level.
func (g *Gauge) Add(delta int64) {
	if g != nil {
		g.v.Add(delta)
	}
}

// Value returns the last value set (0 for a nil gauge).
func (g *Gauge) Value() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

// Metric is one named entry of a registry snapshot.
type Metric struct {
	Name string `json:"name"`
	Kind string `json:"kind"` // "counter", "gauge" or "histogram"
	// Value carries counter and gauge readings (pointer so a measured
	// zero survives omitempty).
	Value     *int64          `json:"value,omitempty"`
	Histogram *HistogramStats `json:"histogram,omitempty"`
}

// Registry hands out named metrics and snapshots them in registration
// order. A nil *Registry hands out nil metrics, so code instrumented
// against a registry it may not have runs at no-op cost. Registry is safe
// for concurrent use.
type Registry struct {
	mu      sync.Mutex
	entries []regEntry
	index   map[string]int
}

type regEntry struct {
	name string
	c    *Counter
	g    *Gauge
	h    *Histogram
}

// New returns an empty registry.
func New() *Registry {
	return &Registry{index: make(map[string]int)}
}

// Counter returns the counter registered under name, creating it on
// first use. Requesting a name that is registered as a different metric
// kind panics: two subsystems disagreeing about a name is a programming
// error that silent aliasing would hide.
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	e := r.lookup(name, func() regEntry { return regEntry{name: name, c: &Counter{}} })
	if e.c == nil {
		panic("telemetry: metric " + name + " already registered with a different kind")
	}
	return e.c
}

// Gauge returns the gauge registered under name, creating it on first
// use.
func (r *Registry) Gauge(name string) *Gauge {
	if r == nil {
		return nil
	}
	e := r.lookup(name, func() regEntry { return regEntry{name: name, g: &Gauge{}} })
	if e.g == nil {
		panic("telemetry: metric " + name + " already registered with a different kind")
	}
	return e.g
}

// Histogram returns the histogram registered under name, creating it on
// first use.
func (r *Registry) Histogram(name string) *Histogram {
	if r == nil {
		return nil
	}
	e := r.lookup(name, func() regEntry { return regEntry{name: name, h: &Histogram{}} })
	if e.h == nil {
		panic("telemetry: metric " + name + " already registered with a different kind")
	}
	return e.h
}

func (r *Registry) lookup(name string, create func() regEntry) regEntry {
	r.mu.Lock()
	defer r.mu.Unlock()
	if i, ok := r.index[name]; ok {
		return r.entries[i]
	}
	e := create()
	r.index[name] = len(r.entries)
	r.entries = append(r.entries, e)
	return e
}

// Snapshot returns every metric in registration order.
func (r *Registry) Snapshot() []Metric {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	entries := append([]regEntry(nil), r.entries...)
	r.mu.Unlock()
	out := make([]Metric, 0, len(entries))
	for _, e := range entries {
		m := Metric{Name: e.name}
		switch {
		case e.c != nil:
			m.Kind = "counter"
			v := e.c.Value()
			m.Value = &v
		case e.g != nil:
			m.Kind = "gauge"
			v := e.g.Value()
			m.Value = &v
		case e.h != nil:
			m.Kind = "histogram"
			s := e.h.Stats()
			m.Histogram = &s
		}
		out = append(out, m)
	}
	return out
}

// WriteJSON dumps the registry as an indented JSON document:
//
//	{"metrics": [{"name": ..., "kind": ..., ...}, ...]}
func (r *Registry) WriteJSON(w io.Writer) error {
	snap := r.Snapshot()
	if snap == nil {
		snap = []Metric{}
	}
	doc := struct {
		Metrics []Metric `json:"metrics"`
	}{snap}
	b, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return err
	}
	b = append(b, '\n')
	_, err = w.Write(b)
	return err
}

// WriteFile dumps the registry as JSON to path atomically: the document
// is written to a temp file in the target directory and renamed into
// place, so a crash (or a reader racing a periodic snapshotter) never
// sees a truncated document where a previous complete one was.
func (r *Registry) WriteFile(path string) error {
	f, err := os.CreateTemp(filepath.Dir(path), ".metrics-*")
	if err != nil {
		return err
	}
	defer os.Remove(f.Name()) // no-op after a successful rename
	if err := r.WriteJSON(f); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	return os.Rename(f.Name(), path)
}
