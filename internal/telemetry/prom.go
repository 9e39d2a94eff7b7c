package telemetry

import (
	"fmt"
	"io"
	"strings"
)

// Prometheus text exposition for the registry.
//
// Registry names are dotted paths ("serve.shard0.queue_depth",
// "serve.tenant.gold.used"). WriteProm maps them onto Prometheus series:
// a "shard<N>" segment becomes a {shard="N"} label, a "tenant.<class>"
// segment pair becomes a {class="<class>"} label (the "tenant" segment
// stays in the metric name), and the remaining segments join with
// underscores. Series sharing a mapped name are grouped under one # TYPE
// header, as the exposition format requires.
//
// Counters and gauges render as single samples; histograms render in
// native Prometheus histogram form — cumulative <name>_bucket{le="..."}
// samples over the fixed log-scale bucket bounds (only non-empty buckets
// are emitted, plus the mandatory le="+Inf"), then _sum and _count.

// promSeries is one registry metric mapped onto exposition naming.
type promSeries struct {
	name   string // mapped metric name, underscores only
	labels string // rendered label block, "" or `{k="v",...}`
	m      Metric
}

// promName splits a registry name into the exposition name and labels.
func promName(name string) (string, string) {
	segs := strings.Split(name, ".")
	var parts []string
	var labels []string
	for i := 0; i < len(segs); i++ {
		s := segs[i]
		if rest, ok := strings.CutPrefix(s, "shard"); ok && rest != "" && isDigits(rest) {
			labels = append(labels, fmt.Sprintf("shard=%q", rest))
			continue
		}
		if s == "tenant" && i+1 < len(segs)-1 {
			// "serve.tenant.<class>.used": the class segment is data, not
			// name. (The final segment is always the metric, so a literal
			// metric named "tenant" is left alone.)
			labels = append(labels, fmt.Sprintf("class=%q", segs[i+1]))
			parts = append(parts, "tenant")
			i++
			continue
		}
		parts = append(parts, sanitizeProm(s))
	}
	lb := ""
	if len(labels) > 0 {
		lb = "{" + strings.Join(labels, ",") + "}"
	}
	return strings.Join(parts, "_"), lb
}

func isDigits(s string) bool {
	for _, r := range s {
		if r < '0' || r > '9' {
			return false
		}
	}
	return s != ""
}

// sanitizeProm rewrites a name segment into the [a-zA-Z0-9_] alphabet.
func sanitizeProm(s string) string {
	var b strings.Builder
	for i, r := range s {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r == '_':
			b.WriteRune(r)
		case r >= '0' && r <= '9':
			if i == 0 {
				b.WriteByte('_')
			}
			b.WriteRune(r)
		default:
			b.WriteByte('_')
		}
	}
	return b.String()
}

// promType maps a registry kind onto the exposition TYPE keyword.
func promType(kind string) string {
	switch kind {
	case "counter":
		return "counter"
	case "histogram":
		return "histogram"
	default:
		return "gauge"
	}
}

// WriteProm renders the registry snapshot in Prometheus text exposition
// format (version 0.0.4). A nil registry writes nothing and returns nil.
func (r *Registry) WriteProm(w io.Writer) error {
	snap := r.Snapshot()
	// Group series by mapped name, preserving first-seen registration
	// order for readability and determinism.
	groups := make(map[string][]promSeries)
	var order []string
	for _, m := range snap {
		name, labels := promName(m.Name)
		if _, ok := groups[name]; !ok {
			order = append(order, name)
		}
		groups[name] = append(groups[name], promSeries{name: name, labels: labels, m: m})
	}
	var b strings.Builder
	for _, name := range order {
		series := groups[name]
		// A name shared by different kinds cannot be exposed coherently;
		// the first-registered kind wins and the rest are skipped.
		kind := series[0].m.Kind
		fmt.Fprintf(&b, "# TYPE %s %s\n", name, promType(kind))
		for _, s := range series {
			if s.m.Kind != kind {
				continue
			}
			switch s.m.Kind {
			case "counter", "gauge":
				v := int64(0)
				if s.m.Value != nil {
					v = *s.m.Value
				}
				fmt.Fprintf(&b, "%s%s %d\n", name, s.labels, v)
			case "histogram":
				h := s.m.Histogram
				if h == nil {
					h = &HistogramStats{}
				}
				writePromHistogram(&b, name, s.labels, *h)
			}
		}
	}
	_, err := io.WriteString(w, b.String())
	return err
}

// writePromHistogram renders one histogram snapshot as cumulative
// _bucket samples plus _sum and _count.
func writePromHistogram(b *strings.Builder, name, labels string, h HistogramStats) {
	withLe := func(le string) string {
		if labels == "" {
			return fmt.Sprintf(`{le=%q}`, le)
		}
		return labels[:len(labels)-1] + fmt.Sprintf(`,le=%q}`, le)
	}
	var cum int64
	for _, bk := range h.Buckets {
		cum += bk[1]
		_, hi := BucketRange(int(bk[0]))
		fmt.Fprintf(b, "%s_bucket%s %d\n", name, withLe(fmt.Sprintf("%d", hi)), cum)
	}
	fmt.Fprintf(b, "%s_bucket%s %d\n", name, withLe("+Inf"), cum)
	fmt.Fprintf(b, "%s_sum%s %d\n", name, labels, h.Sum)
	// _count must equal the +Inf bucket for a conformant exposition.
	fmt.Fprintf(b, "%s_count%s %d\n", name, labels, cum)
}
