package experiments

import (
	"context"
	"slices"
	"strings"
	"testing"

	"domino/internal/mem"
	"domino/internal/prefetch"
	"domino/internal/trace"
	"domino/internal/workload"
)

// tinyOptions keep experiment tests fast while still exercising every code
// path end to end.
func tinyOptions() Options {
	return Options{
		Accesses:  60_000,
		Warmup:    20_000,
		Scale:     128,
		Workloads: []string{"OLTP", "MapReduce-W"},
	}
}

func TestBuildKnownPrefetchers(t *testing.T) {
	for _, name := range append(PrefetcherNames, "none", "stride", "markov", "ghb", "vldp+domino") {
		p := Build(name, 4, nil, 16)
		if p == nil {
			t.Fatalf("Build(%q) = nil", name)
		}
		if name != "vldp+domino" && p.Name() != name {
			t.Fatalf("Build(%q).Name() = %q", name, p.Name())
		}
	}
}

func TestBuildPanicsOnUnknown(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	Build("nope", 1, nil, 1)
}

func TestGrid(t *testing.T) {
	g := &Grid{Title: "t", Unit: "%"}
	g.Add("w1", "a", 0.5)
	g.Add("w1", "b", 0.25)
	g.Add("w2", "a", 0.1)
	if g.Value("w1", "a") != 0.5 || g.Value("w2", "b") != 0 {
		t.Fatal("Value")
	}
	if len(g.Series()) != 2 || len(g.Workloads()) != 2 {
		t.Fatal("Series/Workloads")
	}
	if g.Mean("a") != 0.3 {
		t.Fatalf("Mean = %v", g.Mean("a"))
	}
	s := g.String()
	if !strings.Contains(s, "w1") || !strings.Contains(s, "50.0%") {
		t.Fatalf("String = %q", s)
	}
	g.SortCells()
	if g.Cells[0].Workload != "w1" || g.Cells[0].Series != "a" {
		t.Fatal("SortCells")
	}
}

func TestGridLookupDistinguishesMissingCells(t *testing.T) {
	g := &Grid{Title: "t", Unit: "%"}
	g.Add("w1", "a", 0.0) // a measured zero
	g.Add("w1", "b", 0.5)
	g.Add("w2", "b", 0.25)
	if v, ok := g.Lookup("w1", "a"); !ok || v != 0 {
		t.Fatalf("Lookup(w1,a) = %v,%v — a measured zero must report ok", v, ok)
	}
	if _, ok := g.Lookup("w2", "a"); ok {
		t.Fatal("Lookup(w2,a) reported a cell that was never measured")
	}
	// A missing cell renders as "-", not as a fake 0.0.
	row := g.cellString("w2", "a")
	if !strings.Contains(row, "-") || strings.Contains(row, "0.0") {
		t.Fatalf("missing cell rendered %q", row)
	}
	if g.cellString("w1", "a") == g.cellString("w2", "a") {
		t.Fatal("measured zero and missing cell render identically")
	}
	// Mean skips missing cells instead of averaging them in as zeroes.
	if got := g.Mean("b"); got != 0.375 {
		t.Fatalf("Mean(b) = %v, want 0.375 over the two present cells", got)
	}
	// The index survives SortCells.
	g.SortCells()
	if v, ok := g.Lookup("w2", "b"); !ok || v != 0.25 {
		t.Fatalf("Lookup after SortCells = %v,%v", v, ok)
	}
	// Lookup works on grids whose Cells were written directly (no index).
	direct := &Grid{Cells: []Cell{{Workload: "w", Series: "s", Value: 1}}}
	if v, ok := direct.Lookup("w", "s"); !ok || v != 1 {
		t.Fatalf("Lookup on direct-built grid = %v,%v", v, ok)
	}
}

func TestComparisonEndToEnd(t *testing.T) {
	r := Comparison(context.Background(), tinyOptions(), 1, true)
	if len(r.Coverage.Workloads()) != 2 {
		t.Fatal("missing workloads")
	}
	for _, w := range r.Coverage.Workloads() {
		seqv := r.Coverage.Value(w, "sequitur")
		if seqv <= 0 || seqv > 1 {
			t.Fatalf("sequitur coverage %v out of range", seqv)
		}
		for _, s := range PrefetcherNames {
			v := r.Coverage.Value(w, s)
			if v < 0 || v > 1 {
				t.Fatalf("%s/%s coverage %v out of range", w, s, v)
			}
		}
		// No prefetcher may beat the oracle... VLDP may, since the
		// oracle only counts temporal opportunity; temporal
		// prefetchers must not.
		for _, s := range []string{"stms", "digram", "domino"} {
			if r.Coverage.Value(w, s) > seqv+0.02 {
				t.Fatalf("%s beats the temporal oracle on %s", s, w)
			}
		}
	}
}

func TestLookupAnalyses(t *testing.T) {
	lines := []mem.Line{1, 2, 3, 4, 1, 2, 3, 4, 1, 2, 9, 4}
	depths := AnalyzeLookupDepths(lines, 3)
	if len(depths) != 3 {
		t.Fatal("depth count")
	}
	// Match rate must be non-increasing with depth (Fig. 4's shape).
	for i := 1; i < len(depths); i++ {
		if depths[i].MatchRate() > depths[i-1].MatchRate()+1e-9 {
			t.Fatalf("match rate increased with depth: %+v", depths)
		}
	}
	vary := AnalyzeVaryLookup(lines, 3)
	for _, v := range vary {
		if v.Coverage < 0 || v.Coverage > 1 || v.Overpredictions < 0 {
			t.Fatalf("vary stats out of range: %+v", v)
		}
	}
}

func TestLookupDepthAccuracyImproves(t *testing.T) {
	// Aliased streams: (1,2,3) and (9,2,7) share symbol 2; depth-1
	// lookups at 2 mispredict half the time, depth-2 lookups are exact.
	var lines []mem.Line
	for i := 0; i < 50; i++ {
		lines = append(lines, 1, 2, 3)
		lines = append(lines, 9, 2, 7)
	}
	depths := AnalyzeLookupDepths(lines, 2)
	if depths[1].Accuracy() <= depths[0].Accuracy() {
		t.Fatalf("two-address accuracy %v not above one-address %v",
			depths[1].Accuracy(), depths[0].Accuracy())
	}
}

func TestNgramKeyDistinguishes(t *testing.T) {
	a := []mem.Line{1, 2, 3}
	b := []mem.Line{1, 2, 4}
	if ngramKey(a, 2, 2) == ngramKey(b, 2, 2) {
		t.Fatal("key collision on different digrams")
	}
	if ngramKey(a, 1, 1) == ngramKey(a, 1, 2) {
		t.Fatal("key collision across depths")
	}
}

func TestOpportunityEndToEnd(t *testing.T) {
	r := Opportunity(context.Background(), tinyOptions())
	for _, w := range r.Coverage.Workloads() {
		if r.Coverage.Value(w, "sequitur") <= 0 {
			t.Fatalf("no opportunity measured for %s", w)
		}
		if r.StreamLength.Value(w, "sequitur") < 2 {
			t.Fatalf("oracle stream length < 2 for %s", w)
		}
	}
	if !strings.Contains(r.HistogramTable(), "Fig. 12") {
		t.Fatal("histogram table")
	}
}

func TestBandwidthEndToEnd(t *testing.T) {
	r := Bandwidth(context.Background(), tinyOptions(), 4)
	for _, p := range []string{"stms", "digram", "domino"} {
		tot := r.Overhead.Value(p, "total")
		if tot <= 0 {
			t.Fatalf("%s total overhead %v", p, tot)
		}
	}
	// Digram must have less wrong-prefetch traffic than STMS (Fig. 15).
	if r.Overhead.Value("digram", "wrong-prefetch") >= r.Overhead.Value("stms", "wrong-prefetch") {
		t.Fatal("digram wrong-prefetch traffic not below STMS")
	}
}

func TestSpatioTemporalEndToEnd(t *testing.T) {
	r := SpatioTemporal(context.Background(), tinyOptions(), 1)
	for _, w := range r.Coverage.Workloads() {
		combined := r.Coverage.Value(w, "vldp+domino")
		if combined <= 0 {
			t.Fatalf("no combined coverage on %s", w)
		}
	}
}

func TestSensitivityMonotoneInScale(t *testing.T) {
	o := tinyOptions()
	o.Workloads = []string{"OLTP"}
	r := Sensitivity(context.Background(), o)
	series := r.HT.Series()
	if len(series) != 5 {
		t.Fatalf("HT sweep series = %v", series)
	}
	// Coverage at the largest HT must be at least that of the smallest.
	lo := r.HT.Value("OLTP", series[0])
	hi := r.HT.Value("OLTP", series[len(series)-1])
	if hi+0.02 < lo {
		t.Fatalf("coverage decreased with HT size: %v -> %v", lo, hi)
	}
}

func TestSpeedupEndToEnd(t *testing.T) {
	o := tinyOptions()
	o.Workloads = []string{"OLTP"}
	r := Speedup(context.Background(), o, 4)
	for _, p := range PrefetcherNames {
		sp := r.Speedup.Value("OLTP", p)
		if sp < 0.5 || sp > 10 {
			t.Fatalf("%s speedup %v implausible", p, sp)
		}
		if r.GMean[p] == 0 {
			t.Fatalf("no GMean for %s", p)
		}
	}
	if r.BaselineIPC["OLTP"] <= 0 || r.BaselineIPC["OLTP"] > 4 {
		t.Fatalf("baseline IPC %v", r.BaselineIPC["OLTP"])
	}
}

func TestTables(t *testing.T) {
	t1 := TableI()
	if !strings.Contains(t1, "4 cores") || !strings.Contains(t1, "37.5 GB/s") {
		t.Fatalf("Table I = %q", t1)
	}
	t2 := TableII()
	if !strings.Contains(t2, "OLTP") || !strings.Contains(t2, "Web Zeus") {
		t.Fatalf("Table II missing workloads")
	}
}

func TestCSVAndBars(t *testing.T) {
	g := &Grid{Title: "t", Unit: "%"}
	g.Add("w,1", "a", 0.5)
	g.Add("w,1", "b", 0.25)
	csv := g.CSV()
	if !strings.Contains(csv, `"w,1"`) || !strings.Contains(csv, "0.500000") {
		t.Fatalf("CSV = %q", csv)
	}
	if !strings.HasPrefix(csv, "workload,a,b\n") {
		t.Fatalf("CSV header = %q", csv)
	}
	bars := g.Bars(10)
	if !strings.Contains(bars, "##########") { // max value fills the width
		t.Fatalf("Bars = %q", bars)
	}
	if !strings.Contains(bars, "#####") {
		t.Fatalf("Bars missing half bar: %q", bars)
	}
}

func TestSpeedupCI(t *testing.T) {
	o := tinyOptions()
	r := SpeedupCI(o, "OLTP", "domino", 4, 3)
	if len(r.Samples) != 3 {
		t.Fatalf("samples = %d", len(r.Samples))
	}
	if r.Mean < 0.8 || r.Mean > 5 {
		t.Fatalf("mean speedup %v implausible", r.Mean)
	}
	if r.CI95 < 0 {
		t.Fatal("negative CI")
	}
	if r.String() == "" {
		t.Fatal("empty String")
	}
}

// TestShapeRegression pins the paper's headline orderings at a moderate
// scale, so a future calibration change that silently breaks a figure's
// shape fails the suite. Skipped under -short.
func TestShapeRegression(t *testing.T) {
	if testing.Short() {
		t.Skip("shape regression needs a moderate-size run")
	}
	o := Options{Accesses: 400_000, Warmup: 200_000, Scale: 32,
		Workloads: []string{"OLTP", "Web Search"}}
	r := Comparison(context.Background(), o, 1, true)
	for _, w := range o.Workloads {
		domino := r.Coverage.Value(w, "domino")
		stms := r.Coverage.Value(w, "stms")
		isb := r.Coverage.Value(w, "isb")
		oracle := r.Coverage.Value(w, "sequitur")
		if domino <= stms {
			t.Errorf("%s: Domino %.3f not above STMS %.3f", w, domino, stms)
		}
		if stms <= isb {
			t.Errorf("%s: STMS %.3f not above ISB %.3f", w, stms, isb)
		}
		if oracle <= domino {
			t.Errorf("%s: oracle %.3f not above Domino %.3f", w, oracle, domino)
		}
	}
	// Degree 4: STMS's overpredictions must dwarf Domino's (Fig. 13).
	r4 := Comparison(context.Background(), o, 4, false)
	for _, w := range o.Workloads {
		if r4.Overpredictions.Value(w, "stms") < 1.5*r4.Overpredictions.Value(w, "domino") {
			t.Errorf("%s: STMS overpredictions not well above Domino's", w)
		}
	}
}

func TestAblations(t *testing.T) {
	o := tinyOptions()
	o.Workloads = []string{"OLTP"}
	r := Ablations(context.Background(), o, 4)
	if len(r.Coverage.Series()) != len(AblationVariants()) {
		t.Fatalf("series = %v", r.Coverage.Series())
	}
	base := r.Coverage.Value("OLTP", "baseline")
	if base <= 0 {
		t.Fatal("baseline covered nothing")
	}
	// Always-update must not be worse than sampled (it strictly adds
	// index freshness).
	if r.Coverage.Value("OLTP", "always-update")+0.02 < base {
		t.Fatal("always-update below baseline")
	}
	// Removing the first prefetch must not help.
	if r.Coverage.Value("OLTP", "no-first-pf") > base+0.02 {
		t.Fatal("removing the first prefetch helped?!")
	}
}

func TestDegreeSweep(t *testing.T) {
	o := tinyOptions()
	o.Workloads = []string{"OLTP"}
	r := DegreeSweep(context.Background(), o, []string{"domino"}, []int{1, 4})
	c1 := r.Coverage.Value("OLTP", "domino@1")
	c4 := r.Coverage.Value("OLTP", "domino@4")
	if c1 <= 0 || c4 <= 0 {
		t.Fatalf("sweep empty: %v %v", c1, c4)
	}
	// Higher degree must not reduce coverage.
	if c4+0.02 < c1 {
		t.Fatalf("coverage fell with degree: %v -> %v", c1, c4)
	}
	// Overpredictions grow with degree.
	if r.Overpredictions.Value("OLTP", "domino@4") < r.Overpredictions.Value("OLTP", "domino@1") {
		t.Fatal("overpredictions shrank with degree")
	}
}

// twinCheck wraps the vldp+domino stack as the evaluator's prefetcher and
// feeds every event, routed the way Stack routes it, to standalone twins
// of both components as well. The twins' candidates are copied out before
// the next Trigger, so they are what the stack must produce if it honours
// the Trigger contract (a result is valid only until the next Trigger on
// the same prefetcher) — in particular, if it never writes into or
// retains a component's reused result slice.
type twinCheck struct {
	t                 *testing.T
	stack             prefetch.Prefetcher
	vldp, domino      prefetch.Prefetcher
	events, triggered int
}

func (c *twinCheck) Name() string { return c.stack.Name() }

func (c *twinCheck) Trigger(ev prefetch.Event) []prefetch.Candidate {
	got := c.stack.Trigger(ev)
	var want []prefetch.Candidate
	copyTagged := func(p prefetch.Prefetcher) {
		for _, cand := range p.Trigger(ev) {
			cand.Tag = p.Name()
			want = append(want, cand)
		}
	}
	switch {
	case ev.Kind == mem.EventMiss:
		copyTagged(c.vldp)
		copyTagged(c.domino)
	case ev.Tag == c.vldp.Name():
		copyTagged(c.vldp)
	default:
		copyTagged(c.domino)
	}
	if !slices.Equal(got, want) {
		c.t.Fatalf("event %d %+v: stack candidates %+v, twins %+v", c.events, ev, got, want)
	}
	c.events++
	if len(got) > 0 {
		c.triggered++
	}
	return got
}

func TestStackMatchesCopiedTwins(t *testing.T) {
	const scale = 64
	c := &twinCheck{
		t:      t,
		stack:  Build("vldp+domino", 4, nil, scale),
		vldp:   Build("vldp", 4, nil, scale),
		domino: Build("domino", 4, nil, scale),
	}
	tr := trace.Limit(workload.New(workload.ByName("OLTP")), 200_000)
	res := prefetch.Run(tr, c, prefetch.DefaultEvalConfig())
	if c.triggered == 0 || res.Covered == 0 {
		t.Fatalf("stack never prefetched usefully (%d events, %d with candidates, %d covered)",
			c.events, c.triggered, res.Covered)
	}
}
