package core

import (
	"testing"

	"domino/internal/dram"
	"domino/internal/mem"
	"domino/internal/prefetch"
	"domino/internal/workload"
)

// testConfig is a small, always-update configuration so unit tests do not
// depend on sampling phase.
func testConfig(degree int) Config {
	cfg := DefaultConfig(degree)
	cfg.SampleOneIn = 1
	cfg.Tables.HTEntries = 1 << 12
	cfg.Tables.EITRows = 1 << 10
	return cfg
}

func miss(l mem.Line) prefetch.Event {
	return prefetch.Event{Line: l, Kind: mem.EventMiss}
}
func hit(l mem.Line) prefetch.Event {
	return prefetch.Event{Line: l, Kind: mem.EventPrefetchHit}
}

// train replays a miss sequence into the prefetcher, discarding candidates.
func train(p *Prefetcher, lines ...mem.Line) {
	for _, l := range lines {
		p.Trigger(miss(l))
	}
}

func lineSet(cs []prefetch.Candidate) map[mem.Line]bool {
	out := map[mem.Line]bool{}
	for _, c := range cs {
		out[c.Line] = true
	}
	return out
}

func TestFirstPrefetchAfterOneLookup(t *testing.T) {
	p := New(testConfig(1), nil)
	// History: ... A B ... — then a repeated A must immediately prefetch
	// B from the EIT's most recent entry, with Delay 1 (one round trip).
	train(p, 'A', 'B', 'C', 'D', 'X', 'Y', 'Z', 'W')
	out := p.Trigger(miss('A'))
	if len(out) != 1 || out[0].Line != 'B' {
		t.Fatalf("candidates = %+v, want the single successor B", out)
	}
	if out[0].Delay != 1 {
		t.Fatalf("Delay = %d, want 1 (paper: first prefetch after one round trip)", out[0].Delay)
	}
}

func TestTwoAddressActivatesStream(t *testing.T) {
	p := New(testConfig(4), nil)
	train(p, 'A', 'B', 'C', 'D', 'E', 'F', 'G', 'H', 'I', 'J', 'K', 'L', 'M', 'N')
	// Re-encounter A: pending super-entry created, B prefetched.
	p.Trigger(miss('A'))
	// B arrives (as a prefetch hit): the two-address lookup (A, B) must
	// activate the stream and prefetch the following history C, D, E, F.
	out := p.Trigger(hit('B'))
	got := lineSet(out)
	for _, want := range []mem.Line{'C', 'D', 'E', 'F'} {
		if !got[want] {
			t.Fatalf("stream candidates %+v missing %c", out, want)
		}
	}
}

func TestTwoAddressDisambiguatesAliasedStreams(t *testing.T) {
	p := New(testConfig(2), nil)
	// Two streams share the head A: A→B→C…, later A→X→Y….
	// A miss on A followed by X must replay the X stream even though the
	// most recent entry for A is... X is most recent; test the OTHER
	// direction: follow with B (the older entry).
	train(p, 'A', 'B', 'C', 'D', 'E', 'E', 'E', 'E', 'E', 'E', 'E', 'E')
	train(p, 'A', 'X', 'Y', 'Z', 'W', 'V', 'U', 'T', 'S', 'R', 'Q', 'P')
	p.Trigger(miss('A')) // pending super-entry has (X, ...) MRU, (B, ...) older
	out := p.Trigger(miss('B'))
	got := lineSet(out)
	if !got['C'] || !got['D'] {
		t.Fatalf("aliased stream not disambiguated: %+v", out)
	}
	if got['Y'] {
		t.Fatalf("wrong stream chosen: %+v", out)
	}
}

func TestPendingDiscardedOnNoMatch(t *testing.T) {
	p := New(testConfig(2), nil)
	train(p, 'A', 'B', 'C', 'D', 'E', 'F', 'G', 'H', 'I', 'J', 'K', 'L')
	p.Trigger(miss('A'))
	// An unrelated miss: the pending stream is discarded; the unrelated
	// miss starts its own lookup. No stream from A's history may start.
	out := p.Trigger(miss(999))
	if lineSet(out)['C'] {
		t.Fatalf("discarded pending still produced stream: %+v", out)
	}
	// The next event must not match the stale pending either: miss(B)
	// legitimately proposes C through its own one-address lookup (a
	// single Delay-1 candidate), but must not activate A's stream (which
	// would also produce D at degree 2).
	out = p.Trigger(miss('B'))
	if lineSet(out)['D'] {
		t.Fatalf("stale pending activated a stream after discard: %+v", out)
	}
}

func TestPrefetchHitAdvancesStream(t *testing.T) {
	p := New(testConfig(1), nil)
	train(p, 'A', 'B', 'C', 'D', 'E', 'F', 'G', 'H', 'I', 'J', 'K', 'L', 'M', 'N')
	p.Trigger(miss('A'))
	out := p.Trigger(hit('B')) // activates stream, degree 1 → C
	if len(out) != 1 || out[0].Line != 'C' {
		t.Fatalf("activation candidates = %+v", out)
	}
	out = p.Trigger(hit('C')) // advance → D
	if len(out) == 0 || out[len(out)-1].Line != 'D' {
		t.Fatalf("advance candidates = %+v", out)
	}
}

func TestMissOnlyTrainingAblation(t *testing.T) {
	p := New(testConfig(1), nil)
	p.SetMissOnlyTraining(true)
	// Prefetch-hit events must not enter the history.
	p.Trigger(miss('A'))
	p.Trigger(hit('B'))
	p.Trigger(miss('C'))
	// History is A, C; pair (A, C) recorded. Re-encountering A must
	// propose C (not B).
	out := p.Trigger(miss('A'))
	if len(out) != 1 || out[0].Line != 'C' {
		t.Fatalf("candidates = %+v, want C", out)
	}
}

func TestFirstPrefetchDisabledAblation(t *testing.T) {
	p := New(testConfig(1), nil)
	p.SetFirstPrefetchDisabled(true)
	train(p, 'A', 'B', 'C', 'D', 'E', 'F', 'G', 'H', 'I', 'J', 'K', 'L')
	out := p.Trigger(miss('A'))
	if len(out) != 0 {
		t.Fatalf("one-address prefetch issued despite ablation: %+v", out)
	}
}

func TestMetadataTrafficAccounted(t *testing.T) {
	m := &dram.Meter{}
	p := New(testConfig(1), m)
	train(p, 'A', 'B', 'C', 'D', 'E', 'F', 'G', 'H', 'I', 'J', 'K', 'L')
	if m.Transfers(dram.MetadataRead) == 0 {
		t.Fatal("no metadata reads recorded")
	}
	if m.Transfers(dram.MetadataUpdate) == 0 {
		t.Fatal("no metadata updates recorded")
	}
}

func TestStalePointerHandled(t *testing.T) {
	cfg := testConfig(1)
	cfg.Tables.HTEntries = 24 // tiny: wraps quickly
	p := New(cfg, nil)
	train(p, 'A', 'B', 'C', 'D')
	// Push the HT far past A's occurrence so the EIT pointer goes stale.
	for i := 0; i < 100; i++ {
		train(p, mem.Line(1000+i))
	}
	p.Trigger(miss('A'))
	// Must not panic; stream activation fails gracefully.
	p.Trigger(miss('B'))
}

func TestDebugStats(t *testing.T) {
	p := New(testConfig(1), nil)
	train(p, 'A', 'B', 'A')
	if p.DebugStats() == "" {
		t.Fatal("empty DebugStats")
	}
}

func TestFootprintMatchesPaper(t *testing.T) {
	l := DefaultConfig(4).Footprint()
	if l.EITBytes>>20 != 128 || l.HTBytes>>20 != 85 {
		t.Fatalf("footprint = %s, want 128 MB EIT + 85 MB HT", l)
	}
}

// TestDominoSessionZeroSteadyStateAllocs is the allocation contract of the
// Domino step: once a Session running Domino has warmed up — its streams
// opened, its candidate and PointBuf buffers grown, its EIT slab chunks
// touched — training and replay allocate nothing per access. The accesses
// are generated up front so the generator's own allocations stay out of
// the measurement.
func TestDominoSessionZeroSteadyStateAllocs(t *testing.T) {
	const warm, runs, perRun = 500_000, 100, 1000
	g := workload.New(workload.ByName("Web Apache"))
	accesses := make([]mem.Access, warm+(runs+1)*perRun)
	for i := range accesses {
		a, ok := g.Next()
		if !ok {
			t.Fatal("generator exhausted")
		}
		accesses[i] = a
	}
	s := prefetch.NewSession(New(ScaledConfig(4, 64), nil), prefetch.DefaultEvalConfig())
	for _, a := range accesses[:warm] {
		s.Access(a)
	}
	next := warm
	allocs := testing.AllocsPerRun(runs, func() {
		for _, a := range accesses[next : next+perRun] {
			s.Access(a)
		}
		next += perRun
	})
	if allocs != 0 {
		t.Fatalf("steady-state Domino session allocates %.1f times per %d accesses, want 0", allocs, perRun)
	}
	if st := s.Stats(); st.Covered == 0 || st.Issued == 0 {
		t.Fatalf("session never prefetched (%+v): the measurement exercised no replay", st)
	}
}
