package prefetch

import (
	"slices"
	"testing"

	"domino/internal/history"
	"domino/internal/mem"
)

func TestStreamNextAndRefill(t *testing.T) {
	calls := 0
	s := &Stream{
		Queue: []mem.Line{1, 2},
		Refill: func() []mem.Line {
			calls++
			if calls == 1 {
				return []mem.Line{3}
			}
			return nil
		},
	}
	var got []mem.Line
	for {
		l, ok := s.Next()
		if !ok {
			break
		}
		got = append(got, l)
	}
	if len(got) != 3 || got[2] != 3 {
		t.Fatalf("got %v", got)
	}
	if _, ok := s.Next(); ok {
		t.Fatal("stream should stay exhausted")
	}
}

func TestStreamSetInsertEviction(t *testing.T) {
	ss := NewStreamSet(2, 4)
	a := &Stream{}
	b := &Stream{}
	c := &Stream{}
	ss.Insert(a)
	ss.Insert(b)
	if ev := ss.Insert(c); ev != a {
		t.Fatalf("evicted %p, want a=%p", ev, a)
	}
	if ss.Len() != 2 || ss.MRU() != c {
		t.Fatal("set state wrong")
	}
}

func TestStreamSetPrefersEndedVictim(t *testing.T) {
	ss := NewStreamSet(2, 1)
	a := &Stream{}
	b := &Stream{}
	ss.Insert(a)
	ss.Insert(b) // b is MRU, a is LRU
	ss.OnMiss()  // endAfter=1: both marked ended
	ss.Issued(b, 7)
	ss.OnPrefetchHit(7) // revives b
	c := &Stream{}
	if ev := ss.Insert(c); ev != a {
		t.Fatalf("evicted %p, want ended a", ev)
	}
}

func TestOnPrefetchHitOwnership(t *testing.T) {
	ss := NewStreamSet(4, 4)
	a := &Stream{}
	ss.Insert(a)
	ss.Issued(a, 42)
	if got := ss.OnPrefetchHit(42); got != a {
		t.Fatal("hit not attributed")
	}
	if got := ss.OnPrefetchHit(42); got != nil {
		t.Fatal("hit attributed twice")
	}
}

func TestDisownOnEviction(t *testing.T) {
	ss := NewStreamSet(1, 4)
	a := &Stream{}
	ss.Insert(a)
	ss.Issued(a, 5)
	b := &Stream{}
	ss.Insert(b) // evicts a, disowning line 5
	if got := ss.OnPrefetchHit(5); got != nil {
		t.Fatalf("hit on disowned line attributed to %p", got)
	}
}

func TestEndDetectionAndRevival(t *testing.T) {
	ss := NewStreamSet(2, 2)
	a := &Stream{}
	ss.Insert(a)
	ss.Issued(a, 1)
	ss.OnMiss()
	if a.Ended() {
		t.Fatal("ended too early")
	}
	ss.OnMiss()
	if !a.Ended() {
		t.Fatal("not ended after threshold")
	}
	// A hit revives the stream.
	if ss.OnPrefetchHit(1) != a || a.Ended() {
		t.Fatal("hit did not revive stream")
	}
}

func TestPromoteToMRU(t *testing.T) {
	ss := NewStreamSet(3, 4)
	a, b, c := &Stream{}, &Stream{}, &Stream{}
	ss.Insert(a)
	ss.Insert(b)
	ss.Insert(c) // order: c, b, a
	ss.Issued(a, 9)
	ss.OnPrefetchHit(9) // a promoted to MRU
	if ss.MRU() != a {
		t.Fatal("promote failed")
	}
	d := &Stream{}
	if ev := ss.Insert(d); ev != b {
		t.Fatalf("evicted wrong stream") // LRU should be b
	}
}

// TestInflightBoundedOnPrefetchHits pins the fix for the per-stream
// in-flight leak: OnPrefetchHit deletes the owner-map entry but used to
// leave the consumed line in Stream.inflight, so a long-lived stream's
// slice grew by one entry for every prefetch it ever issued. With the
// amortised compaction, the slice stays proportional to the lines actually
// in flight no matter how many prefetches the stream serves.
func TestInflightBoundedOnPrefetchHits(t *testing.T) {
	ss := NewStreamSet(4, 4)
	s := &Stream{}
	ss.Insert(s)
	const hits = 100_000
	for i := 0; i < hits; i++ {
		line := mem.Line(1000 + i)
		ss.Issued(s, line)
		if got := ss.OnPrefetchHit(line); got != s {
			t.Fatalf("hit %d not attributed to stream", i)
		}
	}
	if len(s.inflight) > 64 {
		t.Fatalf("len(inflight) = %d after %d issue/hit pairs, want bounded (<= 64)", len(s.inflight), hits)
	}
	// Compaction must not disturb live ownership: a still-in-flight line
	// keeps its claim across compactions triggered by later hits.
	live := mem.Line(7)
	ss.Issued(s, live)
	for i := 0; i < 1000; i++ {
		line := mem.Line(1<<40) + mem.Line(i)
		ss.Issued(s, line)
		ss.OnPrefetchHit(line)
	}
	if got := ss.OnPrefetchHit(live); got != s {
		t.Fatal("live in-flight line lost its ownership across compactions")
	}
}

// TestInflightCompactionDropsStolenLines verifies that lines whose
// ownership a newer stream claimed are also dropped from the older
// stream's tracking during compaction, and that disown afterwards does not
// remove the newer stream's claim.
func TestInflightCompactionDropsStolenLines(t *testing.T) {
	ss := NewStreamSet(4, 4)
	a, b := &Stream{}, &Stream{}
	ss.Insert(a)
	ss.Insert(b)
	stolen := mem.Line(99)
	ss.Issued(a, stolen)
	ss.Issued(b, stolen) // newer stream wins ownership
	// Drive enough hits through a to trigger its compaction.
	for i := 0; i < 100; i++ {
		line := mem.Line(2000 + i)
		ss.Issued(a, line)
		ss.OnPrefetchHit(line)
	}
	for _, l := range a.inflight {
		if l == stolen {
			t.Fatal("stolen line still tracked by the older stream after compaction")
		}
	}
	if got := ss.OnPrefetchHit(stolen); got != b {
		t.Fatalf("stolen line attributed to %p, want newer stream %p", got, b)
	}
}

func TestNewerStreamWinsOwnership(t *testing.T) {
	ss := NewStreamSet(4, 4)
	a, b := &Stream{}, &Stream{}
	ss.Insert(a)
	ss.Insert(b)
	ss.Issued(a, 3)
	ss.Issued(b, 3)
	if got := ss.OnPrefetchHit(3); got != b {
		t.Fatal("newest claim should win")
	}
}

func TestStreamPool(t *testing.T) {
	ht := history.New(16, 4, nil)
	for i := 0; i < 40; i++ {
		ht.Append(mem.Line(100 + i))
	}
	set := NewStreamSet(2, 4)
	pool := NewStreamPool(ht, set, 1)

	// seq 25 sits in the row 24..27: the queue is 26, 27, then one refill
	// row (28..31), then the refill budget is spent.
	s, ok := pool.Open(25)
	if !ok || set.MRU() != s {
		t.Fatalf("Open(25) = %p, %v; MRU %p", s, ok, set.MRU())
	}
	var got []mem.Line
	for {
		l, ok := s.Next()
		if !ok {
			break
		}
		got = append(got, l)
	}
	if want := []mem.Line{126, 127, 128, 129, 130, 131}; !slices.Equal(got, want) {
		t.Fatalf("stream replayed %v, want %v", got, want)
	}

	// A pointer the finite table has wrapped past opens nothing.
	if s, ok := pool.Open(3); ok || s != nil || set.Len() != 1 {
		t.Fatalf("stale Open = %p, %v; set holds %d", s, ok, set.Len())
	}

	// Streams the set evicts are recycled: a 2-stream set never needs
	// more than 3 pooled streams.
	for i := 0; i < 20; i++ {
		if _, ok := pool.Open(uint64(24 + i%12)); !ok {
			t.Fatalf("Open(%d) failed", 24+i%12)
		}
	}
	if len(pool.all) > 3 || set.Len() != 2 {
		t.Fatalf("pool built %d streams for a set of %d, want <= 3", len(pool.all), set.Len())
	}
}
