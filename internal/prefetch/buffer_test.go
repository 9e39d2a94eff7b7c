package prefetch

import (
	"testing"

	"domino/internal/mem"
)

func TestBufferInsertConsume(t *testing.T) {
	b := NewBuffer(4)
	if !b.Insert(1, "a") {
		t.Fatal("first insert failed")
	}
	if b.Insert(1, "a") {
		t.Fatal("duplicate insert succeeded")
	}
	if !b.Contains(1) {
		t.Fatal("Contains")
	}
	tag, ok := b.Consume(1)
	if !ok || tag != "a" {
		t.Fatalf("Consume = %q, %v", tag, ok)
	}
	if b.Contains(1) {
		t.Fatal("still present after Consume")
	}
	if _, ok := b.Consume(1); ok {
		t.Fatal("double consume")
	}
}

func TestBufferFIFOEviction(t *testing.T) {
	b := NewBuffer(2)
	b.Insert(1, "")
	b.Insert(2, "")
	b.Insert(3, "") // evicts 1
	if b.Contains(1) || !b.Contains(2) || !b.Contains(3) {
		t.Fatal("FIFO eviction wrong")
	}
	if b.Dropped() != 1 {
		t.Fatalf("Dropped = %d", b.Dropped())
	}
}

func TestBufferEvictionSkipsConsumed(t *testing.T) {
	b := NewBuffer(2)
	b.Insert(1, "")
	b.Insert(2, "")
	b.Consume(1)
	b.Insert(3, "")
	b.Insert(4, "") // must evict 2, not a ghost of 1
	if b.Contains(2) || !b.Contains(3) || !b.Contains(4) {
		t.Fatal("eviction after consume wrong")
	}
}

func TestBufferCounters(t *testing.T) {
	b := NewBuffer(8)
	for i := mem.Line(0); i < 5; i++ {
		b.Insert(i, "")
	}
	b.Consume(0)
	b.Consume(1)
	if b.Issued() != 5 || b.Used() != 2 {
		t.Fatalf("issued=%d used=%d", b.Issued(), b.Used())
	}
	if b.Unused() != 3 { // 3 still resident
		t.Fatalf("Unused = %d", b.Unused())
	}
	b.ResetCounters()
	if b.Issued() != 0 || b.Used() != 0 || b.Dropped() != 0 {
		t.Fatal("ResetCounters incomplete")
	}
	if b.Len() != 3 {
		t.Fatal("ResetCounters must not drop contents")
	}
}

func TestBufferInvalidate(t *testing.T) {
	b := NewBuffer(4)
	b.Insert(9, "x")
	if !b.Invalidate(9) || b.Contains(9) {
		t.Fatal("Invalidate")
	}
	if b.Invalidate(9) {
		t.Fatal("double invalidate")
	}
	if b.Dropped() != 1 {
		t.Fatalf("Dropped = %d", b.Dropped())
	}
}

func TestBufferCapacityNeverExceeded(t *testing.T) {
	b := NewBuffer(32)
	for i := mem.Line(0); i < 1000; i++ {
		b.Insert(i, "")
		if b.Len() > 32 {
			t.Fatalf("len %d exceeds capacity", b.Len())
		}
	}
	if b.Issued() != 1000 || b.Dropped() != 1000-32 {
		t.Fatalf("issued=%d dropped=%d", b.Issued(), b.Dropped())
	}
}

// TestBufferZeroSteadyStateAllocs: once warm, the Insert / Consume /
// capacity-eviction / Invalidate cycle recycles its entries and its fifo
// storage, so it allocates nothing.
func TestBufferZeroSteadyStateAllocs(t *testing.T) {
	b := NewBuffer(32)
	next := mem.Line(0)
	cycle := func() {
		for i := 0; i < 100; i++ {
			b.Insert(next, "t") // evicts once the buffer is full
			switch next % 4 {
			case 1:
				b.Consume(next) // consumed straight away: a gone marker
			case 2:
				b.Consume(next - 20)
			case 3:
				b.Invalidate(next - 7)
			}
			next++
		}
	}
	for i := 0; i < 10; i++ {
		cycle()
	}
	if allocs := testing.AllocsPerRun(100, cycle); allocs != 0 {
		t.Fatalf("steady-state buffer cycle allocates %.1f times per 100 inserts, want 0", allocs)
	}
	if b.Dropped() == 0 || b.Used() == 0 {
		t.Fatalf("cycle exercised no eviction (dropped=%d) or no consume (used=%d)", b.Dropped(), b.Used())
	}
}
