package history

import (
	"math/rand"
	"testing"

	"domino/internal/dram"
	"domino/internal/mem"
)

func TestAppendAt(t *testing.T) {
	h := New(24, 12, nil)
	for i := 0; i < 24; i++ {
		if seq := h.Append(mem.Line(i)); seq != uint64(i) {
			t.Fatalf("Append seq = %d, want %d", seq, i)
		}
	}
	for i := 0; i < 24; i++ {
		if h.At(uint64(i)) != mem.Line(i) {
			t.Fatalf("At(%d) = %v", i, h.At(uint64(i)))
		}
	}
}

func TestWrapAround(t *testing.T) {
	h := New(24, 12, nil)
	for i := 0; i < 36; i++ {
		h.Append(mem.Line(i))
	}
	if h.Retained(11) {
		t.Fatal("entry 11 should have been overwritten")
	}
	if !h.Retained(12) {
		t.Fatal("entry 12 should be retained")
	}
	if h.At(12) != mem.Line(12) {
		t.Fatalf("At(12) = %v", h.At(12))
	}
}

func TestUnlimited(t *testing.T) {
	h := New(Unlimited, 12, nil)
	for i := 0; i < 1000; i++ {
		h.Append(mem.Line(i))
	}
	if !h.Retained(0) || h.At(0) != 0 {
		t.Fatal("unlimited table dropped an entry")
	}
	if h.Capacity() != 0 {
		t.Fatalf("Capacity = %d, want 0", h.Capacity())
	}
}

func TestAtPanicsOnStale(t *testing.T) {
	h := New(12, 12, nil)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	h.At(0) // nothing appended yet
}

func TestRowAfter(t *testing.T) {
	h := New(48, 12, nil)
	for i := 0; i < 30; i++ {
		h.Append(mem.Line(100 + i))
	}
	// seq 3 is in row 0 (seqs 0-11); RowAfter returns seqs 4..11.
	entries, next, ok := h.RowAfter(3, nil)
	if !ok {
		t.Fatal("RowAfter not ok")
	}
	if len(entries) != 8 || entries[0] != 104 || entries[7] != 111 {
		t.Fatalf("entries = %v", entries)
	}
	if next != 12 {
		t.Fatalf("next = %d, want 12", next)
	}
	// Last retained row is partial: seqs 24..29.
	entries, _, ok = h.RowAfter(24, nil)
	if !ok || len(entries) != 5 || entries[0] != 125 {
		t.Fatalf("partial row entries = %v ok=%v", entries, ok)
	}
	// Stale sequence.
	h2 := New(12, 12, nil)
	for i := 0; i < 30; i++ {
		h2.Append(mem.Line(i))
	}
	if _, _, ok := h2.RowAfter(2, nil); ok {
		t.Fatal("RowAfter on overwritten seq should fail")
	}
}

func TestNextRow(t *testing.T) {
	h := New(48, 12, nil)
	for i := 0; i < 30; i++ {
		h.Append(mem.Line(i))
	}
	entries, next := h.NextRow(12, nil)
	if len(entries) != 12 || entries[0] != 12 || next != 24 {
		t.Fatalf("NextRow(12) = %v next=%d", entries, next)
	}
	// Unaligned seq rounds up to the next row boundary.
	entries, next = h.NextRow(13, nil)
	if len(entries) != 6 || entries[0] != 24 || next != 30 {
		t.Fatalf("NextRow(13) = %v next=%d", entries, next)
	}
	// Past the end.
	entries, _ = h.NextRow(36, nil)
	if entries != nil {
		t.Fatalf("NextRow past end = %v", entries)
	}
}

func TestTrafficAccounting(t *testing.T) {
	var m dram.Meter
	h := New(48, 12, &m)
	for i := 0; i < 24; i++ {
		h.Append(mem.Line(i))
	}
	// Two full rows were written.
	if m.Transfers(dram.MetadataUpdate) != 2 {
		t.Fatalf("row writes = %d", m.Transfers(dram.MetadataUpdate))
	}
	h.RowAfter(0, nil)
	h.NextRow(12, nil)
	if m.Transfers(dram.MetadataRead) != 2 {
		t.Fatalf("row reads = %d", m.Transfers(dram.MetadataRead))
	}
}

func TestCapacityRounding(t *testing.T) {
	h := New(13, 12, nil)
	if h.Capacity() != 24 {
		t.Fatalf("Capacity = %d, want 24 (rounded to rows)", h.Capacity())
	}
}

func TestDeterministicSampler(t *testing.T) {
	s := NewSampler(4)
	hits := 0
	for i := 0; i < 100; i++ {
		if s.Sample() {
			hits++
		}
	}
	if hits != 25 {
		t.Fatalf("sampled %d of 100, want 25", hits)
	}
	every := NewSampler(1)
	if !every.Sample() || !every.Sample() {
		t.Fatal("oneIn=1 must always sample")
	}
}

func TestRandomSampler(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	s := NewRandomSampler(8, rng.Intn)
	hits := 0
	const n = 100000
	for i := 0; i < n; i++ {
		if s.Sample() {
			hits++
		}
	}
	frac := float64(hits) / n
	if frac < 0.11 || frac > 0.14 {
		t.Fatalf("random sampler rate = %v, want ~0.125", frac)
	}
}

// TestRowReadsAppendToDst: RowAfter and NextRow append to the caller's
// slice, reusing its backing array when it has room, and leave it
// unchanged when there is nothing to read.
func TestRowReadsAppendToDst(t *testing.T) {
	h := New(24, 12, nil)
	for i := 0; i < 30; i++ {
		h.Append(mem.Line(i))
	}
	buf := make([]mem.Line, 1, 16)
	buf[0] = 999
	got, _, ok := h.RowAfter(20, buf)
	if !ok || len(got) != 4 || got[0] != 999 || got[1] != 21 || &got[0] != &buf[0] {
		t.Fatalf("RowAfter(20, buf) = %v, %v", got, ok)
	}
	got, next := h.NextRow(13, buf[:0])
	if len(got) != 6 || got[0] != 24 || next != 30 || &got[0] != &buf[0] {
		t.Fatalf("NextRow(13, buf) = %v next=%d", got, next)
	}
	if got, _, ok := h.RowAfter(2, buf[:1]); ok || len(got) != 1 {
		t.Fatalf("stale RowAfter = %v, %v; want dst unchanged", got, ok)
	}
	if got, _ := h.NextRow(36, buf[:1]); len(got) != 1 {
		t.Fatalf("NextRow past end = %v; want dst unchanged", got)
	}
}
