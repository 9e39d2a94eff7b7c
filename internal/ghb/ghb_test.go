package ghb

import (
	"testing"

	"domino/internal/mem"
	"domino/internal/prefetch"
)

func miss(l mem.Line) prefetch.Event {
	return prefetch.Event{Line: l, Kind: mem.EventMiss}
}

func train(p *Prefetcher, lines ...mem.Line) {
	for _, l := range lines {
		p.Trigger(miss(l))
	}
}

func TestReplaysSuccessors(t *testing.T) {
	p := New(DefaultConfig(3))
	train(p, 1, 2, 3, 4, 5)
	out := p.Trigger(miss(1))
	want := []mem.Line{2, 3, 4}
	if len(out) != 3 {
		t.Fatalf("candidates = %+v", out)
	}
	for i, c := range out {
		if c.Line != want[i] {
			t.Fatalf("candidate %d = %v, want %v", i, c.Line, want[i])
		}
	}
}

func TestMostRecentOccurrenceWins(t *testing.T) {
	p := New(DefaultConfig(1))
	train(p, 1, 10, 9, 1, 20, 9)
	out := p.Trigger(miss(1))
	if len(out) != 1 || out[0].Line != 20 {
		t.Fatalf("candidates = %+v, want 20", out)
	}
}

func TestSmallBufferForgets(t *testing.T) {
	cfg := DefaultConfig(2)
	cfg.Entries = 4
	p := New(cfg)
	train(p, 1, 2, 3)
	// Push 1's occurrence out of the 4-entry buffer.
	train(p, 50, 51, 52, 53)
	if out := p.Trigger(miss(1)); len(out) != 0 {
		t.Fatalf("stale history replayed: %+v", out)
	}
}

func TestUnseenAddressNoMatch(t *testing.T) {
	p := New(DefaultConfig(2))
	train(p, 1, 2, 3)
	if out := p.Trigger(miss(99)); len(out) != 0 {
		t.Fatalf("candidates for unseen address: %+v", out)
	}
}

func TestIndexPruning(t *testing.T) {
	cfg := DefaultConfig(1)
	cfg.Entries = 8
	p := New(cfg)
	for i := mem.Line(0); i < 20*8; i++ {
		p.Trigger(miss(i))
		if n := p.index.Len(); n > 2*cfg.Entries {
			t.Fatalf("after %d distinct lines the index holds %d entries, want <= %d",
				i+1, n, 2*cfg.Entries)
		}
		// Pruning drops only stale lines: every line still in the
		// buffer stays indexed.
		for l := max(0, int(i)-cfg.Entries+1); l <= int(i); l++ {
			if _, ok := p.index.Get(uint64(l)); !ok {
				t.Fatalf("after %d lines, retained line %d was pruned", i+1, l)
			}
		}
	}
}

func TestName(t *testing.T) {
	if New(DefaultConfig(1)).Name() != "ghb" {
		t.Fatal("name")
	}
}
