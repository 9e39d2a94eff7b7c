// Package ghb implements the Global History Buffer prefetcher of Nesbit &
// Smith ("Data Cache Prefetching Using a Global History Buffer",
// HPCA 2004) in its global address-correlating (G/AC) organisation — the
// paper's reference [11] and the direct on-chip ancestor of STMS: the same
// index-table-plus-history structure, but sized for SRAM, so the history is
// small and entries link occurrences of the same address through the
// buffer.
//
// On a miss, G/AC follows the index to the most recent occurrence of the
// address in the circular history and prefetches the addresses recorded
// after it. It is included as an extension baseline showing what the
// paper's off-chip-metadata move (STMS) buys over an on-chip-sized history.
package ghb

import (
	"domino/internal/flathash"
	"domino/internal/mem"
	"domino/internal/prefetch"
)

// Config parameterises the GHB.
type Config struct {
	// Degree is the prefetch degree.
	Degree int
	// Entries is the history-buffer size; Nesbit & Smith evaluate
	// SRAM-sized buffers of a few hundred entries.
	Entries int
}

// DefaultConfig returns a 512-entry on-chip configuration.
func DefaultConfig(degree int) Config {
	return Config{Degree: degree, Entries: 512}
}

// ghbEntry is one history slot: the miss address and a link to the
// previous occurrence of the same address (an absolute sequence number).
type ghbEntry struct {
	line mem.Line
	prev uint64 // sequence number of the previous occurrence + 1; 0 = none
}

// Prefetcher is the G/AC engine. Construct with New.
type Prefetcher struct {
	cfg  Config
	buf  []ghbEntry
	next uint64 // absolute sequence number of the next slot
	// index maps a line to its most recent sequence number, on a
	// flathash kernel; stale entries are pruned with a backward-shift
	// DeleteWhere sweep once the index holds more than 2*Entries lines.
	index *flathash.Map[uint64]
}

// New builds a GHB prefetcher.
func New(cfg Config) *Prefetcher {
	if cfg.Entries <= 0 {
		cfg.Entries = 512
	}
	return &Prefetcher{
		cfg:   cfg,
		buf:   make([]ghbEntry, cfg.Entries),
		index: flathash.New[uint64](2*cfg.Entries + 1),
	}
}

// Name returns "ghb".
func (p *Prefetcher) Name() string { return "ghb" }

func (p *Prefetcher) retained(seq uint64) bool {
	return seq < p.next && p.next-seq <= uint64(p.cfg.Entries)
}

// Trigger implements prefetch.Prefetcher.
func (p *Prefetcher) Trigger(ev prefetch.Event) []prefetch.Candidate {
	// Replay: successors of the previous occurrence, bounded by degree.
	var out []prefetch.Candidate
	if seq, ok := p.index.Get(uint64(ev.Line)); ok && p.retained(seq) {
		for s := seq + 1; s < p.next && len(out) < p.cfg.Degree; s++ {
			if !p.retained(s) {
				break
			}
			out = append(out, prefetch.Candidate{
				Line: p.buf[s%uint64(p.cfg.Entries)].line,
				Tag:  p.Name(),
			})
		}
	}

	// Record: append and link.
	e := ghbEntry{line: ev.Line}
	if old, ok := p.index.Get(uint64(ev.Line)); ok && p.retained(old) {
		e.prev = old + 1
	}
	p.buf[p.next%uint64(p.cfg.Entries)] = e
	p.index.Put(uint64(ev.Line), p.next)
	p.next++
	// Prune stale index entries so the index tracks the buffer rather than
	// the whole trace. At most Entries lines are retained, so a sweep at
	// 2*Entries frees at least Entries slots: amortised O(1) per access.
	if p.index.Len() > 2*p.cfg.Entries {
		p.index.DeleteWhere(func(_, seq uint64) bool {
			return !p.retained(seq)
		})
	}
	return out
}
