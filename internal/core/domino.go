package core

import (
	"fmt"

	"domino/internal/config"
	"domino/internal/dram"
	"domino/internal/history"
	"domino/internal/mem"
	"domino/internal/metamem"
	"domino/internal/prefetch"
)

// Config parameterises the Domino prefetcher.
type Config struct {
	// Degree is the prefetch degree.
	Degree int
	// ActiveStreams is the number of streams followed concurrently (4).
	ActiveStreams int
	// StreamEndAfter is the stream-end detection threshold.
	StreamEndAfter int
	// SampleOneIn is the statistical EIT-update rate (8 = 12.5%).
	SampleOneIn int
	// Tables holds the HT/EIT capacities and geometry; the paper settles
	// on a 16 M-entry HT and a 2 M-row EIT (Section V-A).
	Tables config.Domino
	// MaxRefillRows bounds HT readahead per stream.
	MaxRefillRows int
}

// DefaultConfig returns the paper's Domino configuration at the given
// prefetch degree.
func DefaultConfig(degree int) Config {
	return Config{
		Degree:         degree,
		ActiveStreams:  4,
		StreamEndAfter: 4,
		SampleOneIn:    8,
		Tables:         config.DefaultDomino(),
		MaxRefillRows:  32,
	}
}

// Footprint returns the physical layout of this configuration's metadata
// region (Section III-B): the EIT-Start/HT-Start split and the byte sizes
// the paper quotes (128 MB EIT + 85 MB HT at the default configuration).
func (c Config) Footprint() metamem.Layout {
	return metamem.NewLayout(0, c.Tables)
}

// ScaledConfig returns DefaultConfig with metadata tables scaled down by
// factor f for laptop-scale traces (see config.ScaledDomino).
func ScaledConfig(degree, f int) Config {
	c := DefaultConfig(degree)
	c.Tables = config.ScaledDomino(f)
	return c
}

// Prefetcher is the Domino engine. Construct with New.
//
// Per Section III, Domino acts on triggering events (misses and prefetch
// hits):
//
//   - on a miss it fetches the EIT row for the miss address (one off-chip
//     round trip); if a super-entry matches, it immediately prefetches the
//     address field of the most recent entry — the one-address lookup —
//     and holds the super-entry as a pending stream;
//   - on the next triggering event it searches the pending super-entry for
//     an entry whose address matches — the two-address lookup — and, on a
//     match, follows the entry's pointer into the HT to create an active
//     stream; otherwise the pending stream is discarded;
//   - a prefetch hit on an active stream advances that stream and renews
//     its position in the LRU stack.
type Prefetcher struct {
	cfg     Config
	ht      *history.Table
	eit     *EIT
	sampler *history.Sampler
	streams *prefetch.StreamSet
	pool    *prefetch.StreamPool
	meter   *dram.Meter

	// out is the candidate slice Trigger returns, reused by the next
	// Trigger (the prefetch.Prefetcher contract).
	out []prefetch.Candidate
	// pending is the super-entry fetched by the one-address lookup,
	// awaiting disambiguation by the next triggering event; empty when
	// there is none. Its backing array is reused across lookups.
	pending []Entry
	// pendingFirst is the line prefetched from the pending super-entry's
	// most recent entry, so a hit on it can be attributed to the stream
	// the two-address lookup is about to create.
	pendingFirst                                       mem.Line
	hasPendingF                                        bool
	prev                                               mem.Line
	hasPrev                                            bool
	nLookups, nLookupHit, nFirst, nMatched, nUnmatched uint64

	missOnlyTrain  bool // ablation: train the EIT on misses only
	alwaysFirstOff bool // ablation: disable the one-address first prefetch
}

// New builds a Domino prefetcher. meter may be nil.
func New(cfg Config, meter *dram.Meter) *Prefetcher {
	if meter == nil {
		meter = &dram.Meter{}
	}
	t := cfg.Tables
	ht := history.New(t.HTEntries, t.HTRowEntries, meter)
	streams := prefetch.NewStreamSet(cfg.ActiveStreams, cfg.StreamEndAfter)
	return &Prefetcher{
		cfg:     cfg,
		ht:      ht,
		eit:     NewEIT(t.EITRows, t.SuperEntriesPerRow, t.EntriesPerSuper),
		sampler: history.NewSampler(cfg.SampleOneIn),
		streams: streams,
		pool:    prefetch.NewStreamPool(ht, streams, cfg.MaxRefillRows),
		meter:   meter,
	}
}

// SetMissOnlyTraining restricts EIT/HT training to miss events (ablation:
// the paper trains on all triggering events).
func (p *Prefetcher) SetMissOnlyTraining(on bool) { p.missOnlyTrain = on }

// SetFirstPrefetchDisabled suppresses the single-address first prefetch
// (ablation: reduces Domino to a Digram-like two-address-only design with
// an EIT).
func (p *Prefetcher) SetFirstPrefetchDisabled(on bool) { p.alwaysFirstOff = on }

// Name returns "domino".
func (p *Prefetcher) Name() string { return "domino" }

// EIT exposes the index table for white-box tests.
func (p *Prefetcher) EIT() *EIT { return p.eit }

// Trigger implements prefetch.Prefetcher. Replaying has priority over
// recording (Section III-B). The returned slice is reused by the next
// Trigger.
func (p *Prefetcher) Trigger(ev prefetch.Event) []prefetch.Candidate {
	p.out = p.out[:0]
	p.replay(ev)
	p.record(ev)
	return p.out
}

func (p *Prefetcher) replay(ev prefetch.Event) {
	// Advance the active stream responsible for a prefetch hit.
	if ev.Kind == mem.EventPrefetchHit {
		if s := p.streams.OnPrefetchHit(ev.Line); s != nil {
			p.issue(s, 1, 0)
		}
	} else {
		p.streams.OnMiss()
	}

	// Two-address disambiguation of the pending super-entry: this
	// triggering event is the second address of the pair.
	if len(p.pending) > 0 {
		if e, ok := matchEntry(p.pending, ev.Line); ok {
			p.nMatched++
			p.activate(e, ev)
		} else {
			p.nUnmatched++
		}
		p.pending = p.pending[:0]
		p.hasPendingF = false
	}

	// One-address lookup on a miss: fetch the EIT row (one off-chip
	// round trip) and prefetch the most recent successor right away.
	if ev.Kind == mem.EventMiss {
		p.nLookups++
		p.meter.RecordBlock(dram.MetadataRead)
		var ok bool
		if p.pending, ok = p.eit.Lookup(ev.Line, p.pending); ok {
			p.nLookupHit++
			if !p.alwaysFirstOff {
				p.nFirst++
				first := p.pending[0].Addr
				p.pendingFirst = first
				p.hasPendingF = true
				p.out = append(p.out, prefetch.Candidate{
					Line:  first,
					Tag:   p.Name(),
					Delay: 1, // issued after a single round trip
				})
			}
		}
	}
}

// matchEntry picks the entry whose address field matches the triggering
// event ("might not be the most recent entry").
func matchEntry(entries []Entry, line mem.Line) (Entry, bool) {
	for _, e := range entries {
		if e.Addr == line {
			return e, true
		}
	}
	return Entry{}, false
}

// activate turns a matched EIT entry into an active stream: read the HT row
// at the entry's pointer into PointBuf and issue prefetches from it.
func (p *Prefetcher) activate(e Entry, ev prefetch.Event) {
	s, ok := p.pool.Open(e.Ptr)
	if !ok {
		return // stale pointer: HT wrapped past it
	}
	// If the one-address first prefetch is still in flight and this very
	// event consumed it, the stream inherits nothing; otherwise attribute
	// it to the new stream so its consumption advances the stream.
	if p.hasPendingF && p.pendingFirst != ev.Line {
		p.streams.Issued(s, p.pendingFirst)
	}
	// The stream body required the EIT round trip (already spent) plus
	// this HT read; relative to the triggering event the prefetches are
	// issued after one additional round trip.
	p.issue(s, p.cfg.Degree, 1)
}

// issue pops up to n lines from s into the output candidates, carrying
// delay off-chip round trips of issue latency.
func (p *Prefetcher) issue(s *prefetch.Stream, n, delay int) {
	for ; n > 0; n-- {
		line, ok := s.Next()
		if !ok {
			return
		}
		p.streams.Issued(s, line)
		p.out = append(p.out, prefetch.Candidate{Line: line, Tag: p.Name(), Delay: delay})
	}
}

func (p *Prefetcher) record(ev prefetch.Event) {
	if p.missOnlyTrain && ev.Kind != mem.EventMiss {
		return
	}
	seq := p.ht.Append(ev.Line)
	if p.hasPrev && p.sampler.Sample() {
		// Fetch the EIT row into FetchBuf, update it, write it back.
		p.meter.RecordBlock(dram.MetadataRead)
		p.meter.RecordBlock(dram.MetadataUpdate)
		p.eit.Update(p.prev, ev.Line, seq)
	}
	p.prev = ev.Line
	p.hasPrev = true
}

// DebugStats reports internal event counters for calibration and tests.
func (p *Prefetcher) DebugStats() string {
	return fmt.Sprintf("lookups=%d lookupHit=%d firstIssued=%d matched=%d unmatched=%d",
		p.nLookups, p.nLookupHit, p.nFirst, p.nMatched, p.nUnmatched)
}
