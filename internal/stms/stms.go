// Package stms implements Sampled Temporal Memory Streaming (Wenisch et
// al., "Practical Off-chip Meta-data for Temporal Memory Streaming",
// HPCA 2009) — the state-of-the-art temporal data prefetcher the paper
// compares against and builds upon.
//
// STMS keeps two off-chip tables: a per-core History Table (HT) recording
// the global sequence of triggering events, and an Index Table (IT) mapping
// each observed miss address to the position of its most recent occurrence
// in the HT. On a miss, STMS looks the miss address up in the IT (one
// off-chip round trip), follows the pointer into the HT (a second round
// trip), and replays the addresses that followed the previous occurrence.
// Because the lookup matches a single address, STMS frequently picks the
// wrong stream when two streams begin with the same miss — the limitation
// Domino addresses.
package stms

import (
	"fmt"

	"domino/internal/dram"
	"domino/internal/flathash"
	"domino/internal/history"
	"domino/internal/mem"
	"domino/internal/prefetch"
)

// Config parameterises STMS. The zero value is not useful; start from
// DefaultConfig.
type Config struct {
	// Degree is the prefetch degree.
	Degree int
	// ActiveStreams is the number of streams followed concurrently (4).
	ActiveStreams int
	// StreamEndAfter is the stream-end detection threshold.
	StreamEndAfter int
	// SampleOneIn is the statistical index-update rate (8 = 12.5%).
	SampleOneIn int
	// HTEntries is the History Table capacity; history.Unlimited
	// reproduces the paper's unlimited-metadata configuration.
	HTEntries int
	// HTRowEntries is the number of addresses per HT row (12).
	HTRowEntries int
	// MaxRefillRows bounds how many HT rows a single stream may fetch
	// beyond its initial row, so a runaway stream cannot scan the whole
	// history (stream-end detection normally stops it much earlier).
	MaxRefillRows int
}

// DefaultConfig returns the paper's STMS configuration: unlimited metadata,
// four active streams, 12.5% sampling.
func DefaultConfig(degree int) Config {
	return Config{
		Degree:         degree,
		ActiveStreams:  4,
		StreamEndAfter: 4,
		SampleOneIn:    8,
		HTEntries:      history.Unlimited,
		HTRowEntries:   12,
		MaxRefillRows:  32,
	}
}

// Prefetcher is the STMS engine. Construct with New.
type Prefetcher struct {
	cfg Config
	ht  *history.Table
	// it is the Index Table: most recent HT position per miss address,
	// on a flathash kernel (the simulator's hottest lookup structure).
	it      *flathash.Map[uint64]
	sampler *history.Sampler
	streams *prefetch.StreamSet
	pool    *prefetch.StreamPool
	meter   *dram.Meter

	nMiss, nMatch, nStale, nStream, nAdvance uint64
}

// DebugStats reports internal counters for calibration and tests.
func (p *Prefetcher) DebugStats() string {
	return fmt.Sprintf("miss=%d match=%d stale=%d streams=%d advances=%d",
		p.nMiss, p.nMatch, p.nStale, p.nStream, p.nAdvance)
}

// New builds an STMS prefetcher. meter may be nil to skip metadata-traffic
// accounting.
func New(cfg Config, meter *dram.Meter) *Prefetcher {
	if meter == nil {
		meter = &dram.Meter{}
	}
	ht := history.New(cfg.HTEntries, cfg.HTRowEntries, meter)
	streams := prefetch.NewStreamSet(cfg.ActiveStreams, cfg.StreamEndAfter)
	return &Prefetcher{
		cfg:     cfg,
		ht:      ht,
		it:      flathash.New[uint64](0),
		sampler: history.NewSampler(cfg.SampleOneIn),
		streams: streams,
		pool:    prefetch.NewStreamPool(ht, streams, cfg.MaxRefillRows),
		meter:   meter,
	}
}

// Name returns "stms".
func (p *Prefetcher) Name() string { return "stms" }

// Trigger implements prefetch.Prefetcher. Replaying has priority over
// recording (Section III-B), so the lookup observes the history as it was
// before the current event is appended.
func (p *Prefetcher) Trigger(ev prefetch.Event) []prefetch.Candidate {
	out := p.replay(ev)
	p.record(ev)
	return out
}

func (p *Prefetcher) replay(ev prefetch.Event) []prefetch.Candidate {
	if ev.Kind == mem.EventPrefetchHit {
		if s := p.streams.OnPrefetchHit(ev.Line); s != nil {
			p.nAdvance++
			return p.issue(s, 1, 0)
		}
		return nil
	}

	p.nMiss++
	p.streams.OnMiss()
	// IT lookup: one off-chip block read whether or not it matches.
	p.meter.RecordBlock(dram.MetadataRead)
	ptr, ok := p.it.Get(uint64(ev.Line))
	if !ok {
		return nil
	}
	p.nMatch++
	s, ok := p.pool.Open(ptr) // second off-chip round trip
	if !ok {
		p.nStale++
		p.it.Delete(uint64(ev.Line)) // stale pointer: the HT wrapped past it
		return nil
	}
	p.nStream++
	// The first prefetches of an STMS stream wait for two serial off-chip
	// accesses: the IT read and the HT read (Figure 6).
	return p.issue(s, p.cfg.Degree, 2)
}

// issue pops up to n lines from s into candidates carrying delay off-chip
// round trips of issue latency.
func (p *Prefetcher) issue(s *prefetch.Stream, n, delay int) []prefetch.Candidate {
	out := make([]prefetch.Candidate, 0, n)
	for len(out) < n {
		line, ok := s.Next()
		if !ok {
			break
		}
		p.streams.Issued(s, line)
		out = append(out, prefetch.Candidate{Line: line, Tag: p.Name(), Delay: delay})
	}
	return out
}

func (p *Prefetcher) record(ev prefetch.Event) {
	seq := p.ht.Append(ev.Line)
	if p.sampler.Sample() {
		// Read-modify-write of the IT row holding this address.
		p.meter.RecordBlock(dram.MetadataRead)
		p.meter.RecordBlock(dram.MetadataUpdate)
		p.it.Put(uint64(ev.Line), seq)
	}
}
