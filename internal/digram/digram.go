// Package digram implements the Digram temporal prefetcher from Wenisch's
// Ph.D. thesis ("Temporal Memory Streaming", CMU 2007): a variant of
// temporal memory streaming whose Index Table is keyed by the *pair* of the
// last two triggering events rather than a single address.
//
// Two-address lookup picks longer, more accurate streams than STMS's
// single-address lookup (Figure 2 of the paper), but a Digram stream cannot
// begin until two of its accesses have already missed, so it issues one
// fewer prefetch per stream — which is why the paper (and the thesis)
// found it no better than STMS overall, and why Domino combines both
// lookups instead.
package digram

import (
	"domino/internal/dram"
	"domino/internal/flathash"
	"domino/internal/history"
	"domino/internal/mem"
	"domino/internal/prefetch"
)

// Config parameterises Digram; the fields mirror stms.Config.
type Config struct {
	Degree         int
	ActiveStreams  int
	StreamEndAfter int
	SampleOneIn    int
	HTEntries      int
	HTRowEntries   int
	MaxRefillRows  int
}

// DefaultConfig returns the paper's Digram configuration: unlimited
// metadata, four active streams, 12.5% sampling.
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

// pairKey folds the two-address Index Table key into the one-word key the
// flathash kernel stores. The fold is flathash.PackPair's well-mixed
// 128→64-bit hash: not injective in principle, practically collision-free
// at trace scale (see PackPair's collision bound), and pinned
// bit-for-bit on the real workloads by the conformance goldens.
func pairKey(prev, cur mem.Line) uint64 {
	return flathash.PackPair(uint64(prev), uint64(cur))
}

// Prefetcher is the Digram engine. Construct with New.
type Prefetcher struct {
	cfg Config
	ht  *history.Table
	// it is the pair-keyed Index Table on a flathash kernel.
	it      *flathash.Map[uint64]
	sampler *history.Sampler
	streams *prefetch.StreamSet
	pool    *prefetch.StreamPool
	meter   *dram.Meter

	prev    mem.Line
	hasPrev bool
}

// New builds a Digram prefetcher. meter may be nil.
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

// Name returns "digram".
func (p *Prefetcher) Name() string { return "digram" }

// Trigger implements prefetch.Prefetcher.
func (p *Prefetcher) Trigger(ev prefetch.Event) []prefetch.Candidate {
	out := p.replay(ev)
	p.record(ev)
	return out
}

func (p *Prefetcher) replay(ev prefetch.Event) []prefetch.Candidate {
	if ev.Kind == mem.EventPrefetchHit {
		if s := p.streams.OnPrefetchHit(ev.Line); s != nil {
			return p.issue(s, 1, 0)
		}
		return nil
	}

	p.streams.OnMiss()
	if !p.hasPrev {
		return nil
	}
	// IT lookup with the (previous, current) pair: one off-chip read.
	p.meter.RecordBlock(dram.MetadataRead)
	key := pairKey(p.prev, ev.Line)
	ptr, ok := p.it.Get(key)
	if !ok {
		return nil
	}
	s, ok := p.pool.Open(ptr)
	if !ok {
		p.it.Delete(key)
		return nil
	}
	return p.issue(s, p.cfg.Degree, 2)
}

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
	if p.hasPrev && p.sampler.Sample() {
		p.meter.RecordBlock(dram.MetadataRead)
		p.meter.RecordBlock(dram.MetadataUpdate)
		// The pointer marks the position of the pair's second element;
		// replay starts with the addresses that followed the pair.
		p.it.Put(pairKey(p.prev, ev.Line), seq)
	}
	p.prev = ev.Line
	p.hasPrev = true
}
