// Package prefetch is the evaluation framework shared by every prefetcher
// in this repository. It fixes the experimental conditions of Section IV-D
// of the paper so that all prefetchers are compared fairly:
//
//   - all prefetchers observe the same triggering events — L1-D misses and
//     prefetch-buffer hits — derived from the same L1-D configuration;
//   - all prefetchers prefetch into the same small 32-block prefetch buffer
//     next to the L1-D;
//   - coverage counts demand misses satisfied by the buffer, and
//     overpredictions count prefetched blocks that are never consumed,
//     normalised to the baseline miss count.
//
// The package provides the Prefetcher interface, the prefetch Buffer, the
// active-stream bookkeeping shared by the temporal prefetchers, and the
// trace-based Evaluator that produces the numbers behind Figures 1, 2, 5,
// 11, 13, 15 and 16.
package prefetch

import (
	"domino/internal/mem"
)

// Event is a triggering event delivered to a prefetcher: a demand access
// that missed the L1-D, either not found anywhere (a miss) or found in the
// prefetch buffer (a prefetch hit).
type Event struct {
	// PC is the program counter of the triggering access.
	PC mem.Addr
	// Line is the missed cache line.
	Line mem.Line
	// Kind distinguishes misses from prefetch hits.
	Kind mem.EventKind
	// Tag, for prefetch hits, is the Tag of the candidate that covered
	// the miss. Stacked prefetchers use it to route the event to the
	// component that issued the prefetch.
	Tag string
	// Write reports whether the triggering access was a store.
	Write bool
}

// Candidate is one prefetch a prefetcher wants issued.
type Candidate struct {
	// Line is the cache line to prefetch.
	Line mem.Line
	// Tag labels the issuer. Single prefetchers may leave it empty;
	// stacked prefetchers set it to route future prefetch hits.
	Tag string
	// Delay is the extra latency, in off-chip round trips, that the
	// prefetcher incurred before this prefetch could be issued. The
	// trace-based evaluator ignores it; the timing model charges
	// Delay × memory latency before the prefetch's own memory access
	// begins. STMS issues the first prefetch of a stream with Delay 2
	// (index-table read, then history-table read); Domino with Delay 1
	// (the EIT row already contains the successor address).
	Delay int
}

// Prefetcher reacts to triggering events with prefetch candidates.
//
// Implementations must be deterministic given the event sequence; all
// randomness (e.g. sampled metadata updates) must come from seeded sources
// so experiments are reproducible.
type Prefetcher interface {
	// Name identifies the prefetcher in reports ("domino", "stms", ...).
	Name() string
	// Trigger delivers one triggering event and returns the prefetches
	// to issue, in issue order. The returned slice is valid until the
	// next Trigger on the same prefetcher, which may reuse its backing
	// array: callers consume it (or copy it) before triggering again.
	Trigger(ev Event) []Candidate
}

// Null is the no-op prefetcher used for the baseline system.
type Null struct{}

// Name returns "none".
func (Null) Name() string { return "none" }

// Trigger returns no candidates.
func (Null) Trigger(Event) []Candidate { return nil }
