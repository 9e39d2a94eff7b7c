// Package history implements the off-chip History Table (HT) shared by the
// global temporal prefetchers (STMS, Digram, Domino). The HT is a circular
// buffer of triggering-event line addresses living in main memory; rows of
// HTRowEntries addresses occupy one cache block each. Appends are buffered
// in an on-chip log (the paper's LogMiss buffer) so that the HT is written
// one full row — one block transfer — at a time, and reads fetch one row at
// a time. The table accounts its own off-chip traffic into a dram.Meter.
//
// The paper evaluates STMS and Digram with unlimited-size metadata and
// Domino with a finite table (16 M entries); a capacity of Unlimited gives
// the former, growing the backing store on demand.
package history

import (
	"slices"

	"domino/internal/dram"
	"domino/internal/mem"
)

// Unlimited, used as a capacity, makes the table retain every entry.
const Unlimited = 0

// Table is the history table. Positions ("pointers" in the paper) are
// absolute sequence numbers that never wrap; an entry of a finite table is
// retained while it is within the last Capacity appends. Construct with
// New.
type Table struct {
	entries   []mem.Line   // finite mode: circular buffer of cap entries
	chunks    [][]mem.Line // unlimited mode: append-only chunked log
	cap       uint64       // 0 = unlimited
	next      uint64       // sequence number of the next append
	rowLen    uint64
	meter     *dram.Meter
	unlimited bool
}

// Unlimited-mode storage is chunked rather than one grown slice: the
// paper's unlimited-metadata configurations append tens of millions of
// entries per run, and slice doubling would copy the entire history on
// every growth step — the single largest allocation cost in the training
// profiles. A chunk holds 64 K entries (512 KiB).
const (
	chunkBits = 16
	chunkSize = 1 << chunkBits
	chunkMask = chunkSize - 1
)

// New returns a table retaining the last capacity entries (or every entry,
// for Unlimited), grouped into rows of rowEntries addresses. meter may be
// nil to skip traffic accounting. A finite capacity is rounded up to a
// whole number of rows.
func New(capacity, rowEntries int, meter *dram.Meter) *Table {
	if rowEntries <= 0 {
		rowEntries = 12
	}
	t := &Table{rowLen: uint64(rowEntries), meter: meter}
	if capacity == Unlimited {
		t.unlimited = true
		return t
	}
	if capacity < rowEntries {
		capacity = rowEntries
	}
	if rem := capacity % rowEntries; rem != 0 {
		capacity += rowEntries - rem
	}
	t.cap = uint64(capacity)
	t.entries = make([]mem.Line, capacity)
	return t
}

// Capacity returns the retained-entry capacity, or 0 for unlimited.
func (t *Table) Capacity() int { return int(t.cap) }

// RowEntries returns the number of entries per row.
func (t *Table) RowEntries() int { return int(t.rowLen) }

// Len returns the total number of entries ever appended.
func (t *Table) Len() uint64 { return t.next }

// Append records a triggering event and returns its sequence number.
// Completing a row costs one off-chip block write (the LogMiss buffer
// drains one cache block worth of addresses to the HT).
func (t *Table) Append(line mem.Line) uint64 {
	seq := t.next
	if t.unlimited {
		ci := int(seq >> chunkBits)
		if ci == len(t.chunks) {
			t.chunks = append(t.chunks, make([]mem.Line, chunkSize))
		}
		t.chunks[ci][seq&chunkMask] = line
	} else {
		t.entries[seq%t.cap] = line
	}
	t.next++
	if t.next%t.rowLen == 0 && t.meter != nil {
		t.meter.RecordBlock(dram.MetadataUpdate)
	}
	return seq
}

// Retained reports whether the entry at seq has been written and is still
// in the buffer.
func (t *Table) Retained(seq uint64) bool {
	if seq >= t.next {
		return false
	}
	return t.unlimited || t.next-seq <= t.cap
}

// At returns the entry at seq. It panics if seq is not retained; callers
// must check Retained (the prefetchers treat a stale pointer as a failed
// lookup, never as a panic).
func (t *Table) At(seq uint64) mem.Line {
	if !t.Retained(seq) {
		panic("history: read of non-retained sequence number")
	}
	return t.at(seq)
}

// at reads a retained entry without the retention check.
func (t *Table) at(seq uint64) mem.Line {
	if t.unlimited {
		return t.chunks[seq>>chunkBits][seq&chunkMask]
	}
	return t.entries[seq%t.cap]
}

// RowAfter fetches, at the cost of one off-chip block read, the retained
// entries strictly after seq up to the end of seq's row — the "cache block
// worth of data from the HT" a temporal prefetcher receives per metadata
// read: the addresses that followed the matched occurrence. It appends
// them to dst and also returns the sequence number just past the row, for
// chaining into NextRow. ok=false means seq is no longer retained (a stale
// index pointer); dst is then returned unchanged.
func (t *Table) RowAfter(seq uint64, dst []mem.Line) (entries []mem.Line, nextSeq uint64, ok bool) {
	if !t.Retained(seq) {
		return dst, 0, false
	}
	if t.meter != nil {
		t.meter.RecordBlock(dram.MetadataRead)
	}
	rowEnd := (seq/t.rowLen + 1) * t.rowLen
	return t.appendRange(dst, seq+1, rowEnd), rowEnd, true
}

// NextRow fetches, at the cost of one off-chip block read, the whole row
// starting at the first row boundary at or after seq. It appends the
// entries to dst and returns the sequence number just past them, for
// chained refills. Nothing is appended when the history ends (or has
// wrapped past seq).
func (t *Table) NextRow(seq uint64, dst []mem.Line) (entries []mem.Line, nextSeq uint64) {
	start := seq
	if rem := start % t.rowLen; rem != 0 {
		start += t.rowLen - rem
	}
	if start >= t.next || !t.Retained(start) {
		return dst, start
	}
	if t.meter != nil {
		t.meter.RecordBlock(dram.MetadataRead)
	}
	n := len(dst)
	dst = t.appendRange(dst, start, start+t.rowLen)
	return dst, start + uint64(len(dst)-n)
}

// appendRange appends the retained, written entries in [from, to) to dst,
// growing it at most once.
func (t *Table) appendRange(dst []mem.Line, from, to uint64) []mem.Line {
	if to > t.next {
		to = t.next
	}
	if from >= to {
		return dst
	}
	dst = slices.Grow(dst, int(to-from))
	for s := from; s < to; s++ {
		if !t.Retained(s) {
			continue
		}
		dst = append(dst, t.at(s))
	}
	return dst
}

// Sampler decides which history writes also update the index table — the
// paper's statistical (12.5%) index update. The default is a deterministic
// 1-in-N counter so experiments are reproducible; a seeded random mode is
// available for the ablation study.
type Sampler struct {
	oneIn int
	n     int
	rnd   func() int // optional: returns a value in [0, oneIn)
}

// NewSampler returns a deterministic 1-in-oneIn sampler. oneIn <= 1 samples
// every event.
func NewSampler(oneIn int) *Sampler { return &Sampler{oneIn: oneIn} }

// NewRandomSampler returns a sampler that samples each event independently
// with probability 1/oneIn using intn, a rand.Intn-style source.
func NewRandomSampler(oneIn int, intn func(int) int) *Sampler {
	s := &Sampler{oneIn: oneIn}
	if oneIn > 1 {
		s.rnd = func() int { return intn(oneIn) }
	}
	return s
}

// Sample reports whether this event is sampled.
func (s *Sampler) Sample() bool {
	if s.oneIn <= 1 {
		return true
	}
	if s.rnd != nil {
		return s.rnd() == 0
	}
	s.n++
	if s.n >= s.oneIn {
		s.n = 0
		return true
	}
	return false
}
