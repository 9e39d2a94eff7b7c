// Package core implements the Domino temporal data prefetcher — the
// paper's contribution. Domino logically looks up the miss history with
// both the last one and the last two triggering events: a single-address
// lookup starts a tentative stream immediately (one off-chip round trip),
// and the following triggering event disambiguates between the streams that
// begin with the same address, using the successor addresses stored in the
// Enhanced Index Table.
package core

import (
	"domino/internal/mem"
)

// Entry is one (address, pointer) pair within a super-entry of the EIT: the
// pointer to the most recent occurrence in the History Table of the
// super-entry's tag followed by Addr (Figure 7).
type Entry struct {
	// Addr is the triggering event that followed the tag.
	Addr mem.Line
	// Ptr is the HT sequence number of Addr at that occurrence.
	Ptr uint64
}

// superRef is one super-entry slot of an EIT row: the super-entry's tag
// (the first address of the pair), the slab id of its entries, and how many
// of those entries are valid. id 0 marks an unused slot; a row's used slots
// are contiguous from index 0.
type superRef struct {
	tag mem.Line
	id  uint32 // index into the super-entry slab; 0 = unused slot
	n   uint32 // valid entries, in MRU order from the slab slot's start
}

// EIT is the Enhanced Index Table (Section III-B): a bucketised hash table
// in main memory, indexed by a *single* triggering-event address, whose
// rows hold super-entries of (successor address, HT pointer) pairs with
// two-level LRU replacement — among super-entries within a row and among
// entries within a super-entry.
//
// The table is two flat slabs with fixed strides, the shape of the paper's
// one-cache-block row (Figure 7):
//
//   - the row slab holds supersPerRow superRefs per populated row, in MRU
//     order (index 0 is most recently used);
//   - the super-entry slab holds entriesPerSuper Entry slots per
//     super-entry, in MRU order.
//
// rowOf maps a row index to its populated-row id, so memory stays
// proportional to the rows actually touched (a full-scale 2 M-row table
// is mostly empty at laptop trace lengths), and a row holding one short
// super-entry costs one row stride plus one super-entry stride. Both slabs
// grow in fixed-size chunks on first touch and never move, so training
// allocates only when it reaches a new chunk. LRU order is kept physically
// by shifting refs and entries, as in the row the paper fetches into
// FetchBuf; a new tag in a full row takes over the LRU super-entry's slab
// slot.
type EIT struct {
	rowOf []uint32 // row index -> populated-row id; 0 = never touched
	mask  uint64
	shift uint

	supersPerRow    int
	entriesPerSuper int

	// Slab chunks. Ids start at 1 (slot 0 of each slab is never used), so
	// the zero value of rowOf and superRef.id means "absent".
	rowChunks   [][]superRef
	superChunks [][]Entry
	rowBits     uint // rows per row chunk = 1 << rowBits
	superBits   uint // super-entries per super chunk = 1 << superBits
	nextRow     uint32
	nextSuper   uint32
}

// Slab chunk sizes: at most 256 rows (16 KiB at the paper's 4 super-entries
// per row) and 1 K super-entries (48 KiB at 3 entries each) per chunk, and
// never more than the table can ever hold, so a sparsely touched table —
// a short-lived serving session — stays small.
const (
	maxRowChunkBits   = 8
	maxSuperChunkBits = 10
)

// NewEIT builds a table with the given geometry. rowCount is rounded up to
// a power of two.
func NewEIT(rowCount, supersPerRow, entriesPerSuper int) *EIT {
	if rowCount < 1 {
		rowCount = 1
	}
	n := 1
	for n < rowCount {
		n <<= 1
	}
	if supersPerRow < 1 {
		supersPerRow = 1
	}
	if entriesPerSuper < 1 {
		entriesPerSuper = 1
	}
	shift := uint(64)
	for m := n; m > 1; m >>= 1 {
		shift--
	}
	return &EIT{
		rowOf:           make([]uint32, n),
		mask:            uint64(n - 1),
		shift:           shift,
		supersPerRow:    supersPerRow,
		entriesPerSuper: entriesPerSuper,
		rowBits:         chunkBits(n+1, maxRowChunkBits),
		superBits:       chunkBits(n*supersPerRow+1, maxSuperChunkBits),
		nextRow:         1,
		nextSuper:       1,
	}
}

// chunkBits returns the log2 chunk length for a slab of at most max ids:
// the smallest power of two covering max, capped at 1<<limit.
func chunkBits(max int, limit uint) uint {
	b := uint(0)
	for b < limit && 1<<b < max {
		b++
	}
	return b
}

// Rows returns the row count.
func (t *EIT) Rows() int { return len(t.rowOf) }

// PopulatedRows returns how many rows have been allocated.
func (t *EIT) PopulatedRows() int { return int(t.nextRow - 1) }

// rowIndex hashes a line address to a row. Fibonacci hashing with the
// product's high bits keeps neighbouring lines from clustering in the same
// rows.
func (t *EIT) rowIndex(line mem.Line) uint64 {
	if t.shift == 64 {
		return 0
	}
	return (uint64(line) * 0x9E3779B97F4A7C15) >> t.shift & t.mask
}

// row returns the supersPerRow refs of populated row id.
func (t *EIT) row(id uint32) []superRef {
	off := int(id&(1<<t.rowBits-1)) * t.supersPerRow
	return t.rowChunks[id>>t.rowBits][off : off+t.supersPerRow]
}

// entries returns the entriesPerSuper slots of super-entry id.
func (t *EIT) entries(id uint32) []Entry {
	off := int(id&(1<<t.superBits-1)) * t.entriesPerSuper
	return t.superChunks[id>>t.superBits][off : off+t.entriesPerSuper]
}

// newRow allocates a populated-row id, touching a new chunk if needed.
func (t *EIT) newRow() uint32 {
	id := t.nextRow
	t.nextRow++
	if int(id>>t.rowBits) == len(t.rowChunks) {
		t.rowChunks = append(t.rowChunks, make([]superRef, t.supersPerRow<<t.rowBits))
	}
	return id
}

// newSuper allocates a super-entry id, touching a new chunk if needed.
func (t *EIT) newSuper() uint32 {
	id := t.nextSuper
	t.nextSuper++
	if int(id>>t.superBits) == len(t.superChunks) {
		t.superChunks = append(t.superChunks, make([]Entry, t.entriesPerSuper<<t.superBits))
	}
	return id
}

// Lookup fetches the super-entry tagged with line, if present, appending a
// copy of its entries in MRU order to dst. The caller owns the result and
// accounts the off-chip row read; Lookup itself is functional. Lookup
// refreshes the super-entry's LRU position, as the paper's replay path
// does when it brings the row into PointBuf. On a miss dst is returned
// unchanged.
func (t *EIT) Lookup(line mem.Line, dst []Entry) ([]Entry, bool) {
	id := t.rowOf[t.rowIndex(line)]
	if id == 0 {
		return dst, false
	}
	refs := t.row(id)
	for i, r := range refs {
		if r.id == 0 {
			break
		}
		if r.tag == line {
			copy(refs[1:i+1], refs[:i])
			refs[0] = r
			return append(dst, t.entries(r.id)[:r.n]...), true
		}
	}
	return dst, false
}

// Update records that triggering event tag was followed by next, whose HT
// position is ptr — the sampled EIT update of the recording path: the row
// is fetched into FetchBuf, the super-entry and entry are found or
// allocated with LRU replacement, the pointer is refreshed, and both LRU
// stacks are updated.
func (t *EIT) Update(tag, next mem.Line, ptr uint64) {
	idx := t.rowIndex(tag)
	rid := t.rowOf[idx]
	if rid == 0 {
		rid = t.newRow()
		t.rowOf[idx] = rid
	}
	refs := t.row(rid)

	// Find the super-entry and make it MRU, or allocate one: a new tag
	// shifts the row down, taking over the LRU super-entry's slab slot
	// when the row is full.
	i := 0
	for i < len(refs) && refs[i].id != 0 && refs[i].tag != tag {
		i++
	}
	switch {
	case i < len(refs) && refs[i].id != 0: // hit
		r := refs[i]
		copy(refs[1:i+1], refs[:i])
		refs[0] = r
	case i < len(refs): // free slot at i
		copy(refs[1:i+1], refs[:i])
		refs[0] = superRef{tag: tag, id: t.newSuper()}
	default: // row full: evict the LRU super-entry, reuse its slot
		victim := refs[len(refs)-1].id
		copy(refs[1:], refs[:len(refs)-1])
		refs[0] = superRef{tag: tag, id: victim}
	}
	r := &refs[0]

	// Find the entry for next and make it MRU, or prepend a new one,
	// dropping the LRU entry when the super-entry is full.
	es := t.entries(r.id)
	j := 0
	for j < int(r.n) && es[j].Addr != next {
		j++
	}
	if j == int(r.n) {
		if int(r.n) < len(es) {
			r.n++
		} else {
			j = len(es) - 1
		}
	}
	copy(es[1:j+1], es[:j])
	es[0] = Entry{Addr: next, Ptr: ptr}
}
