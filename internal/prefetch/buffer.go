package prefetch

import (
	"domino/internal/mem"
)

// Buffer is the small prefetch buffer near the L1-D that every evaluated
// prefetcher prefetches into (32 cache blocks in the paper's methodology).
// Blocks leave the buffer either by being consumed by a demand access (a
// covered miss) or by being displaced by newer prefetches; displaced blocks
// that were never consumed are overpredictions.
//
// Replacement is FIFO: the buffer is a window over the most recently
// prefetched blocks, which is how a hardware prefetch buffer of this size
// behaves and what makes overpredictions visible as pollution.
type Buffer struct {
	capacity int
	entries  map[mem.Line]*bufEntry
	fifo     []*bufEntry // insertion order; head at index 0; a window into store
	gone     int         // entries in fifo already consumed or invalidated

	// store is fifo's fixed backing array; spare holds entries that have
	// left the fifo, for reuse. Together they keep Insert from allocating
	// once the buffer has warmed up.
	store []*bufEntry
	spare []*bufEntry

	issued  uint64
	used    uint64
	dropped uint64 // evicted before use

	// onEvict, if set, observes each line dropped before use — capacity
	// displacements and explicit invalidations — for decision tracing.
	onEvict func(mem.Line)
}

type bufEntry struct {
	line mem.Line
	tag  string
	gone bool // consumed or evicted; kept in fifo until popped
}

// NewBuffer returns a buffer holding up to capacity blocks.
func NewBuffer(capacity int) *Buffer {
	if capacity <= 0 {
		capacity = 1
	}
	// compact bounds len(fifo) by 2*capacity; twice that again leaves
	// room to slide the window at most once every 2*capacity inserts.
	store := make([]*bufEntry, 4*capacity)
	return &Buffer{
		capacity: capacity,
		entries:  make(map[mem.Line]*bufEntry, capacity),
		fifo:     store[:0],
		store:    store,
	}
}

// Contains reports whether line is buffered.
func (b *Buffer) Contains(line mem.Line) bool {
	_, ok := b.entries[line]
	return ok
}

// Len returns the number of buffered blocks.
func (b *Buffer) Len() int { return len(b.entries) }

// Insert adds a prefetched line with its issuer tag. Inserting a line that
// is already buffered refreshes nothing and is not counted again; the
// evaluator filters those before issuing, so a duplicate insert indicates a
// prefetcher issuing redundant candidates within one Trigger call — they
// are simply ignored. Insert reports whether the line was newly added.
func (b *Buffer) Insert(line mem.Line, tag string) bool {
	if _, ok := b.entries[line]; ok {
		return false
	}
	for len(b.entries) >= b.capacity {
		b.evictOldest()
	}
	var e *bufEntry
	if n := len(b.spare); n > 0 {
		e = b.spare[n-1]
		b.spare = b.spare[:n-1]
		*e = bufEntry{line: line, tag: tag}
	} else {
		e = &bufEntry{line: line, tag: tag}
	}
	b.entries[line] = e
	if len(b.fifo) == cap(b.fifo) {
		// The window reached the end of store: slide it to the front.
		b.fifo = b.store[:copy(b.store, b.fifo)]
	}
	b.fifo = append(b.fifo, e)
	b.issued++
	return true
}

func (b *Buffer) evictOldest() {
	for len(b.fifo) > 0 {
		e := b.fifo[0]
		b.fifo[0] = nil
		b.fifo = b.fifo[1:]
		b.spare = append(b.spare, e)
		if e.gone {
			b.gone--
			continue
		}
		delete(b.entries, e.line)
		e.gone = true
		b.dropped++
		if b.onEvict != nil {
			b.onEvict(e.line)
		}
		return
	}
}

// compact drops gone markers from the fifo once they outnumber the
// capacity. Without it, gone entries are only drained by evictOldest —
// which runs only when the buffer is full — so a high-accuracy prefetcher
// whose blocks are consumed before the buffer ever fills would grow the
// fifo by one retained *bufEntry per consumed prefetch, without bound.
// Compacting keeps len(fifo) <= len(entries) + capacity, i.e. O(capacity),
// while preserving the relative insertion order of live entries.
func (b *Buffer) compact() {
	if b.gone <= b.capacity {
		return
	}
	kept := b.fifo[:0]
	for _, e := range b.fifo {
		if e.gone {
			b.spare = append(b.spare, e)
		} else {
			kept = append(kept, e)
		}
	}
	for i := len(kept); i < len(b.fifo); i++ {
		b.fifo[i] = nil
	}
	b.fifo = kept
	b.gone = 0
}

// OnEvict registers f to observe every line dropped before use. Pass nil
// to disable.
func (b *Buffer) OnEvict(f func(mem.Line)) { b.onEvict = f }

// Consume looks up line; on a hit it removes the block (it moves into the
// L1-D) and returns its issuer tag and true.
func (b *Buffer) Consume(line mem.Line) (tag string, ok bool) {
	e, ok := b.entries[line]
	if !ok {
		return "", false
	}
	delete(b.entries, line)
	e.gone = true
	b.gone++
	b.compact()
	b.used++
	return e.tag, true
}

// Invalidate removes line without counting it as used or dropped-unused
// beyond the drop counter; used when a prefetcher explicitly discards a
// replaced stream's blocks.
func (b *Buffer) Invalidate(line mem.Line) bool {
	e, ok := b.entries[line]
	if !ok {
		return false
	}
	delete(b.entries, line)
	e.gone = true
	b.gone++
	b.compact()
	b.dropped++
	if b.onEvict != nil {
		b.onEvict(line)
	}
	return true
}

// Issued returns the number of prefetches inserted.
func (b *Buffer) Issued() uint64 { return b.issued }

// Used returns the number of buffered blocks consumed by demand accesses.
func (b *Buffer) Used() uint64 { return b.used }

// Dropped returns the number of blocks evicted or invalidated before use.
func (b *Buffer) Dropped() uint64 { return b.dropped }

// ResetCounters zeroes the issue/use/drop statistics without touching the
// buffered blocks, for measurements that begin after a warmup phase.
func (b *Buffer) ResetCounters() { b.issued, b.used, b.dropped = 0, 0, 0 }

// Unused returns the prefetches that never served a demand access:
// dropped blocks plus blocks still resident. This is the overprediction
// count at the end of a run.
func (b *Buffer) Unused() uint64 {
	return b.dropped + uint64(len(b.entries))
}
