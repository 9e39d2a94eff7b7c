package prefetch

import (
	"domino/internal/flathash"
	"domino/internal/history"
	"domino/internal/mem"
)

// Stream is one active temporal stream being replayed out of the history
// table: the sequence of line addresses that followed the stream's trigger
// in the recorded history. STMS, Digram and Domino each keep a small number
// of active streams (4 in the paper's configuration) and advance the stream
// responsible for each prefetch hit.
type Stream struct {
	// Queue holds upcoming line addresses not yet issued (the contents
	// of the prefetcher's PointBuf for this stream).
	Queue []mem.Line
	// Refill, if non-nil, fetches the next batch of history when Queue
	// runs dry (the next row of the HT; the prefetcher's Refill closure
	// accounts the metadata-read traffic). A nil or empty result ends
	// the stream. The result becomes the new Queue, so Refill may reuse
	// the backing array of the queue it replaces.
	Refill func() []mem.Line
	// Tag is attached to candidates issued for this stream.
	Tag string

	sinceHit int
	ended    bool
	inflight []mem.Line // lines issued for this stream, for O(1) disowning
	settled  int        // inflight entries no longer owned (consumed hits)
	id       uint64     // StreamSet slot id; recycled when the stream is disowned
}

// Next pops the next line to prefetch, refilling from history as needed.
// It returns false when the stream has no more history.
func (s *Stream) Next() (mem.Line, bool) {
	for len(s.Queue) == 0 {
		if s.ended || s.Refill == nil {
			return 0, false
		}
		more := s.Refill()
		if len(more) == 0 {
			s.Refill = nil
			return 0, false
		}
		s.Queue = more
	}
	l := s.Queue[0]
	s.Queue = s.Queue[1:]
	return l, true
}

// Ended reports whether stream-end detection retired the stream.
func (s *Stream) Ended() bool { return s.ended }

// Reset reuses the stream for a fresh replay: new queue and refill, age and
// end state cleared. The in-flight tracking slice keeps its backing array,
// so a prefetcher that recycles evicted streams stops paying the
// append-from-nil growth on every stream it opens.
func (s *Stream) Reset(queue []mem.Line, refill func() []mem.Line) {
	s.Queue = queue
	s.Refill = refill
	s.sinceHit = 0
	s.ended = false
	s.inflight = s.inflight[:0]
	s.settled = 0
}

// StreamSet tracks the active streams of a temporal prefetcher: at most max
// streams in MRU order, ownership of in-flight prefetched lines, and the
// stream-end detection heuristic — a stream that sees endAfter consecutive
// demand misses without any of its prefetches being consumed is considered
// ended and becomes the preferred replacement victim, and stops issuing.
type StreamSet struct {
	max      int
	endAfter int
	streams  []*Stream // index 0 is most recently used
	// owner maps an in-flight line to the id of the stream it was issued
	// for, on a flathash kernel — it is written once per issued prefetch,
	// the hottest write in the training loop after the index tables. Ids
	// index byID and are recycled through free as streams are replaced,
	// so byID stays at most max+1 long.
	owner *flathash.Map[uint64]
	byID  []*Stream
	free  []uint64
}

// NewStreamSet returns a set of up to max streams with the given
// stream-end threshold.
func NewStreamSet(max, endAfter int) *StreamSet {
	if max <= 0 {
		max = 1
	}
	if endAfter <= 0 {
		endAfter = 1
	}
	return &StreamSet{
		max:      max,
		endAfter: endAfter,
		owner:    flathash.New[uint64](4 * max),
	}
}

// Len returns the number of active streams.
func (ss *StreamSet) Len() int { return len(ss.streams) }

// Insert installs a new stream as MRU. If the set is full it evicts an
// ended stream if one exists, otherwise the LRU stream; the victim's
// in-flight lines are disowned (their later consumption no longer advances
// any stream, matching the paper's "discarding the contents of the prefetch
// buffer and PointBuf related to the replaced stream").
func (ss *StreamSet) Insert(s *Stream) (evicted *Stream) {
	if len(ss.streams) >= ss.max {
		victim := len(ss.streams) - 1
		for i := len(ss.streams) - 1; i >= 0; i-- {
			if ss.streams[i].ended {
				victim = i
				break
			}
		}
		evicted = ss.streams[victim]
		ss.streams = append(ss.streams[:victim], ss.streams[victim+1:]...)
		ss.disown(evicted)
	}
	if n := len(ss.free); n > 0 {
		s.id = ss.free[n-1]
		ss.free = ss.free[:n-1]
		ss.byID[s.id] = s
	} else {
		s.id = uint64(len(ss.byID))
		ss.byID = append(ss.byID, s)
	}
	// Prepend in place: after warmup the slice has spare capacity, so
	// making a stream MRU allocates nothing.
	ss.streams = append(ss.streams, nil)
	copy(ss.streams[1:], ss.streams)
	ss.streams[0] = s
	return evicted
}

func (ss *StreamSet) disown(s *Stream) {
	for _, line := range s.inflight {
		if id, ok := ss.owner.Get(uint64(line)); ok && id == s.id {
			ss.owner.Delete(uint64(line))
		}
	}
	s.inflight = s.inflight[:0]
	s.settled = 0
	ss.byID[s.id] = nil
	ss.free = append(ss.free, s.id)
}

// Issued records that line was prefetched on behalf of s. If another
// stream had an in-flight claim on the same line, the newer stream wins.
func (ss *StreamSet) Issued(s *Stream, line mem.Line) {
	ss.owner.Put(uint64(line), s.id)
	s.inflight = append(s.inflight, line)
}

// OnPrefetchHit attributes a consumed line to its stream. The stream is
// promoted to MRU and its end-detection age resets. It returns nil when no
// active stream owns the line (e.g. its stream was replaced).
func (ss *StreamSet) OnPrefetchHit(line mem.Line) *Stream {
	id, ok := ss.owner.Get(uint64(line))
	if !ok {
		return nil
	}
	// Owner entries always reference live streams: a replaced stream's
	// entries are removed (or overwritten) by disown before its id is
	// recycled.
	s := ss.byID[id]
	ss.owner.Delete(uint64(line))
	s.settled++
	ss.compactInflight(s)
	s.sinceHit = 0
	s.ended = false
	ss.promote(s)
	return s
}

// compactInflight drops settled lines from s's in-flight tracking slice
// once they make up at least half of it. Consumed prefetch hits delete the
// owner-map entry but used to leave the line in s.inflight, so a long-lived
// stream's slice grew by one entry for every prefetch it ever issued. The
// amortised rebuild keeps len(inflight) proportional to the lines actually
// still owned: entries whose ownership was consumed or claimed by a newer
// stream are filtered out through the owner map.
func (ss *StreamSet) compactInflight(s *Stream) {
	if s.settled < 16 || 2*s.settled < len(s.inflight) {
		return
	}
	kept := s.inflight[:0]
	for _, line := range s.inflight {
		if id, ok := ss.owner.Get(uint64(line)); ok && id == s.id {
			kept = append(kept, line)
		}
	}
	s.inflight = kept
	s.settled = 0
}

func (ss *StreamSet) promote(s *Stream) {
	for i, cur := range ss.streams {
		if cur == s {
			copy(ss.streams[1:i+1], ss.streams[:i])
			ss.streams[0] = s
			return
		}
	}
}

// OnMiss ages every active stream by one demand miss; streams that reach
// the end threshold are marked ended.
func (ss *StreamSet) OnMiss() {
	for _, s := range ss.streams {
		s.sinceHit++
		if s.sinceHit >= ss.endAfter {
			s.ended = true
		}
	}
}

// MRU returns the most recently used stream, or nil.
func (ss *StreamSet) MRU() *Stream {
	if len(ss.streams) == 0 {
		return nil
	}
	return ss.streams[0]
}

// StreamPool opens the active streams of a history-table prefetcher (STMS,
// Digram, Domino) and recycles them. Each stream owns a queue buffer (its
// PointBuf) and an HT cursor whose refill method value is bound once, and
// the stream a StreamSet evicts to make room returns to the pool, so at
// most max+1 streams ever exist and opening one allocates nothing once
// they have.
type StreamPool struct {
	ht      *history.Table
	set     *StreamSet
	maxRows int
	all     []*pooledStream
	free    []*pooledStream
}

// pooledStream is one recyclable stream and the HT cursor its refills
// walk: consecutive rows from seq, at most left more of them.
type pooledStream struct {
	s      Stream
	ht     *history.Table
	buf    []mem.Line
	refill func() []mem.Line // next, bound once
	seq    uint64
	left   int
}

// next reads the following HT row into the stream's buffer. The stream
// calls it only once its queue — the previous contents of buf — is empty.
func (ps *pooledStream) next() []mem.Line {
	if ps.left <= 0 {
		return nil
	}
	ps.left--
	ps.buf, ps.seq = ps.ht.NextRow(ps.seq, ps.buf[:0])
	return ps.buf
}

// NewStreamPool returns a pool of streams replayed out of ht and installed
// in set. Each stream may refill from at most maxRefillRows further HT
// rows after its first.
func NewStreamPool(ht *history.Table, set *StreamSet, maxRefillRows int) *StreamPool {
	return &StreamPool{ht: ht, set: set, maxRows: maxRefillRows}
}

// Open starts a stream at the HT entries after ptr — the rest of ptr's row
// is its queue, at the cost of one off-chip row read — and installs it in
// the set as MRU. ok=false means ptr is no longer retained (a stale index
// pointer): no stream opens and the set is unchanged.
func (sp *StreamPool) Open(ptr uint64) (s *Stream, ok bool) {
	var ps *pooledStream
	if n := len(sp.free); n > 0 {
		ps = sp.free[n-1]
	} else {
		ps = &pooledStream{ht: sp.ht}
		ps.refill = ps.next
		sp.all = append(sp.all, ps)
		sp.free = append(sp.free, ps)
	}
	queue, next, ok := sp.ht.RowAfter(ptr, ps.buf[:0])
	if !ok {
		return nil, false
	}
	sp.free = sp.free[:len(sp.free)-1]
	ps.buf, ps.seq, ps.left = queue, next, sp.maxRows
	ps.s.Reset(queue, ps.refill)
	if evicted := sp.set.Insert(&ps.s); evicted != nil {
		for _, old := range sp.all {
			if &old.s == evicted {
				sp.free = append(sp.free, old)
				break
			}
		}
	}
	return &ps.s, true
}
