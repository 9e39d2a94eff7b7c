package core

import (
	"fmt"
	"slices"
	"testing"

	"domino/internal/mem"
)

func TestEITUpdateLookup(t *testing.T) {
	e := NewEIT(16, 4, 3)
	e.Update(10, 20, 100)
	entries, ok := e.Lookup(10, nil)
	if !ok || len(entries) != 1 || entries[0] != (Entry{Addr: 20, Ptr: 100}) {
		t.Fatalf("entries = %+v ok=%v", entries, ok)
	}
	if _, ok := e.Lookup(11, nil); ok {
		t.Fatal("lookup of absent tag matched")
	}
}

// TestEITPaperExample reproduces the Figure 7 example: the history
// "A B L D F A Q B A X C U" yields, among others, super-entry A with
// entries (X,P6), (Q,P4), (B,P1) in MRU order.
func TestEITPaperExample(t *testing.T) {
	hist := []mem.Line{'A', 'B', 'L', 'D', 'F', 'A', 'Q', 'B', 'A', 'X', 'C', 'U'}
	e := NewEIT(64, 8, 3)
	for i := 1; i < len(hist); i++ {
		e.Update(hist[i-1], hist[i], uint64(i))
	}
	entries, ok := e.Lookup('A', nil)
	if !ok {
		t.Fatal("no super-entry for A")
	}
	want := []Entry{{Addr: 'X', Ptr: 9}, {Addr: 'Q', Ptr: 6}, {Addr: 'B', Ptr: 1}}
	if len(entries) != len(want) {
		t.Fatalf("entries = %+v", entries)
	}
	for i := range want {
		if entries[i] != want[i] {
			t.Fatalf("entry %d = %+v, want %+v", i, entries[i], want[i])
		}
	}
	// B was followed by L (P2) then by A (P8): MRU order (A,P8), (L,P2).
	entries, _ = e.Lookup('B', nil)
	if entries[0] != (Entry{Addr: 'A', Ptr: 8}) || entries[1] != (Entry{Addr: 'L', Ptr: 2}) {
		t.Fatalf("B entries = %+v", entries)
	}
}

func TestEITEntryLRU(t *testing.T) {
	e := NewEIT(16, 4, 2) // two entries per super-entry
	e.Update(1, 10, 1)
	e.Update(1, 20, 2)
	e.Update(1, 30, 3) // evicts (10, 1)
	entries, _ := e.Lookup(1, nil)
	if len(entries) != 2 || entries[0].Addr != 30 || entries[1].Addr != 20 {
		t.Fatalf("entries = %+v", entries)
	}
	// Refreshing an existing entry updates its pointer and MRU position.
	e.Update(1, 20, 9)
	entries, _ = e.Lookup(1, nil)
	if entries[0] != (Entry{Addr: 20, Ptr: 9}) {
		t.Fatalf("refreshed entry = %+v", entries[0])
	}
}

func TestEITSuperEntryLRU(t *testing.T) {
	// One row, 2 super-entries: force tags into the same row.
	e := NewEIT(1, 2, 3)
	e.Update(1, 10, 1)
	e.Update(2, 20, 2)
	e.Update(3, 30, 3) // evicts tag 1 (LRU)
	if _, ok := e.Lookup(1, nil); ok {
		t.Fatal("tag 1 should have been evicted")
	}
	if _, ok := e.Lookup(2, nil); !ok {
		t.Fatal("tag 2 missing")
	}
	if _, ok := e.Lookup(3, nil); !ok {
		t.Fatal("tag 3 missing")
	}
}

func TestEITLookupRefreshesSuperLRU(t *testing.T) {
	e := NewEIT(1, 2, 3)
	e.Update(1, 10, 1)
	e.Update(2, 20, 2) // MRU order: 2, 1
	e.Lookup(1, nil)   // promotes 1
	e.Update(3, 30, 3) // must evict 2 now
	if _, ok := e.Lookup(2, nil); ok {
		t.Fatal("tag 2 should have been evicted after tag 1 was promoted")
	}
}

func TestEITRowsPowerOfTwo(t *testing.T) {
	e := NewEIT(1000, 4, 3)
	if e.Rows() != 1024 {
		t.Fatalf("Rows = %d, want 1024", e.Rows())
	}
	if NewEIT(0, 0, 0).Rows() != 1 {
		t.Fatal("degenerate geometry")
	}
}

func TestEITPopulatedRows(t *testing.T) {
	e := NewEIT(1024, 4, 3)
	if e.PopulatedRows() != 0 {
		t.Fatal("fresh table populated")
	}
	for i := mem.Line(0); i < 100; i++ {
		e.Update(i, i+1, uint64(i))
	}
	if e.PopulatedRows() == 0 || e.PopulatedRows() > 100 {
		t.Fatalf("PopulatedRows = %d", e.PopulatedRows())
	}
}

func TestEITLookupReturnsCopy(t *testing.T) {
	e := NewEIT(16, 4, 3)
	e.Update(1, 10, 1)
	dst := make([]Entry, 0, 8)
	entries, _ := e.Lookup(1, dst)
	entries[0].Addr = 999
	fresh, _ := e.Lookup(1, nil)
	if fresh[0].Addr != 10 {
		t.Fatal("Lookup exposed internal state")
	}
	// The result is appended to dst, reusing its backing array.
	again, _ := e.Lookup(1, dst[:0])
	if &again[0] != &dst[:1][0] || again[0].Addr != 10 {
		t.Fatal("Lookup did not append into dst")
	}
	if got, ok := e.Lookup(2, dst[:1]); ok || len(got) != 1 {
		t.Fatalf("miss returned %+v, %v; want dst unchanged", got, ok)
	}
}

// refEIT is the original pointer-tree EIT — rows of *superEntry, each with
// its own entry slice, allocated on demand — kept as a test-only oracle
// for the slab-backed EIT. It is deliberately the simplest reading of
// Section III-B: find-or-prepend with a drop-the-tail LRU at both levels.
type refEIT struct {
	rows            []*refRow
	mask            uint64
	shift           uint
	supersPerRow    int
	entriesPerSuper int
	populatedRows   int
}

type refSuperEntry struct {
	tag     mem.Line
	entries []Entry // index 0 is most recently used
}

type refRow struct {
	supers []*refSuperEntry // index 0 is most recently used
}

func newRefEIT(rowCount, supersPerRow, entriesPerSuper int) *refEIT {
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
	return &refEIT{
		rows:            make([]*refRow, n),
		mask:            uint64(n - 1),
		shift:           shift,
		supersPerRow:    supersPerRow,
		entriesPerSuper: entriesPerSuper,
	}
}

func (t *refEIT) rowIndex(line mem.Line) uint64 {
	if t.shift == 64 {
		return 0
	}
	return (uint64(line) * 0x9E3779B97F4A7C15) >> t.shift & t.mask
}

func (t *refEIT) Lookup(line mem.Line) ([]Entry, bool) {
	row := t.rows[t.rowIndex(line)]
	if row == nil {
		return nil, false
	}
	for i, se := range row.supers {
		if se.tag == line {
			copy(row.supers[1:i+1], row.supers[:i])
			row.supers[0] = se
			out := make([]Entry, len(se.entries))
			copy(out, se.entries)
			return out, true
		}
	}
	return nil, false
}

func (t *refEIT) Update(tag, next mem.Line, ptr uint64) {
	idx := t.rowIndex(tag)
	row := t.rows[idx]
	if row == nil {
		row = &refRow{}
		t.rows[idx] = row
		t.populatedRows++
	}

	// Find or allocate the super-entry.
	var se *refSuperEntry
	for i, cand := range row.supers {
		if cand.tag == tag {
			se = cand
			copy(row.supers[1:i+1], row.supers[:i])
			row.supers[0] = se
			break
		}
	}
	if se == nil {
		se = &refSuperEntry{tag: tag}
		if len(row.supers) >= t.supersPerRow {
			row.supers = row.supers[:t.supersPerRow-1] // drop LRU
		}
		row.supers = append([]*refSuperEntry{se}, row.supers...)
	}

	// Find or allocate the entry for next.
	for i := range se.entries {
		if se.entries[i].Addr == next {
			e := se.entries[i]
			e.Ptr = ptr
			copy(se.entries[1:i+1], se.entries[:i])
			se.entries[0] = e
			return
		}
	}
	if len(se.entries) >= t.entriesPerSuper {
		se.entries = se.entries[:t.entriesPerSuper-1]
	}
	se.entries = append([]Entry{{Addr: next, Ptr: ptr}}, se.entries...)
}

// superDump is one super-entry as both tables hold it.
type superDump struct {
	tag     mem.Line
	entries []Entry
}

// dumpRow returns row i's super-entries in MRU order, read without
// touching the row's LRU state. An untouched row is nil.
func (t *refEIT) dumpRow(i uint64) []superDump {
	var out []superDump
	if row := t.rows[i]; row != nil {
		for _, se := range row.supers {
			out = append(out, superDump{se.tag, se.entries})
		}
	}
	return out
}

func dumpEITRow(t *EIT, i uint64) []superDump {
	var out []superDump
	if id := t.rowOf[i]; id != 0 {
		for _, r := range t.row(id) {
			if r.id == 0 {
				break
			}
			out = append(out, superDump{r.tag, t.entries(r.id)[:r.n]})
		}
	}
	return out
}

func sameRows(a, b []superDump) bool {
	return slices.EqualFunc(a, b, func(x, y superDump) bool {
		return x.tag == y.tag && slices.Equal(x.entries, y.entries)
	})
}

// eitOp is one step of a differential run: an Update(tag, next, ptr) or,
// when lookup is set, a Lookup(tag).
type eitOp struct {
	lookup    bool
	tag, next mem.Line
	ptr       uint64
}

// checkEITVsReference applies ops to a slab EIT and the reference with the
// same geometry, requiring identical Lookup results and PopulatedRows
// after every op, an identical row (both LRU levels) wherever an op
// landed, and an identical whole table at the end.
func checkEITVsReference(t *testing.T, rows, supers, entries int, ops []eitOp) {
	t.Helper()
	got, want := NewEIT(rows, supers, entries), newRefEIT(rows, supers, entries)
	var dst []Entry
	for i, op := range ops {
		if op.lookup {
			var ok bool
			dst, ok = got.Lookup(op.tag, dst[:0])
			wantEntries, wantOK := want.Lookup(op.tag)
			if ok != wantOK || (ok && !slices.Equal(dst, wantEntries)) {
				t.Fatalf("geometry %d/%d/%d op %d %+v: Lookup = %+v, %v; reference %+v, %v",
					rows, supers, entries, i, op, dst, ok, wantEntries, wantOK)
			}
		} else {
			got.Update(op.tag, op.next, op.ptr)
			want.Update(op.tag, op.next, op.ptr)
		}
		if got.PopulatedRows() != want.populatedRows {
			t.Fatalf("geometry %d/%d/%d op %d %+v: PopulatedRows = %d, reference %d",
				rows, supers, entries, i, op, got.PopulatedRows(), want.populatedRows)
		}
		idx := want.rowIndex(op.tag)
		if g, w := dumpEITRow(got, idx), want.dumpRow(idx); !sameRows(g, w) {
			t.Fatalf("geometry %d/%d/%d op %d %+v: row %d = %v, reference %v",
				rows, supers, entries, i, op, idx, g, w)
		}
	}
	for idx := range want.rows {
		if g, w := dumpEITRow(got, uint64(idx)), want.dumpRow(uint64(idx)); !sameRows(g, w) {
			t.Fatalf("geometry %d/%d/%d final row %d = %v, reference %v", rows, supers, entries, idx, g, w)
		}
	}
}

// eitLine maps a fuzz byte to a line address: a small alphabet that
// includes address 0, half of it far away in the address space so the
// row hash sees high bits too.
func eitLine(b byte) mem.Line {
	return mem.Line(b&0x3f) | mem.Line(b>>6&1)<<47
}

// decodeEITOps turns fuzz bytes into ops, three bytes each: the low bit
// of the first selects Lookup, then the tag and successor bytes.
func decodeEITOps(data []byte) []eitOp {
	ops := make([]eitOp, 0, len(data)/3)
	for i := 0; i+2 < len(data); i += 3 {
		ops = append(ops, eitOp{
			lookup: data[i]&1 == 1,
			tag:    eitLine(data[i+1]),
			next:   eitLine(data[i+2]),
			ptr:    uint64(i / 3),
		})
	}
	return ops
}

// eitGeometries are the table shapes the differential tests cover: the
// degenerate one-row, one-super-entry and one-entry tables, the paper's
// row shape on a small table, and the E=8 ablation.
var eitGeometries = []struct{ rows, supers, entries int }{
	{1, 4, 3},
	{16, 1, 3},
	{16, 4, 1},
	{1, 1, 1},
	{64, 4, 3},
	{8, 4, 8},
}

func TestEITVsReference(t *testing.T) {
	for _, g := range eitGeometries {
		t.Run(fmt.Sprintf("%dx%dx%d", g.rows, g.supers, g.entries), func(t *testing.T) {
			// Tags and successors from an alphabet a few times larger
			// than the table, so every LRU level both hits and evicts.
			span := uint64(4 * g.rows * g.supers)
			r := uint64(0x5eed)
			next := func() uint64 {
				r ^= r << 13
				r ^= r >> 7
				r ^= r << 17
				return r
			}
			ops := make([]eitOp, 4000)
			for i := range ops {
				ops[i] = eitOp{
					lookup: next()%3 == 0,
					tag:    mem.Line(next() % span), // includes address 0
					next:   mem.Line(next() % uint64(2*g.entries+1)),
					ptr:    uint64(i),
				}
			}
			checkEITVsReference(t, g.rows, g.supers, g.entries, ops)
		})
	}
}

func FuzzEITVsReference(f *testing.F) {
	for _, g := range eitGeometries {
		f.Add(uint8(g.rows), uint8(g.supers), uint8(g.entries),
			[]byte{0, 0, 0, 0, 0, 1, 1, 0, 0, 0, 1, 2, 0, 2, 3, 1, 1, 0, 0, 64, 5, 1, 64, 0})
	}
	f.Fuzz(func(t *testing.T, rows, supers, entries uint8, data []byte) {
		if len(data) > 3*512 {
			data = data[:3*512]
		}
		checkEITVsReference(t, 1+int(rows%64), 1+int(supers%8), 1+int(entries%8), decodeEITOps(data))
	})
}
