// Package flathash implements the open-addressing hash kernel behind the
// prefetchers' metadata indexes (the Domino/Digram pair tables, STMS's
// index table, ISB's PC and structural maps, GHB's index) and the
// lookup-depth analyses of internal/experiments.
//
// Every one of those indexes maps a 64-bit key to one machine word, is
// rebuilt or rewritten millions of times per figure-regeneration sweep,
// and was previously a Go map — whose hashing, bucket metadata and
// write-barrier overheads dominated the sweeps' profiles. Map replaces
// them with the smallest structure that does the job:
//
//   - power-of-two-sized parallel key/value arrays, linear probing;
//   - the MurmurHash3 fmix64 finalizer as the whole hash function (the
//     keys are already line addresses or pre-mixed pair hashes);
//   - tombstone-free deletion by backward shift, so probe chains never
//     accumulate dead slots no matter how many delete/insert cycles a
//     sweep performs;
//   - amortised doubling growth at 3/4 load;
//   - Reset, which clears in place and reuses the backing arrays, so the
//     per-replay churn of a sweep allocates nothing in steady state.
//
// Key 0 is stored out of line (slot key 0 marks an empty slot), so the
// full 64-bit key space is usable.
package flathash

import (
	"fmt"
	"hash/fnv"
)

// Value constrains the stored value types to the two machine-word shapes
// the metadata indexes need: history-table sequence numbers (uint64) and
// positions in in-memory logs (int32).
type Value interface{ ~uint64 | ~int32 }

// Mix64 is the MurmurHash3 fmix64 finalizer: full avalanche, so every
// input bit flips every output bit with probability ~1/2. It is the
// table's hash function and the mixing step of PackPair and Frac.
func Mix64(x uint64) uint64 {
	x ^= x >> 33
	x *= 0xff51afd7ed558ccd
	x ^= x >> 33
	x *= 0xc4ceb9fe1a85ec53
	x ^= x >> 33
	return x
}

// Frac maps (seed, label) to a uniform fraction in [0, 1),
// deterministically: fnv64a of "seed|label", passed through Mix64, with
// the top 53 bits as the float. The finalizer matters: FNV-1a's last
// input byte perturbs the sum by < 2^48 (one multiply by the prime), so
// labels differing in their final characters — "OLTP/s0" vs "OLTP/s1" —
// would otherwise land on nearly identical fractions. The chaos injectors
// of the experiment engine and the serving layer plan faults with it.
func Frac(seed uint64, label string) float64 {
	h := fnv.New64a()
	fmt.Fprintf(h, "%d|%s", seed, label)
	return float64(Mix64(h.Sum64())>>11) / float64(uint64(1)<<53)
}

// PackPair folds an ordered pair of 64-bit words into one 64-bit key for
// pair-indexed tables (Digram's (previous, current) Index Table, ISB's
// (PC, line) structural map). The fold is not injective — no 128→64-bit
// map is — but with both words passed through fmix64 the collision
// probability for n distinct pairs is ~n²/2⁶⁵: below 10⁻⁵ even for the
// hundred-million-pair populations of full-scale sweeps, and the
// conformance goldens pin the actual workloads bit-for-bit (the same
// argument internal/experiments' ngramKey makes for its FNV fold).
func PackPair(a, b uint64) uint64 {
	return Mix64(a ^ Mix64(b^0x9E3779B97F4A7C15))
}

// Map is an open-addressing uint64-keyed hash table. The zero value is
// ready to use; New preallocates for an expected population.
type Map[V Value] struct {
	keys []uint64
	vals []V
	mask uint64
	n    int // occupied slots, excluding the out-of-line zero key
	max  int // occupancy at which the next Put doubles the table

	zeroVal V
	hasZero bool
}

const minCap = 8

// threshold is the maximum occupancy of a table of capacity c: 1/2 load.
// Linear probing is kept sparse deliberately — at load α the expected
// probe count of a *miss* is (1+1/(1-α)²)/2, and misses are the common
// case for the prefetcher indexes (every stream start misses), so 1/2
// (≈2.5 probes) wins over the usual 3/4 (≈8.5) despite the extra memory.
func threshold(c int) int { return c / 2 }

// New returns a map preallocated to hold hint entries without growing.
func New[V Value](hint int) *Map[V] {
	m := &Map[V]{}
	if hint > 0 {
		c := minCap
		for threshold(c) < hint {
			c <<= 1
		}
		m.init(c)
	}
	return m
}

func (m *Map[V]) init(c int) {
	m.keys = make([]uint64, c)
	m.vals = make([]V, c)
	m.mask = uint64(c - 1)
	m.max = threshold(c)
}

// Len returns the number of stored entries.
func (m *Map[V]) Len() int {
	if m.hasZero {
		return m.n + 1
	}
	return m.n
}

// Cap returns the current slot-array capacity (0 for an untouched zero
// value). It is exposed for the growth and Reset-reuse tests.
func (m *Map[V]) Cap() int { return len(m.keys) }

// Get returns the value stored under k.
func (m *Map[V]) Get(k uint64) (V, bool) {
	if k == 0 {
		if m.hasZero {
			return m.zeroVal, true
		}
		var z V
		return z, false
	}
	if m.n == 0 {
		var z V
		return z, false
	}
	i := Mix64(k) & m.mask
	for {
		kk := m.keys[i]
		if kk == k {
			return m.vals[i], true
		}
		if kk == 0 {
			var z V
			return z, false
		}
		i = (i + 1) & m.mask
	}
}

// Put stores v under k, replacing any existing value.
func (m *Map[V]) Put(k uint64, v V) {
	if k == 0 {
		m.zeroVal, m.hasZero = v, true
		return
	}
	if m.keys == nil {
		m.init(minCap)
	}
	i := Mix64(k) & m.mask
	for {
		kk := m.keys[i]
		if kk == k {
			m.vals[i] = v
			return
		}
		if kk == 0 {
			break
		}
		i = (i + 1) & m.mask
	}
	if m.n >= m.max {
		m.grow()
		i = Mix64(k) & m.mask
		for m.keys[i] != 0 {
			i = (i + 1) & m.mask
		}
	}
	m.keys[i] = k
	m.vals[i] = v
	m.n++
}

// grow doubles the table and reinserts every entry. The old arrays are
// released; Reset, by contrast, reuses them.
func (m *Map[V]) grow() {
	oldKeys, oldVals := m.keys, m.vals
	m.init(len(oldKeys) * 2)
	for i, k := range oldKeys {
		if k == 0 {
			continue
		}
		j := Mix64(k) & m.mask
		for m.keys[j] != 0 {
			j = (j + 1) & m.mask
		}
		m.keys[j] = k
		m.vals[j] = oldVals[i]
	}
}

// Delete removes k, reporting whether it was present. Removal is
// tombstone-free: the probe chain after the vacated slot is shifted
// backward so every surviving entry stays reachable and no dead slot is
// left to lengthen future probes.
func (m *Map[V]) Delete(k uint64) bool {
	if k == 0 {
		if !m.hasZero {
			return false
		}
		var z V
		m.zeroVal, m.hasZero = z, false
		return true
	}
	if m.n == 0 {
		return false
	}
	i := Mix64(k) & m.mask
	for {
		kk := m.keys[i]
		if kk == 0 {
			return false
		}
		if kk == k {
			break
		}
		i = (i + 1) & m.mask
	}
	m.deleteAt(i)
	return true
}

// deleteAt vacates slot i and backward-shifts the following probe chain:
// each subsequent entry moves into the hole iff its home slot lies
// cyclically at or before the hole (it would become unreachable across an
// empty slot otherwise); the hole follows the moved entry until the chain
// ends at an empty slot.
func (m *Map[V]) deleteAt(i uint64) {
	var z V
	j := i
	for {
		j = (j + 1) & m.mask
		kj := m.keys[j]
		if kj == 0 {
			break
		}
		if h := Mix64(kj) & m.mask; (j-h)&m.mask >= (j-i)&m.mask {
			m.keys[i], m.vals[i] = kj, m.vals[j]
			i = j
		}
	}
	m.keys[i] = 0
	m.vals[i] = z
	m.n--
}

// DeleteWhere removes every entry for which drop returns true. drop must
// be pure: backward shifts can move a not-yet-visited entry into an
// already visited slot, where it is examined a second time.
func (m *Map[V]) DeleteWhere(drop func(k uint64, v V) bool) {
	if m.hasZero && drop(0, m.zeroVal) {
		var z V
		m.zeroVal, m.hasZero = z, false
	}
	for i := 0; i < len(m.keys); i++ {
		if k := m.keys[i]; k != 0 && drop(k, m.vals[i]) {
			m.deleteAt(uint64(i))
			i-- // the shift may have refilled slot i; re-examine it
		}
	}
}

// Range calls f for every entry, in unspecified order, until f returns
// false. f must not mutate the map.
func (m *Map[V]) Range(f func(k uint64, v V) bool) {
	if m.hasZero && !f(0, m.zeroVal) {
		return
	}
	for i, k := range m.keys {
		if k != 0 && !f(k, m.vals[i]) {
			return
		}
	}
}

// Reset empties the map in place, reusing the backing arrays: a sweep
// that resets its index between replays allocates nothing in steady
// state.
func (m *Map[V]) Reset() {
	clear(m.keys)
	clear(m.vals)
	m.n = 0
	var z V
	m.zeroVal, m.hasZero = z, false
}
