package solver

// The dominance memo of the solver: for every scheduled-set mask it keeps
// the Pareto frontier of state vectors (device availability + frontier
// finish times) seen so far, and prunes any node whose state is
// componentwise dominated by a stored one.
//
// The table is built for reuse across hundreds of instance solves per
// sweep with zero steady-state allocations:
//
//   - open addressing with linear probing over a power-of-two slot array
//     (no per-key map buckets),
//   - dominance vectors packed two int32 components per uint64 word and
//     stored back-to-back in one growable arena addressed by offset (no
//     per-entry vector allocations); dominance compares lane-parallel,
//   - fixed-size list entries recycled through a free list when an insert
//     evicts the entries it dominates,
//   - a generation counter so reset() invalidates every slot in O(1)
//     without clearing or reallocating the table.
//
// The pruning semantics are exactly those of the map-of-slices memo this
// replaces: a probe prunes iff some stored vector with the same mask
// dominates the probe, and a non-pruned probe is inserted (dropping the
// stored vectors it dominates) until memoCap total inserts, after which the
// memo is read-only for the rest of the solve.

// memoCap bounds the number of vectors inserted per solve; beyond it the
// memo keeps answering probes from what it has but stops growing.
const memoCap = 1 << 18

// memoMinSlots is the initial slot-array size (power of two).
const memoMinSlots = 1 << 10

// memoSlot is one open-addressed key: a scheduled-set mask and the head of
// its dominance-vector list. A slot is live only when its gen matches the
// table's; stale slots read as empty, which is what makes reset O(1).
type memoSlot struct {
	hash uint64
	// key64 is the mask itself when it fits one word; otherwise maskOff
	// locates the words in the mask arena.
	key64   uint64
	maskOff int32
	head    int32 // first entry index, -1 when the list is empty
	vlen    int32 // vector length in packed words, shared across the key
	gen     uint32
}

// memoEntry is one stored vector: its component sum (the key's chain is
// sorted by it), an offset into the vector arena, and the next entry of the
// same key (or -1). Evicted entries go on a free list.
type memoEntry struct {
	sum  int64
	off  int32
	next int32
}

// memoTable is the open-addressed dominance memo. The zero value is ready
// after reset().
type memoTable struct {
	slots     []memoSlot
	gen       uint32
	live      int // live keys this generation (load-factor accounting)
	size      int // vectors inserted this generation (memoCap accounting)
	entries   []memoEntry
	freeEnt   int32 // head of the recycled-entry list, -1 when empty
	vecs      []uint64
	masks     []uint64
	maskWords int

	// Probe cache: where the last (missing) probe ended, consumed by the
	// insert that immediately follows it.
	pIdx      int32
	pBoundary int32
	pFound    bool
	pHash     uint64
}

// reset invalidates every stored state and prepares the table for a solve
// whose scheduled-set masks span maskWords words. Slot, entry, vector and
// mask storage is retained, so a reused searcher pays no allocations here.
func (m *memoTable) reset(maskWords int) {
	m.gen++
	if m.gen == 0 || len(m.slots) == 0 {
		// Fresh table, or the 32-bit generation wrapped (after ~4e9 solves):
		// fall back to an explicit clear so stale gens cannot read as live.
		if len(m.slots) == 0 {
			m.slots = make([]memoSlot, memoMinSlots)
		}
		clear(m.slots)
		m.gen = 1
	}
	m.live = 0
	m.size = 0
	m.entries = m.entries[:0]
	m.freeEnt = -1
	m.vecs = m.vecs[:0]
	m.masks = m.masks[:0]
	m.maskWords = maskWords
}

// mix64 is the splitmix64 finalizer — a full-avalanche mixer for mask
// hashing.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

func hashMask(mask []uint64) uint64 {
	h := uint64(0x9e3779b97f4a7c15)
	for _, w := range mask {
		h = mix64(h ^ w)
	}
	return h
}

// findSlot probes for the slot holding mask, returning its index and
// whether it is live. When not found, the returned index is the first free
// slot on the probe path (where an insert for this mask must go).
func (m *memoTable) findSlot(mask []uint64, hash uint64) (int, bool) {
	idx := int(hash) & (len(m.slots) - 1)
	for {
		sl := &m.slots[idx]
		if sl.gen != m.gen {
			return idx, false
		}
		if sl.hash == hash && m.slotKeyEqual(sl, mask) {
			return idx, true
		}
		idx = (idx + 1) & (len(m.slots) - 1)
	}
}

func (m *memoTable) slotKeyEqual(sl *memoSlot, mask []uint64) bool {
	if m.maskWords == 1 {
		return sl.key64 == mask[0]
	}
	stored := m.masks[sl.maskOff : int(sl.maskOff)+m.maskWords]
	for i, w := range stored {
		if w != mask[i] {
			return false
		}
	}
	return true
}

// grow doubles the slot array and rehashes the live slots. Entry, vector
// and mask storage is untouched — offsets remain valid.
func (m *memoTable) grow() {
	old := m.slots
	m.slots = make([]memoSlot, 2*len(old))
	for i := range old {
		sl := &old[i]
		if sl.gen != m.gen {
			continue
		}
		idx := int(sl.hash) & (len(m.slots) - 1)
		for m.slots[idx].gen == m.gen {
			idx = (idx + 1) & (len(m.slots) - 1)
		}
		m.slots[idx] = *sl
	}
}

// laneHigh has the high bit of each packed 32-bit lane set.
const laneHigh = 0x8000000080000000

// dominates reports a ≤ b componentwise over vectors packed two
// non-negative int32 components per word: lane-wise, (b|H) − a keeps the
// lane's high bit set exactly when b ≥ a, and the +2^31 bias keeps lanes
// from borrowing into each other.
func dominates(a, b []uint64) bool {
	if len(b) < len(a) {
		return false // unreachable: per-key vectors share a length
	}
	b = b[:len(a)]
	for i, av := range a {
		if ((b[i]|laneHigh)-av)&laneHigh != laneHigh {
			return false
		}
	}
	return true
}

// probe reports whether a stored state with the same scheduled-set mask
// dominates vec. It caches the probe position (slot, chain boundary) so a
// subsequent insert for the same state resumes without re-walking; any
// other table operation invalidates the cache implicitly (insert is only
// ever called right after its probe, on the same searcher).
//
// Each key's chain is kept sorted by ascending component sum, which makes
// the walk one-pass: entries with sum ≤ vsum are the only possible
// dominators of vec, and entries past the boundary can never dominate it
// (they are only eviction candidates for insert).
func (m *memoTable) probe(mask []uint64, vec []uint64, vsum int64) bool {
	hash := hashMask(mask)
	idx, found := m.findSlot(mask, hash)
	m.pIdx, m.pFound, m.pHash = int32(idx), found, hash
	boundary := int32(-1) // last entry with sum ≤ vsum
	if found {
		sl := &m.slots[idx]
		vlen := sl.vlen
		for e := sl.head; e >= 0; {
			ent := &m.entries[e]
			if ent.sum > vsum {
				break
			}
			if dominates(m.vecs[ent.off:ent.off+vlen], vec) {
				return true
			}
			boundary = e
			e = ent.next
		}
	}
	m.pBoundary = boundary
	return false
}

// insert records the vector of the probe that just missed, evicting the
// stored vectors it dominates (their entries are recycled; their arena
// ranges are reclaimed only by the next reset) and keeping the chain
// sum-sorted. Beyond memoCap recorded vectors the memo is read-only.
func (m *memoTable) insert(mask []uint64, vec []uint64, vsum int64) {
	if m.size >= memoCap {
		return
	}
	idx, boundary := int(m.pIdx), m.pBoundary
	var sl *memoSlot
	if m.pFound {
		sl = &m.slots[idx]
		// Evict the tail entries vec dominates.
		pe := boundary
		var e int32
		if boundary < 0 {
			e = sl.head
		} else {
			e = m.entries[boundary].next
		}
		for e >= 0 {
			next := m.entries[e].next
			off := m.entries[e].off
			if dominates(vec, m.vecs[off:off+sl.vlen]) {
				if pe < 0 {
					sl.head = next
				} else {
					m.entries[pe].next = next
				}
				m.entries[e].next = m.freeEnt
				m.freeEnt = e
			} else {
				pe = e
			}
			e = next
		}
	} else {
		if (m.live+1)*4 > len(m.slots)*3 {
			m.grow()
			i, _ := m.findSlot(mask, m.pHash)
			idx = i
		}
		sl = &m.slots[idx]
		*sl = memoSlot{hash: m.pHash, maskOff: -1, head: -1, vlen: int32(len(vec)), gen: m.gen}
		if m.maskWords == 1 {
			sl.key64 = mask[0]
		} else {
			sl.maskOff = int32(len(m.masks))
			m.masks = append(m.masks, mask...)
		}
		m.live++
	}
	// Record vec in the arena and splice it in at the sum boundary.
	off := int32(len(m.vecs))
	m.vecs = append(m.vecs, vec...)
	var tail int32
	if boundary < 0 {
		tail = sl.head
	} else {
		tail = m.entries[boundary].next
	}
	var ei int32
	if m.freeEnt >= 0 {
		ei = m.freeEnt
		m.freeEnt = m.entries[ei].next
		m.entries[ei] = memoEntry{sum: vsum, off: off, next: tail}
	} else {
		ei = int32(len(m.entries))
		m.entries = append(m.entries, memoEntry{sum: vsum, off: off, next: tail})
	}
	if boundary < 0 {
		sl.head = ei
	} else {
		m.entries[boundary].next = ei
	}
	m.size++
}
