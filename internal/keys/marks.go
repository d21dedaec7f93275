package keys

// RingMarks holds the keys of one ring as marks in a pool-sized bitmap, so
// that what another ring shares with it is found by probing: one bit test
// per key of the other ring, in any order, where a sorted merge needs both
// rings ascending and a data-dependent branch per step. It is the one
// pairwise primitive of the package: the Intersector probes the short rows
// of sparse rings against it, and a wsn.Network collects each link's shared
// keys with it.
//
// The marks are cleared from the RingMarks' own copy of the marked keys,
// never by re-reading a ring, so a ring view whose backing storage has been
// overwritten since (a reused RingArena) cannot leave a stale mark behind.
// The zero value must be Reset before use. A RingMarks is not safe for
// concurrent use.
type RingMarks struct {
	words  []uint64 // bit k set iff key k is marked; zero elsewhere
	marked []ID     // the marked keys
}

// Reset sizes the bitmap for keys in [0, pool) and drops every mark, keeping
// the storage.
func (m *RingMarks) Reset(pool int) {
	m.clear()
	if w := (pool + 63) / 64; cap(m.words) < w {
		m.words = make([]uint64, w)
	} else {
		// Every word up to the capacity is zero: marks are cleared before
		// the bitmap shrinks or grows.
		m.words = m.words[:w]
	}
}

// Mark replaces the marks with the keys of r, which must lie in the pool.
func (m *RingMarks) Mark(r Ring) {
	m.clear()
	for _, k := range r.ids {
		m.words[uint32(k)>>6] |= 1 << (uint32(k) & 63)
	}
	m.marked = append(m.marked, r.ids...)
}

// clear drops every mark.
func (m *RingMarks) clear() {
	for _, k := range m.marked {
		m.words[uint32(k)>>6] = 0
	}
	m.marked = m.marked[:0]
}

// Count returns how many keys of r are marked: |marked ∩ r|. The keys of r
// must lie in the pool.
func (m *RingMarks) Count(r Ring) int {
	c := 0
	for _, k := range r.ids {
		c += int(m.words[uint32(k)>>6] >> (uint32(k) & 63) & 1)
	}
	return c
}

// AppendShared appends the keys of r that are marked to dst, in r's order,
// and returns the extended slice. The keys of r must lie in the pool.
func (m *RingMarks) AppendShared(r Ring, dst []ID) []ID {
	for _, k := range r.ids {
		if m.words[uint32(k)>>6]>>(uint32(k)&63)&1 != 0 {
			dst = append(dst, k)
		}
	}
	return dst
}
