package keys

import (
	"math/bits"
	"slices"
)

// SharedCount returns |ring(u) ∩ ring(v)| without allocating.
func (x *Intersector) SharedCount(u, v int32) int {
	if x.rowU == u || x.rowU == v || x.extendRun(u, v) {
		return x.rowCount(x.rowOther(u, v))
	}
	if x.useFlat(1) {
		a, b := x.row(u), x.row(v)
		c := 0
		for i, w := range a {
			c += bits.OnesCount64(w & b[i])
		}
		return c
	}
	x.mark(u)
	return x.marks.Count(x.rings[v])
}

// AppendShared appends the shared keys of rings u and v to dst in ascending
// order and returns the extended slice.
func (x *Intersector) AppendShared(u, v int32, dst []ID) []ID {
	if x.useFlat(1) {
		a, b := x.row(u), x.row(v)
		for i, w := range a {
			w &= b[i]
			base := i * 64
			for w != 0 {
				dst = append(dst, ID(base+bits.TrailingZeros64(w)))
				w &= w - 1
			}
		}
		return dst
	}
	start := len(dst)
	x.mark(u)
	dst = x.marks.AppendShared(x.rings[v], dst)
	slices.Sort(dst[start:])
	return dst
}

// mergeShared is the oracle every intersection is checked against: the
// sorted merge of ascending copies of the two rings, which holds whatever
// order the rings keep their keys in.
func mergeShared(a, b Ring) []ID {
	x, y := a.IDs(), b.IDs()
	shared := []ID{}
	i, j := 0, 0
	for i < len(x) && j < len(y) {
		switch {
		case x[i] == y[j]:
			shared = append(shared, x[i])
			i++
			j++
		case x[i] < y[j]:
			i++
		default:
			j++
		}
	}
	return shared
}

// Label returns sensor v's class index.
func (a Assignment) Label(v int) int {
	if a.Labels == nil {
		return 0
	}
	return int(a.Labels[v])
}

// RingSize returns K, the uniform per-sensor ring size of the 1-class
// scheme.
func (s *QComposite) RingSize() int { return s.ring }

// Contains reports whether the ring holds key k.
func (r Ring) Contains(k ID) bool { return slices.Contains(r.ids, k) }
