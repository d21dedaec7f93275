package keys

import (
	"math/bits"
	"sort"
)

// SharedCount returns |ring(u) ∩ ring(v)| without allocating.
func (x *Intersector) SharedCount(u, v int32) int {
	if x.rowU == u || x.rowU == v || x.extendRun(u, v) {
		return x.rowCount(x.rowOther(u, v))
	}
	if x.dense {
		a, b := x.row(u), x.row(v)
		c := 0
		for i, w := range a {
			c += bits.OnesCount64(w & b[i])
		}
		return c
	}
	return x.rings[u].SharedCount(x.rings[v])
}

// AppendShared appends the sorted shared keys of rings u and v to dst and
// returns the extended slice.
func (x *Intersector) AppendShared(u, v int32, dst []ID) []ID {
	if x.dense {
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
	return x.rings[u].AppendShared(x.rings[v], dst)
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
func (r Ring) Contains(k ID) bool {
	i := sort.Search(len(r.ids), func(i int) bool { return r.ids[i] >= k })
	return i < len(r.ids) && r.ids[i] == k
}
