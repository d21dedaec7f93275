package keys

import (
	"fmt"

	"github.com/secure-wsn/qcomposite/internal/rng"
)

// RingArena amortizes ring storage across repeated assignments: all key IDs
// of an assignment live in one flat backing slice and the Ring headers in one
// slice, so assigning n rings costs O(1) allocations after the first use.
// Each ring is drawn (rng.SubsetSampler.AppendSample) straight into the flat
// slice and kept in draw order, so no ring is copied or sorted.
//
// Rings returned by an arena-backed assignment are views into the arena and
// remain valid only until the next assignment into the same arena. The zero
// value is ready to use.
//
// The arena knows its last draw: every ID in ids was drawn from [0, pool)
// by it, so an Intersector may trust rings shown to be views of ids
// (Intersector.ResetFrom). The proof reads only ids, which nothing outside
// the arena can reach; the ring headers in rings are handed out as
// Assignment.Rings, which a caller may overwrite.
type RingArena struct {
	ids     []ID
	pool    int // the pool the IDs in ids were drawn from
	rings   []Ring
	labels  []uint8 // per-sensor class labels of multi-class schemes
	sampler *rng.SubsetSampler
}

// ensureSampler returns a SubsetSampler over [0, pool), reusing the cached
// one when the pool matches. A SubsetSampler rolls its permutation back
// after every draw, so a cached one behaves exactly like a fresh one and
// can be reused across assignments (it is the arena's largest single
// buffer).
func (a *RingArena) ensureSampler(pool int) (*rng.SubsetSampler, error) {
	if a.sampler == nil || a.sampler.Universe() != pool {
		var err error
		a.sampler, err = rng.NewSubsetSampler(pool)
		if err != nil {
			return nil, fmt.Errorf("keys: assign: %w", err)
		}
	}
	return a.sampler, nil
}

// reserve readies the arena for an assignment of n rings totalling totalIDs
// key IDs drawn from [0, pool). The flat ID slice is reserved in full up
// front: it must not grow while rings are being appended, or earlier Ring
// views would alias a stale backing array.
func (a *RingArena) reserve(n, totalIDs, pool int) {
	if cap(a.ids) < totalIDs {
		a.ids = make([]ID, 0, totalIDs)
	}
	a.ids = a.ids[:0]
	a.pool = pool
	if cap(a.rings) < n {
		a.rings = make([]Ring, 0, n)
	}
	a.rings = a.rings[:0]
}

// appendRing samples one ring of the given size into the arena. A subset
// has distinct elements, so the appended IDs, in draw order, are already a
// valid ring.
func (a *RingArena) appendRing(r *rng.Rand, sampler *rng.SubsetSampler, size int) error {
	start := len(a.ids)
	ids, err := sampler.AppendSample(r, size, a.ids)
	if err != nil {
		return err
	}
	a.ids = ids
	a.rings = append(a.rings, Ring{ids: ids[start:len(ids):len(ids)]})
	return nil
}

// drew reports whether rings are exactly the arena's last draw from a pool
// no larger than pool: ring v must start in the arena's own ID storage at
// the offset where rings 0…v−1 end, and the rings must cover that storage.
// It is O(n): one pointer comparison per ring, and no ID is read.
func (a *RingArena) drew(rings []Ring, pool int) bool {
	if a.pool > pool {
		return false
	}
	off := 0
	for _, r := range rings {
		l := len(r.ids)
		if l == 0 {
			continue
		}
		if off+l > len(a.ids) || &r.ids[0] != &a.ids[off] {
			return false
		}
		off += l
	}
	return off == len(a.ids)
}

// AssignInto implements Scheme. It draws the same rings as Assign for
// the same generator state (same per-sensor subset draws, in order), but
// stores them in the arena.
func (s *QComposite) AssignInto(r *rng.Rand, n int, a *RingArena) (Assignment, error) {
	if n < 0 {
		return Assignment{}, fmt.Errorf("keys: negative sensor count %d", n)
	}
	sampler, err := a.ensureSampler(s.pool)
	if err != nil {
		return Assignment{}, err
	}
	a.reserve(n, n*s.ring, s.pool)
	for v := 0; v < n; v++ {
		if err := a.appendRing(r, sampler, s.ring); err != nil {
			return Assignment{}, fmt.Errorf("keys: assign sensor %d: %w", v, err)
		}
	}
	return Assignment{Rings: a.rings}, nil
}
