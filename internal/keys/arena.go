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
type RingArena struct {
	ids     []ID
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
// key IDs. The flat ID slice is reserved in full up front: it must not grow
// while rings are being appended, or earlier Ring views would alias a stale
// backing array.
func (a *RingArena) reserve(n, totalIDs int) {
	if cap(a.ids) < totalIDs {
		a.ids = make([]ID, 0, totalIDs)
	}
	a.ids = a.ids[:0]
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
	a.reserve(n, n*s.ring)
	for v := 0; v < n; v++ {
		if err := a.appendRing(r, sampler, s.ring); err != nil {
			return Assignment{}, fmt.Errorf("keys: assign sensor %d: %w", v, err)
		}
	}
	return Assignment{Rings: a.rings}, nil
}
