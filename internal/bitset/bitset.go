// Package bitset provides a dense, fixed-capacity bit set over a key pool:
// the adversary's learned keys and a network's revoked keys.
//
// The zero value of Set is an empty set with zero capacity; use New to
// allocate capacity up front. Union requires equal capacities and panics on
// a mismatch: that is a bug in the caller, never an expected runtime
// failure.
package bitset

import (
	"fmt"
	"math/bits"
	"strings"
)

const wordBits = 64

// Set is a dense bit set over the universe [0, n), n its capacity.
type Set struct {
	words []uint64
	n     int // capacity in bits
}

// New returns an empty Set with capacity for n bits.
// n must be non-negative; a negative n yields a zero-capacity set.
func New(n int) *Set {
	if n < 0 {
		n = 0
	}
	return &Set{
		words: make([]uint64, (n+wordBits-1)/wordBits),
		n:     n,
	}
}

// Add inserts i into the set. It panics if i is out of range, which is a
// programmer error (callers own the universe size).
func (s *Set) Add(i int) {
	s.boundsCheck(i)
	s.words[i/wordBits] |= 1 << uint(i%wordBits)
}

// Contains reports whether i is in the set. Out-of-range values are never
// members (no panic: queries are total).
func (s *Set) Contains(i int) bool {
	if i < 0 || i >= s.n {
		return false
	}
	return s.words[i/wordBits]&(1<<uint(i%wordBits)) != 0
}

func (s *Set) boundsCheck(i int) {
	if i < 0 || i >= s.n {
		panic(fmt.Sprintf("bitset: index %d out of range [0, %d)", i, s.n))
	}
}

// Count returns the number of elements in the set.
func (s *Set) Count() int {
	c := 0
	for _, w := range s.words {
		c += bits.OnesCount64(w)
	}
	return c
}

func (s *Set) capCheck(t *Set) {
	if s.n != t.n {
		panic(fmt.Sprintf("bitset: capacity mismatch %d != %d", s.n, t.n))
	}
}

// ForEach calls fn on each element in ascending order. Iteration stops early
// if fn returns false.
func (s *Set) ForEach(fn func(i int) bool) {
	for wi, w := range s.words {
		base := wi * wordBits
		for w != 0 {
			tz := bits.TrailingZeros64(w)
			if !fn(base + tz) {
				return
			}
			w &= w - 1
		}
	}
}

// String renders the set as "{a, b, c}" for debugging.
func (s *Set) String() string {
	var b strings.Builder
	b.WriteByte('{')
	first := true
	s.ForEach(func(i int) bool {
		if !first {
			b.WriteString(", ")
		}
		first = false
		fmt.Fprintf(&b, "%d", i)
		return true
	})
	b.WriteByte('}')
	return b.String()
}
