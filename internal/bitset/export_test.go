package bitset

// Remove deletes i from the set. It panics if i is out of range.
func (s *Set) Remove(i int) {
	s.boundsCheck(i)
	s.words[i/wordBits] &^= 1 << uint(i%wordBits)
}

// Union sets s = s ∪ t. Capacities must match.
func (s *Set) Union(t *Set) {
	s.capCheck(t)
	for i, w := range t.words {
		s.words[i] |= w
	}
}

// Equal reports whether s and t contain exactly the same elements.
// Sets of different capacity are equal if their common elements match and the
// longer set has no elements beyond the shorter capacity.
func (s *Set) Equal(t *Set) bool {
	short, long := s.words, t.words
	if len(long) < len(short) {
		short, long = long, short
	}
	for i, w := range short {
		if w != long[i] {
			return false
		}
	}
	for _, w := range long[len(short):] {
		if w != 0 {
			return false
		}
	}
	return true
}
