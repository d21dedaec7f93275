package bitset

import (
	"fmt"
	"math/bits"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestNewEmpty(t *testing.T) {
	tests := []struct {
		name string
		n    int
		want int
	}{
		{name: "zero", n: 0, want: 0},
		{name: "negative clamps", n: -5, want: 0},
		{name: "one word", n: 64, want: 64},
		{name: "partial word", n: 70, want: 70},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			s := New(tt.n)
			if got := s.n; got != tt.want {
				t.Errorf("capacity = %d, want %d", got, tt.want)
			}
			if got := s.Count(); got != 0 {
				t.Errorf("Count() = %d, want 0", got)
			}
		})
	}
}

func TestAddRemoveContains(t *testing.T) {
	s := New(130)
	for _, i := range []int{0, 1, 63, 64, 65, 127, 128, 129} {
		if s.Contains(i) {
			t.Errorf("Contains(%d) = true before Add", i)
		}
		s.Add(i)
		if !s.Contains(i) {
			t.Errorf("Contains(%d) = false after Add", i)
		}
	}
	if got := s.Count(); got != 8 {
		t.Fatalf("Count() = %d, want 8", got)
	}
	s.Remove(64)
	if s.Contains(64) {
		t.Error("Contains(64) = true after Remove")
	}
	if got := s.Count(); got != 7 {
		t.Fatalf("Count() = %d, want 7", got)
	}
	// Re-adding is idempotent.
	s.Add(0)
	if got := s.Count(); got != 7 {
		t.Fatalf("Count() after duplicate Add = %d, want 7", got)
	}
}

func TestContainsOutOfRange(t *testing.T) {
	s := New(10)
	if s.Contains(-1) {
		t.Error("Contains(-1) = true, want false")
	}
	if s.Contains(10) {
		t.Error("Contains(10) = true, want false")
	}
}

func TestAddPanicsOutOfRange(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Add out of range did not panic")
		}
	}()
	New(4).Add(4)
}

func TestFromIndices(t *testing.T) {
	s, err := fromIndices(100, []int{3, 1, 99})
	if err != nil {
		t.Fatalf("FromIndices: %v", err)
	}
	want := []int{1, 3, 99}
	got := s.indices(nil)
	if len(got) != len(want) {
		t.Fatalf("Indices = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Indices = %v, want %v", got, want)
		}
	}
	if _, err := fromIndices(10, []int{10}); err == nil {
		t.Error("FromIndices out of range: got nil error")
	}
	if _, err := fromIndices(10, []int{-1}); err == nil {
		t.Error("FromIndices negative: got nil error")
	}
}

func TestSetAlgebra(t *testing.T) {
	mk := func(idx ...int) *Set {
		s, err := fromIndices(200, idx)
		if err != nil {
			t.Fatalf("FromIndices: %v", err)
		}
		return s
	}
	t.Run("union", func(t *testing.T) {
		a := mk(1, 2, 3)
		a.Union(mk(3, 4, 100))
		if !a.Equal(mk(1, 2, 3, 4, 100)) {
			t.Errorf("union = %v", a)
		}
	})
	t.Run("intersect", func(t *testing.T) {
		a := mk(1, 2, 3, 100)
		a.intersect(mk(2, 100, 150))
		if !a.Equal(mk(2, 100)) {
			t.Errorf("intersect = %v", a)
		}
	})
	t.Run("difference", func(t *testing.T) {
		a := mk(1, 2, 3)
		a.difference(mk(2, 7))
		if !a.Equal(mk(1, 3)) {
			t.Errorf("difference = %v", a)
		}
	})
	t.Run("subset", func(t *testing.T) {
		if !mk(1, 2).isSubsetOf(mk(1, 2, 3)) {
			t.Error("subset = false, want true")
		}
		if mk(1, 4).isSubsetOf(mk(1, 2, 3)) {
			t.Error("subset = true, want false")
		}
		if !mk().isSubsetOf(mk()) {
			t.Error("empty subset of empty = false")
		}
	})
}

func TestIntersectionCount(t *testing.T) {
	tests := []struct {
		name string
		a, b []int
		want int
	}{
		{name: "disjoint", a: []int{1, 2}, b: []int{3, 4}, want: 0},
		{name: "overlap", a: []int{1, 2, 64, 65}, b: []int{2, 64, 99}, want: 2},
		{name: "identical", a: []int{5, 70, 120}, b: []int{5, 70, 120}, want: 3},
		{name: "empty", a: nil, b: []int{1}, want: 0},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			a, err := fromIndices(128, tt.a)
			if err != nil {
				t.Fatal(err)
			}
			b, err := fromIndices(128, tt.b)
			if err != nil {
				t.Fatal(err)
			}
			if got := a.intersectionCount(b); got != tt.want {
				t.Errorf("IntersectionCount = %d, want %d", got, tt.want)
			}
			if got := b.intersectionCount(a); got != tt.want {
				t.Errorf("IntersectionCount reversed = %d, want %d", got, tt.want)
			}
		})
	}
}

func TestIntersectionCountDifferentCaps(t *testing.T) {
	a, err := fromIndices(64, []int{1, 63})
	if err != nil {
		t.Fatal(err)
	}
	b, err := fromIndices(256, []int{1, 63, 200})
	if err != nil {
		t.Fatal(err)
	}
	if got := a.intersectionCount(b); got != 2 {
		t.Errorf("IntersectionCount = %d, want 2", got)
	}
	if got := b.intersectionCount(a); got != 2 {
		t.Errorf("IntersectionCount reversed = %d, want 2", got)
	}
}

func TestIntersectsAtLeast(t *testing.T) {
	a, err := fromIndices(512, []int{1, 100, 200, 300})
	if err != nil {
		t.Fatal(err)
	}
	b, err := fromIndices(512, []int{100, 200, 300, 400})
	if err != nil {
		t.Fatal(err)
	}
	for q := 0; q <= 3; q++ {
		if !a.intersectsAtLeast(b, q) {
			t.Errorf("IntersectsAtLeast(q=%d) = false, want true", q)
		}
	}
	if a.intersectsAtLeast(b, 4) {
		t.Error("IntersectsAtLeast(q=4) = true, want false")
	}
}

func TestCloneIndependence(t *testing.T) {
	a := New(64)
	a.Add(7)
	b := a.clone()
	b.Add(9)
	if a.Contains(9) {
		t.Error("mutating clone affected original")
	}
	if !b.Contains(7) {
		t.Error("clone lost element")
	}
}

func TestClear(t *testing.T) {
	a := New(128)
	a.Add(0)
	a.Add(127)
	a.reset()
	if got := a.Count(); got != 0 {
		t.Errorf("Count after Clear = %d, want 0", got)
	}
	if got := a.n; got != 128 {
		t.Errorf("capacity after reset = %d, want 128", got)
	}
}

func TestForEachEarlyStop(t *testing.T) {
	a, err := fromIndices(64, []int{1, 2, 3, 4})
	if err != nil {
		t.Fatal(err)
	}
	var seen []int
	a.ForEach(func(i int) bool {
		seen = append(seen, i)
		return len(seen) < 2
	})
	if len(seen) != 2 || seen[0] != 1 || seen[1] != 2 {
		t.Errorf("ForEach early stop saw %v, want [1 2]", seen)
	}
}

func TestString(t *testing.T) {
	a, err := fromIndices(64, []int{3, 1})
	if err != nil {
		t.Fatal(err)
	}
	if got, want := a.String(), "{1, 3}"; got != want {
		t.Errorf("String() = %q, want %q", got, want)
	}
	if got, want := New(8).String(), "{}"; got != want {
		t.Errorf("empty String() = %q, want %q", got, want)
	}
}

// randomSet builds a reproducible random set over [0, n) plus the mirror
// Go map for model-based checks.
func randomSet(r *rand.Rand, n int) (*Set, map[int]bool) {
	s := New(n)
	m := make(map[int]bool)
	for i := 0; i < n/2; i++ {
		v := r.Intn(n)
		s.Add(v)
		m[v] = true
	}
	return s, m
}

func TestQuickCountMatchesModel(t *testing.T) {
	cfg := &quick.Config{MaxCount: 200}
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 1 + r.Intn(300)
		s, m := randomSet(r, n)
		if s.Count() != len(m) {
			return false
		}
		for _, i := range s.indices(nil) {
			if !m[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

func TestQuickIntersectionCommutesAndBounds(t *testing.T) {
	cfg := &quick.Config{MaxCount: 200}
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 1 + r.Intn(300)
		a, am := randomSet(r, n)
		b, bm := randomSet(r, n)
		got := a.intersectionCount(b)
		want := 0
		for k := range am {
			if bm[k] {
				want++
			}
		}
		if got != want || got != b.intersectionCount(a) {
			return false
		}
		// intersectsAtLeast must agree with the count for every threshold.
		for q := 0; q <= want+1; q++ {
			if a.intersectsAtLeast(b, q) != (want >= q) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

func TestQuickDeMorgan(t *testing.T) {
	// |A ∪ B| + |A ∩ B| == |A| + |B| (inclusion-exclusion).
	cfg := &quick.Config{MaxCount: 200}
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 1 + r.Intn(300)
		a, _ := randomSet(r, n)
		b, _ := randomSet(r, n)
		union := a.clone()
		union.Union(b)
		inter := a.clone()
		inter.intersect(b)
		return union.Count()+inter.Count() == a.Count()+b.Count()
	}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

func TestForEachIntersection(t *testing.T) {
	a, err := fromIndices(256, []int{1, 2, 64, 65, 200})
	if err != nil {
		t.Fatal(err)
	}
	b, err := fromIndices(256, []int{2, 64, 99, 200})
	if err != nil {
		t.Fatal(err)
	}
	var got []int
	a.forEachIntersection(b, func(i int) bool {
		got = append(got, i)
		return true
	})
	want := []int{2, 64, 200}
	if len(got) != len(want) {
		t.Fatalf("intersection = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("intersection = %v, want %v", got, want)
		}
	}
	// Early stop.
	var first []int
	a.forEachIntersection(b, func(i int) bool {
		first = append(first, i)
		return false
	})
	if len(first) != 1 || first[0] != 2 {
		t.Errorf("early stop visited %v, want [2]", first)
	}
	// Differing capacities intersect over the common prefix.
	small, err := fromIndices(64, []int{2, 63})
	if err != nil {
		t.Fatal(err)
	}
	got = got[:0]
	a.forEachIntersection(small, func(i int) bool {
		got = append(got, i)
		return true
	})
	if len(got) != 1 || got[0] != 2 {
		t.Errorf("mixed-cap intersection = %v, want [2]", got)
	}
	// Count agreement with intersectionCount on every pair combination.
	pairs := []*Set{a, b, small, New(256), New(0)}
	for _, s := range pairs {
		for _, u := range pairs {
			n := 0
			s.forEachIntersection(u, func(int) bool { n++; return true })
			if want := s.intersectionCount(u); n != want {
				t.Errorf("ForEachIntersection visited %d, IntersectionCount = %d", n, want)
			}
		}
	}
}

// fromIndices returns a Set of capacity n with the given indices set.
// indices outside [0, n) are reported as an error.
func fromIndices(n int, indices []int) (*Set, error) {
	s := New(n)
	for _, i := range indices {
		if i < 0 || i >= n {
			return nil, fmt.Errorf("bitset: index %d out of range [0, %d)", i, n)
		}
		s.Add(i)
	}
	return s, nil
}

// intersectionCount returns |s ∩ t| without allocating. Sets of differing
// capacity intersect over the shorter word prefix, which equals the
// mathematical intersection because bits beyond a set's capacity are zero.
func (s *Set) intersectionCount(t *Set) int {
	a, b := s.words, t.words
	if len(b) < len(a) {
		a, b = b, a
	}
	c := 0
	for i, w := range a {
		c += bits.OnesCount64(w & b[i])
	}
	return c
}

// intersectsAtLeast reports whether |s ∩ t| ≥ q. It short-circuits as soon as
// the running count reaches q, which is the hot path for q-composite edge
// tests where q is small.
func (s *Set) intersectsAtLeast(t *Set, q int) bool {
	if q <= 0 {
		return true
	}
	a, b := s.words, t.words
	if len(b) < len(a) {
		a, b = b, a
	}
	c := 0
	for i, w := range a {
		c += bits.OnesCount64(w & b[i])
		if c >= q {
			return true
		}
	}
	return false
}

// intersect sets s = s ∩ t. Capacities must match.
func (s *Set) intersect(t *Set) {
	s.capCheck(t)
	for i, w := range t.words {
		s.words[i] &= w
	}
}

// difference sets s = s \ t. Capacities must match.
func (s *Set) difference(t *Set) {
	s.capCheck(t)
	for i, w := range t.words {
		s.words[i] &^= w
	}
}

// isSubsetOf reports whether every element of s is in t.
func (s *Set) isSubsetOf(t *Set) bool {
	for i, w := range s.words {
		var tw uint64
		if i < len(t.words) {
			tw = t.words[i]
		}
		if w&^tw != 0 {
			return false
		}
	}
	return true
}

// reset removes all elements, retaining capacity.
func (s *Set) reset() {
	for i := range s.words {
		s.words[i] = 0
	}
}

// clone returns an independent copy of s (copy at boundaries).
func (s *Set) clone() *Set {
	c := &Set{words: make([]uint64, len(s.words)), n: s.n}
	copy(c.words, s.words)
	return c
}

// indices appends the elements of s to dst in ascending order and returns the
// extended slice. Pass nil to allocate.
func (s *Set) indices(dst []int) []int {
	for wi, w := range s.words {
		base := wi * wordBits
		for w != 0 {
			tz := bits.TrailingZeros64(w)
			dst = append(dst, base+tz)
			w &= w - 1
		}
	}
	return dst
}

// forEachIntersection calls fn on each element of s ∩ t in ascending order,
// without materialising the intersection. Iteration stops early if fn returns
// false. Sets of differing capacity intersect over the shorter word prefix
// (bits beyond a set's capacity are zero, so this equals the mathematical
// intersection).
func (s *Set) forEachIntersection(t *Set, fn func(i int) bool) {
	a, b := s.words, t.words
	if len(b) < len(a) {
		a, b = b, a
	}
	for wi, w := range a {
		w &= b[wi]
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
