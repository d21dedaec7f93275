package keys

import (
	"math"
	"slices"
	"testing"
	"testing/quick"

	"github.com/secure-wsn/qcomposite/internal/rng"
)

func TestNewRingSortsAndDedups(t *testing.T) {
	r := NewRing([]ID{5, 1, 5, 3, 1})
	if r.Len() != 3 {
		t.Fatalf("Len = %d, want 3", r.Len())
	}
	ids := r.IDs()
	want := []ID{1, 3, 5}
	for i := range want {
		if ids[i] != want[i] {
			t.Fatalf("IDs = %v, want %v", ids, want)
		}
	}
	for _, k := range want {
		if !r.Contains(k) {
			t.Errorf("Contains(%d) = false", k)
		}
	}
	if r.Contains(2) || r.Contains(-1) {
		t.Error("Contains returned true for absent key")
	}
}

func TestRingIDsIsACopy(t *testing.T) {
	r := NewRing([]ID{1, 2})
	ids := r.IDs()
	ids[0] = 99
	if !r.Contains(1) {
		t.Error("mutating IDs() result affected the ring")
	}
}

// TestRingMarks pins the probe primitive on small rings kept out of order:
// Count and AppendShared against the merge oracle, marks replaced by the
// next Mark and dropped by Reset.
func TestRingMarks(t *testing.T) {
	a := Ring{ids: []ID{7, 1, 5, 3}}
	b := Ring{ids: []ID{9, 3, 4, 7}}
	var m RingMarks
	m.Reset(16)
	m.Mark(a)
	if got := m.AppendShared(b, nil); !slices.Equal(got, []ID{3, 7}) {
		t.Errorf("AppendShared = %v, want [3 7] in b's order", got)
	}
	if got := m.Count(b); got != 2 {
		t.Errorf("Count = %d, want 2", got)
	}
	if got := m.Count(NewRing(nil)); got != 0 {
		t.Errorf("Count of the empty ring = %d", got)
	}
	m.Mark(b)
	if got := m.AppendShared(a, nil); !slices.Equal(got, []ID{7, 3}) {
		t.Errorf("after marking b: AppendShared = %v, want [7 3] in a's order", got)
	}
	if got := m.Count(Ring{ids: []ID{1, 5}}); got != 0 {
		t.Errorf("marks of a left behind after marking b: Count = %d", got)
	}
	// Reset to a larger pool drops the marks; so does a smaller one.
	for _, pool := range []int{200, 10} {
		m.Reset(pool)
		if got := m.Count(Ring{ids: []ID{3, 4, 7, 9}}); got != 0 {
			t.Errorf("Reset(%d) left %d marks", pool, got)
		}
	}
	m.Mark(NewRing([]ID{9}))
	if got := m.Count(b); got != 1 {
		t.Errorf("Count after Reset(10) = %d, want 1", got)
	}
}

func TestNewQCompositeValidation(t *testing.T) {
	tests := []struct {
		name          string
		pool, ring, q int
	}{
		{name: "q zero", pool: 10, ring: 5, q: 0},
		{name: "ring below q", pool: 10, ring: 1, q: 2},
		{name: "pool below ring", pool: 4, ring: 5, q: 1},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if _, err := NewQComposite(tt.pool, tt.ring, tt.q); err == nil {
				t.Error("want error, got nil")
			}
		})
	}
	s, err := NewQComposite(100, 10, 2)
	if err != nil {
		t.Fatal(err)
	}
	if s.PoolSize() != 100 || s.RingSize() != 10 || s.RequiredOverlap() != 2 {
		t.Errorf("accessors wrong: %d %d %d", s.PoolSize(), s.RingSize(), s.RequiredOverlap())
	}
	if s.Name() != "2-composite" {
		t.Errorf("Name = %q", s.Name())
	}
}

func TestEschenauerGligorIsQ1(t *testing.T) {
	s, err := NewQComposite(100, 10, 1)
	if err != nil {
		t.Fatal(err)
	}
	if s.RequiredOverlap() != 1 {
		t.Errorf("EG overlap = %d, want 1", s.RequiredOverlap())
	}
	if s.Name() != "eschenauer-gligor" {
		t.Errorf("Name = %q", s.Name())
	}
	if _, err := NewQComposite(5, 10, 1); err == nil {
		t.Error("invalid EG params: want error")
	}
}

func TestAssignProperties(t *testing.T) {
	s, err := NewQComposite(200, 25, 2)
	if err != nil {
		t.Fatal(err)
	}
	r := rng.New(1)
	asg, err := s.AssignInto(r, 50, new(RingArena))
	if err != nil {
		t.Fatal(err)
	}
	rings := asg.Rings
	if len(rings) != 50 {
		t.Fatalf("assigned %d rings", len(rings))
	}
	for v, ring := range rings {
		if ring.Len() != 25 {
			t.Fatalf("sensor %d ring size = %d", v, ring.Len())
		}
		for _, k := range ring.IDs() {
			if k < 0 || k >= 200 {
				t.Fatalf("sensor %d key %d outside pool", v, k)
			}
		}
	}
	if _, err := s.AssignInto(r, -1, new(RingArena)); err == nil {
		t.Error("negative n: want error")
	}
}

func TestAssignKeyMembershipUniform(t *testing.T) {
	// Each key appears in a ring with probability K/P.
	const (
		pool   = 50
		ring   = 10
		nRings = 20000
	)
	s, err := NewQComposite(pool, ring, 1)
	if err != nil {
		t.Fatal(err)
	}
	asg, err := s.AssignInto(rng.New(2), nRings, new(RingArena))
	if err != nil {
		t.Fatal(err)
	}
	rings := asg.Rings
	counts := make([]int, pool)
	for _, rg := range rings {
		for _, k := range rg.IDs() {
			counts[k]++
		}
	}
	want := float64(nRings) * ring / pool
	for k, c := range counts {
		if math.Abs(float64(c)-want) > 6*math.Sqrt(want) {
			t.Errorf("key %d appeared %d times, want ~%v", k, c, want)
		}
	}
}

func TestDeriveLinkKeyProperties(t *testing.T) {
	a := DeriveLinkKey([]ID{3, 1, 2})
	b := DeriveLinkKey([]ID{1, 2, 3})
	if a != b {
		t.Error("link key must be order independent")
	}
	c := DeriveLinkKey([]ID{1, 2})
	if a == c {
		t.Error("different shared sets produced the same link key")
	}
	d := DeriveLinkKey([]ID{1, 2, 4})
	if a == d {
		t.Error("different shared sets produced the same link key")
	}
	// Input must not be mutated (sorted copy).
	in := []ID{9, 4}
	DeriveLinkKey(in)
	if in[0] != 9 {
		t.Error("DeriveLinkKey mutated its input")
	}
	// Empty input is well defined.
	e1, e2 := DeriveLinkKey(nil), DeriveLinkKey([]ID{})
	if e1 != e2 {
		t.Error("empty link keys differ")
	}
}

// TestQuickRingMarksMatchSets checks the probe against a set computation on
// arbitrary rings, kept in the order given.
func TestQuickRingMarksMatchSets(t *testing.T) {
	var m RingMarks
	m.Reset(64)
	f := func(aRaw, bRaw []uint8) bool {
		toRing := func(raw []uint8) Ring {
			seen := map[ID]bool{}
			var ids []ID
			for _, v := range raw {
				if k := ID(v % 64); !seen[k] {
					seen[k] = true
					ids = append(ids, k)
				}
			}
			return Ring{ids: ids}
		}
		a, b := toRing(aRaw), toRing(bRaw)
		am := map[ID]bool{}
		for _, k := range a.ids {
			am[k] = true
		}
		var want []ID
		for _, k := range b.ids {
			if am[k] {
				want = append(want, k)
			}
		}
		m.Mark(a)
		return m.Count(b) == len(want) && slices.Equal(m.AppendShared(b, nil), want) &&
			slices.Equal(mergeShared(a, b), slices.Sorted(slices.Values(want)))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// BenchmarkRingMarksCount measures one probe: a K = 80 ring tested against
// the marks of another at P = 10⁴.
func BenchmarkRingMarksCount(b *testing.B) {
	r := rng.New(3)
	s, err := NewQComposite(10000, 80, 2)
	if err != nil {
		b.Fatal(err)
	}
	asg, err := s.AssignInto(r, 2, new(RingArena))
	if err != nil {
		b.Fatal(err)
	}
	rings := asg.Rings
	var m RingMarks
	m.Reset(10000)
	m.Mark(rings[0])
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = m.Count(rings[1])
	}
}
