package keys

import (
	"testing"

	"github.com/secure-wsn/qcomposite/internal/rng"
)

// assignmentFingerprint folds an assignment's class labels, ring sizes and
// ring IDs (each ring as its ascending copy, so the hash pins the set a
// sensor holds, not the order it was drawn in), followed by the
// generator's next output, into an FNV-1a hash.
// Two assignments collide only if they are (with overwhelming probability)
// ring-for-ring identical and left the generator at the same position.
func assignmentFingerprint(asg Assignment, next uint64) uint64 {
	const (
		offset = 14695981039346656037
		prime  = 1099511628211
	)
	h := uint64(offset)
	mix := func(x uint64) {
		for i := 0; i < 8; i++ {
			h ^= x & 0xff
			h *= prime
			x >>= 8
		}
	}
	mix(uint64(len(asg.Rings)))
	for v, ring := range asg.Rings {
		mix(uint64(asg.Label(v)))
		mix(uint64(ring.Len()))
		for _, k := range ring.IDs() {
			mix(uint64(uint32(k)))
		}
	}
	mix(next)
	return h
}

// TestRingAssignmentPinned pins the exact rings every scheme assigns at
// fixed seeds, through both Assign and AssignInto: the plateau and Figure-1
// shapes of the q-composite scheme, Eschenauer–Gligor, and a 2-class
// heterogeneous mixture. The hashes were recorded from the sort-per-ring
// assignment that preceded the sorted subset draw, and still hold for the
// draw-order rings kept since. One arena serves every
// case in turn, so its cached sampler is swapped between pool sizes. Any
// change to which keys a sensor draws or to how many generator outputs an
// assignment consumes flips a hash and fails this test.
func TestRingAssignmentPinned(t *testing.T) {
	must := func(s Scheme, err error) Scheme {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	qc := func(pool, ring, q int) Scheme { return must(NewQComposite(pool, ring, q)) }
	cases := []struct {
		name   string
		scheme Scheme
		n      int
		seed   uint64
		want   uint64
	}{
		{"plateau/P=512,K=32,q=2", qc(512, 32, 2), 5000, 1, 0xc4797f4ff7b664b5},
		{"fig1/P=1e4,K=28,q=2", qc(10000, 28, 2), 1000, 2, 0xa3a1fed9ebcf618b},
		{"fig1/P=1e4,K=60,q=2", qc(10000, 60, 2), 1000, 3, 0xea0ea6e5f890dd93},
		{"fig1/P=1e4,K=88,q=2", qc(10000, 88, 2), 1000, 4, 0x3ebf3b83f1ee0f},
		{"eschenauer-gligor/P=1000,K=20", qc(1000, 20, 1), 500, 5, 0xe4d1675fd2929772},
		{"heterogeneous/P=2000,q=2,{0.3×20,0.7×45}", must(NewHeterogeneous(2000, 2,
			[]Class{{Mu: 0.3, RingSize: 20}, {Mu: 0.7, RingSize: 45}})), 800, 6, 0xf90b03fde63c4b91},
	}
	var arena RingArena
	for _, tc := range cases {
		r := rng.New(tc.seed)
		asg, err := tc.scheme.AssignInto(r, tc.n, new(RingArena))
		if err != nil {
			t.Fatal(err)
		}
		viaFresh := assignmentFingerprint(asg, r.Uint64())

		r = rng.New(tc.seed)
		asg, err = tc.scheme.AssignInto(r, tc.n, &arena)
		if err != nil {
			t.Fatal(err)
		}
		viaArena := assignmentFingerprint(asg, r.Uint64())

		if viaFresh != tc.want || viaArena != tc.want {
			t.Errorf("%s: fresh-arena fingerprint %#x, reused-arena %#x, pinned %#x",
				tc.name, viaFresh, viaArena, tc.want)
		}
	}
}

// TestAssignIntoAllocFree gates the steady state of the arena path: once an
// arena has served an assignment of a given shape, assigning again into it
// allocates nothing, for the uniform and the multi-class scheme alike.
func TestAssignIntoAllocFree(t *testing.T) {
	qc, err := NewQComposite(512, 32, 2)
	if err != nil {
		t.Fatal(err)
	}
	het, err := NewHeterogeneous(2000, 2, []Class{{Mu: 0.3, RingSize: 20}, {Mu: 0.7, RingSize: 45}})
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range []Scheme{qc, het} {
		var arena RingArena
		r := rng.New(7)
		const n = 300
		// Warm the arena at the largest total a multi-class draw can need,
		// so label-dependent totals never outgrow it.
		arena.reserve(n, n*MaxRingSize(s), s.PoolSize())
		if _, err := s.AssignInto(r, n, &arena); err != nil {
			t.Fatal(err)
		}
		allocs := testing.AllocsPerRun(20, func() {
			if _, err := s.AssignInto(r, n, &arena); err != nil {
				t.Fatal(err)
			}
		})
		if allocs != 0 {
			t.Errorf("%s: AssignInto into a reused arena = %v allocs/op, want 0", s.Name(), allocs)
		}
	}
}

// BenchmarkAssignInto measures ring assignment into a reused arena at the
// plateau and Figure-1 shapes, reported per assigned key.
func BenchmarkAssignInto(b *testing.B) {
	shapes := []struct {
		name          string
		n, pool, ring int
	}{
		{"plateau", 5000, 512, 32},
		{"fig1/K=28", 1000, 10000, 28},
		{"fig1/K=60", 1000, 10000, 60},
		{"fig1/K=88", 1000, 10000, 88},
	}
	for _, sh := range shapes {
		b.Run(sh.name, func(b *testing.B) {
			s, err := NewQComposite(sh.pool, sh.ring, 2)
			if err != nil {
				b.Fatal(err)
			}
			var arena RingArena
			r := rng.New(1)
			if _, err := s.AssignInto(r, sh.n, &arena); err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := s.AssignInto(r, sh.n, &arena); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*sh.n*sh.ring), "ns/key")
		})
	}
}
