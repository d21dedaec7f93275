package randgraph

import (
	"testing"

	"github.com/secure-wsn/qcomposite/internal/graph"
	"github.com/secure-wsn/qcomposite/internal/rng"
)

// sameGraph reports byte-identical CSR contents.
func sameGraph(a, b *graph.Undirected) bool {
	if a.N() != b.N() || a.M() != b.M() {
		return false
	}
	for v := int32(0); int(v) < a.N(); v++ {
		na, nb := a.Neighbors(v), b.Neighbors(v)
		if len(na) != len(nb) {
			return false
		}
		for i := range na {
			if na[i] != nb[i] {
				return false
			}
		}
	}
	return true
}

// forceSparse converts a sampler to the per-row pair counter that is
// normally selected only for n > maxCounterNodes, so the sparse path can be
// exercised at test-friendly sizes.
func forceSparse(s *QSampler) {
	s.counts = nil
	s.rowStart = nil
	s.touched = nil
	s.rowCnt = make([]uint8, s.n)
}

func TestSparseCounterMatchesDense(t *testing.T) {
	const (
		n    = 120
		ring = 12
		pool = 300
		q    = 2
	)
	dense, err := NewQSampler(n, ring, pool, q)
	if err != nil {
		t.Fatal(err)
	}
	sparse, err := NewQSampler(n, ring, pool, q)
	if err != nil {
		t.Fatal(err)
	}
	forceSparse(sparse)
	for trial := 0; trial < 15; trial++ {
		seed := uint64(1000 + trial)
		gd, err := dense.Sample(rng.New(seed))
		if err != nil {
			t.Fatal(err)
		}
		gs, err := sparse.Sample(rng.New(seed))
		if err != nil {
			t.Fatal(err)
		}
		if !gd.IsSpanningSubgraphOf(gs) || !gs.IsSpanningSubgraphOf(gd) {
			t.Fatalf("trial %d: sparse and dense counters disagree", trial)
		}
	}
}

func TestSparseCompositeDeterministic(t *testing.T) {
	// The per-row path emits qualifying pairs in ascending (u, v) order
	// before spending channel coins; two runs from the same seed must agree
	// exactly.
	mk := func() *QSampler {
		s, err := NewQSampler(100, 10, 250, 2)
		if err != nil {
			t.Fatal(err)
		}
		forceSparse(s)
		return s
	}
	a, err := mk().SampleComposite(rng.New(7), 0.5)
	if err != nil {
		t.Fatal(err)
	}
	b, err := mk().SampleComposite(rng.New(7), 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if !a.IsSpanningSubgraphOf(b) || !b.IsSpanningSubgraphOf(a) {
		t.Error("sparse composite sampling not deterministic")
	}
}

func TestSparseCounterReuseIsClean(t *testing.T) {
	s, err := NewQSampler(80, 8, 200, 1)
	if err != nil {
		t.Fatal(err)
	}
	forceSparse(s)
	r := rng.New(9)
	checkClean := func(when string) {
		t.Helper()
		for w, c := range s.rowCnt {
			if c != 0 {
				t.Errorf("row counter retained count %d at node %d after %s", c, w, when)
			}
		}
	}
	if _, err := s.Sample(r); err != nil {
		t.Fatal(err)
	}
	checkClean("a draw")
	if _, err := s.Sample(r); err != nil {
		t.Fatal(err)
	}
	checkClean("second draw")
}

// TestSparseCompositeMatchesDense pins that the dense and per-row counting
// strategies spend channel coins in the same (ascending pair) order, so the
// composite draw is strategy-independent, not just the key graph.
func TestSparseCompositeMatchesDense(t *testing.T) {
	mk := func(sparse bool) *QSampler {
		s, err := NewQSampler(110, 10, 280, 2)
		if err != nil {
			t.Fatal(err)
		}
		if sparse {
			forceSparse(s)
		}
		return s
	}
	dense, sparse := mk(false), mk(true)
	for trial := 0; trial < 10; trial++ {
		seed := uint64(900 + trial)
		gd, err := dense.SampleComposite(rng.New(seed), 0.4)
		if err != nil {
			t.Fatal(err)
		}
		gs, err := sparse.SampleComposite(rng.New(seed), 0.4)
		if err != nil {
			t.Fatal(err)
		}
		if !sameGraph(gd, gs) {
			t.Fatalf("trial %d: composite draw differs between counting strategies", trial)
		}
	}
}
