package randgraph

import (
	"fmt"
	"math"
	"testing"

	"github.com/secure-wsn/qcomposite/internal/graph"
	"github.com/secure-wsn/qcomposite/internal/rng"
	"github.com/secure-wsn/qcomposite/internal/theory"
)

func TestErdosRenyiValidation(t *testing.T) {
	r := rng.New(1)
	if _, err := ErdosRenyi(r, -1, 0.5); err == nil {
		t.Error("negative n: want error")
	}
	if _, err := ErdosRenyi(r, 10, -0.1); err == nil {
		t.Error("negative p: want error")
	}
	if _, err := ErdosRenyi(r, 10, 1.1); err == nil {
		t.Error("p > 1: want error")
	}
	for _, p := range []float64{math.Inf(1), math.NaN()} {
		if _, err := ErdosRenyi(r, 10, p); err == nil {
			t.Errorf("p=%v: want error", p)
		}
	}
}

func TestErdosRenyiExtremes(t *testing.T) {
	r := rng.New(2)
	g, err := ErdosRenyi(r, 20, 0)
	if err != nil {
		t.Fatal(err)
	}
	if g.M() != 0 {
		t.Errorf("G(20, 0) has %d edges", g.M())
	}
	g, err = ErdosRenyi(r, 20, 1)
	if err != nil {
		t.Fatal(err)
	}
	if g.M() != 190 {
		t.Errorf("G(20, 1) has %d edges, want 190", g.M())
	}
	g, err = ErdosRenyi(r, 0, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if g.N() != 0 {
		t.Errorf("G(0, .5) has %d nodes", g.N())
	}
	g, err = ErdosRenyi(r, 1, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if g.M() != 0 {
		t.Errorf("G(1, .5) has %d edges", g.M())
	}
}

func TestErdosRenyiEdgeFrequency(t *testing.T) {
	// Aggregate edge count over trials must match p·C(n,2), and individual
	// pairs must be uniform (spot check a few pairs).
	const (
		n      = 30
		p      = 0.13
		trials = 4000
	)
	r := rng.New(3)
	pairCount := map[[2]int32]int{}
	total := 0
	for i := 0; i < trials; i++ {
		g, err := ErdosRenyi(r, n, p)
		if err != nil {
			t.Fatal(err)
		}
		total += g.M()
		g.ForEachEdge(func(u, v int32) bool {
			pairCount[[2]int32{u, v}]++
			return true
		})
	}
	pairs := float64(n * (n - 1) / 2)
	wantMean := p * pairs
	gotMean := float64(total) / trials
	sd := math.Sqrt(pairs * p * (1 - p) / trials)
	if math.Abs(gotMean-wantMean) > 6*sd {
		t.Errorf("mean edges = %v, want %v ± %v", gotMean, wantMean, 6*sd)
	}
	for _, pair := range [][2]int32{{0, 1}, {0, 29}, {13, 14}, {28, 29}} {
		freq := float64(pairCount[pair]) / trials
		tol := 6 * math.Sqrt(p*(1-p)/trials)
		if math.Abs(freq-p) > tol {
			t.Errorf("pair %v frequency = %v, want %v ± %v", pair, freq, p, tol)
		}
	}
}

func TestErdosRenyiDeterminism(t *testing.T) {
	a, err := ErdosRenyi(rng.New(77), 50, 0.2)
	if err != nil {
		t.Fatal(err)
	}
	b, err := ErdosRenyi(rng.New(77), 50, 0.2)
	if err != nil {
		t.Fatal(err)
	}
	if !a.IsSpanningSubgraphOf(b) || !b.IsSpanningSubgraphOf(a) {
		t.Error("same seed produced different graphs")
	}
}

func TestBinomialQIntersectionValidation(t *testing.T) {
	r := rng.New(9)
	if _, err := binomialQIntersection(r, -1, 0.1, 10, 1); err == nil {
		t.Error("negative n: want error")
	}
	if _, err := binomialQIntersection(r, 5, -0.1, 10, 1); err == nil {
		t.Error("negative x: want error")
	}
	if _, err := binomialQIntersection(r, 5, 1.1, 10, 1); err == nil {
		t.Error("x > 1: want error")
	}
	if _, err := binomialQIntersection(r, 5, 0.1, 10, 0); err == nil {
		t.Error("q = 0: want error")
	}
	if _, err := binomialQIntersection(r, 5, 0.1, -1, 1); err == nil {
		t.Error("negative pool: want error")
	}
	g, err := binomialQIntersection(r, 5, 0.5, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	if g.M() != 0 {
		t.Error("empty pool must give empty graph")
	}
}

func TestBinomialQIntersectionEdgeFrequency(t *testing.T) {
	// Empirical edge probability ≈ P[Binomial overlap ≥ q]. With x small
	// the overlap of two nodes is ≈ Poisson(P·x²).
	const (
		n      = 40
		pool   = 400
		x      = 0.05
		q      = 1
		trials = 800
	)
	r := rng.New(10)
	edges := 0
	for i := 0; i < trials; i++ {
		g, err := binomialQIntersection(r, n, x, pool, q)
		if err != nil {
			t.Fatal(err)
		}
		edges += g.M()
	}
	// Exact: two independent Binomial(P, x) rings; per-key shared prob x².
	// Overlap ~ Binomial(P, x²); P[≥1] = 1 − (1−x²)^P.
	want := 1 - math.Pow(1-x*x, pool)
	pairs := float64(n * (n - 1) / 2)
	got := float64(edges) / (pairs * trials)
	if math.Abs(got-want) > 0.05*want+0.002 {
		t.Errorf("binomial edge prob = %v, want %v", got, want)
	}
}

func TestSampleCoupledContainment(t *testing.T) {
	// The Lemma 5 coupling must always produce Binomial ⊑ Uniform.
	const (
		n    = 60
		ring = 15
		pool = 150
		q    = 2
	)
	r := rng.New(11)
	// Mean binomial draw = x·P = 7.5 keys, ring = 15: the event
	// {all 60 nodes draw ≤ 15} holds with probability ≈ 0.94.
	x := float64(ring) / float64(pool) * 0.5
	coupledCount := 0
	for trial := 0; trial < 30; trial++ {
		pair, err := SampleCoupled(r, n, ring, pool, q, x)
		if err != nil {
			t.Fatal(err)
		}
		if !pair.Binomial.IsSpanningSubgraphOf(pair.Uniform) {
			t.Fatal("binomial graph not contained in uniform graph")
		}
		if pair.Coupled {
			coupledCount++
		}
	}
	if coupledCount == 0 {
		t.Error("coupling event never held; x may be too aggressive")
	}
	if _, err := SampleCoupled(r, n, ring, pool, q, 1.5); err == nil {
		t.Error("x > 1: want error")
	}
}

func TestSampleCoupledWithTheoryX(t *testing.T) {
	// With the paper's x_n from eq. (66) the coupling event should
	// essentially always hold at these scales.
	const (
		n    = 200
		ring = 64
		pool = 5000
		q    = 2
	)
	x := theory.CouplingX(n, pool, ring)
	if x <= 0 {
		t.Skip("coupling x not in regime")
	}
	r := rng.New(12)
	for trial := 0; trial < 10; trial++ {
		pair, err := SampleCoupled(r, n, ring, pool, q, x)
		if err != nil {
			t.Fatal(err)
		}
		if !pair.Coupled {
			t.Error("Lemma 5 coupling event failed at paper-regime x_n")
		}
		if !pair.Binomial.IsSpanningSubgraphOf(pair.Uniform) {
			t.Fatal("containment violated")
		}
	}
}

func BenchmarkErdosRenyi1000(b *testing.B) {
	r := rng.New(2)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := ErdosRenyi(r, 1000, 0.01); err != nil {
			b.Fatal(err)
		}
	}
}

// binomialQIntersection samples H_q(n, x, P), the auxiliary graph of the
// paper's Lemma 5/6 coupling chain: each of the P keys is added to each
// node's ring independently with probability x; nodes sharing ≥ q keys are
// adjacent.
func binomialQIntersection(r *rng.Rand, n int, x float64, pool, q int) (*graph.Undirected, error) {
	switch {
	case n < 0:
		return nil, fmt.Errorf("randgraph: negative node count %d", n)
	case q < 1:
		return nil, fmt.Errorf("randgraph: key overlap requirement q=%d must be ≥ 1", q)
	case pool < 0:
		return nil, fmt.Errorf("randgraph: negative pool size %d", pool)
	case x < 0 || x > 1:
		return nil, fmt.Errorf("randgraph: inclusion probability %v outside [0,1]", x)
	}
	// Draw ring sizes Binomial(P, x), then uniform subsets of that size —
	// distributionally identical to P independent coin flips per node, but
	// it reuses the fast subset sampler.
	sizes := make([]int, n)
	total := 0
	maxSize := 0
	for v := range sizes {
		sizes[v] = r.Binomial(pool, x)
		total += sizes[v]
		if sizes[v] > maxSize {
			maxSize = sizes[v]
		}
	}
	if pool == 0 || maxSize == 0 {
		return graph.NewFromEdges(n, nil)
	}
	subset, err := rng.NewSubsetSampler(pool)
	if err != nil {
		return nil, fmt.Errorf("randgraph: binomial q-intersection: %w", err)
	}
	rings := make([][]int32, n)
	buf := make([]int32, 0, total)
	for v := 0; v < n; v++ {
		start := len(buf)
		buf, err = subset.AppendSample(r, sizes[v], buf)
		if err != nil {
			return nil, fmt.Errorf("randgraph: binomial q-intersection: %w", err)
		}
		rings[v] = buf[start:]
	}
	return qIntersectFromRings(n, pool, q, rings)
}
