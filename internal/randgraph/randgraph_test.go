package randgraph

import (
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

func TestNewQSamplerValidation(t *testing.T) {
	tests := []struct {
		name             string
		n, ring, pool, q int
	}{
		{name: "negative n", n: -1, ring: 5, pool: 10, q: 1},
		{name: "q zero", n: 5, ring: 5, pool: 10, q: 0},
		{name: "ring below q", n: 5, ring: 1, pool: 10, q: 2},
		{name: "pool below ring", n: 5, ring: 11, pool: 10, q: 1},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if _, err := NewQSampler(tt.n, tt.ring, tt.pool, tt.q); err == nil {
				t.Error("want error, got nil")
			}
		})
	}
}

func TestQSamplerEdgesMatchKeyRings(t *testing.T) {
	// Every edge must correspond to ≥ q shared keys and every non-edge to
	// < q shared keys, verified against the sampler's own key rings.
	const (
		n    = 60
		ring = 12
		pool = 100
		q    = 2
	)
	s, err := NewQSampler(n, ring, pool, q)
	if err != nil {
		t.Fatal(err)
	}
	r := rng.New(4)
	for trial := 0; trial < 20; trial++ {
		g, err := s.Sample(r)
		if err != nil {
			t.Fatal(err)
		}
		ringSets := make([]map[int32]bool, n)
		for v := 0; v < n; v++ {
			kr := s.KeyRing(v)
			if len(kr) != ring {
				t.Fatalf("node %d ring size = %d", v, len(kr))
			}
			set := make(map[int32]bool, ring)
			for _, k := range kr {
				if k < 0 || int(k) >= pool {
					t.Fatalf("key %d out of pool range", k)
				}
				if set[k] {
					t.Fatalf("node %d holds duplicate key %d", v, k)
				}
				set[k] = true
			}
			ringSets[v] = set
		}
		for u := int32(0); int(u) < n; u++ {
			for v := u + 1; int(v) < n; v++ {
				shared := 0
				for k := range ringSets[u] {
					if ringSets[v][k] {
						shared++
					}
				}
				if got, want := g.HasEdge(u, v), shared >= q; got != want {
					t.Fatalf("edge(%d,%d) = %v but shared keys = %d (q=%d)", u, v, got, shared, q)
				}
			}
		}
	}
}

func TestQSamplerEdgeFrequencyMatchesTheory(t *testing.T) {
	// The empirical edge probability must match s(K, P, q) from eq. (4).
	const (
		n      = 40
		ring   = 10
		pool   = 120
		trials = 1500
	)
	for _, q := range []int{1, 2} {
		s, err := NewQSampler(n, ring, pool, q)
		if err != nil {
			t.Fatal(err)
		}
		r := rng.New(uint64(5 + q))
		edgeSum := 0
		for i := 0; i < trials; i++ {
			g, err := s.Sample(r)
			if err != nil {
				t.Fatal(err)
			}
			edgeSum += g.M()
		}
		want, err := theory.KeyShareProb(pool, ring, q)
		if err != nil {
			t.Fatal(err)
		}
		pairs := float64(n * (n - 1) / 2)
		got := float64(edgeSum) / (pairs * trials)
		// Edges within a trial are correlated; use a generous tolerance
		// driven by the per-trial edge-count variance observed empirically.
		if math.Abs(got-want) > 0.08*want+0.002 {
			t.Errorf("q=%d: empirical edge prob %v, theory %v", q, got, want)
		}
	}
}

func TestSampleCompositeThinsEdges(t *testing.T) {
	const (
		n      = 50
		ring   = 10
		pool   = 80
		q      = 1
		pOn    = 0.4
		trials = 800
	)
	s, err := NewQSampler(n, ring, pool, q)
	if err != nil {
		t.Fatal(err)
	}
	r := rng.New(6)
	full, kept := 0, 0
	for i := 0; i < trials; i++ {
		g, err := s.Sample(r)
		if err != nil {
			t.Fatal(err)
		}
		full += g.M()
		c, err := s.SampleComposite(r, pOn)
		if err != nil {
			t.Fatal(err)
		}
		kept += c.M()
	}
	ratio := float64(kept) / float64(full)
	if math.Abs(ratio-pOn) > 0.03 {
		t.Errorf("composite kept %v of edges, want ≈ %v", ratio, pOn)
	}
	if _, err := s.SampleComposite(r, -0.1); err == nil {
		t.Error("negative pOn: want error")
	}
	if _, err := s.SampleComposite(r, 1.1); err == nil {
		t.Error("pOn > 1: want error")
	}
}

func TestSampleCompositeEdgeProbability(t *testing.T) {
	// Empirical composite edge probability must match t = p·s (eq. (5)).
	const (
		n      = 40
		ring   = 8
		pool   = 100
		q      = 2
		pOn    = 0.5
		trials = 2000
	)
	s, err := NewQSampler(n, ring, pool, q)
	if err != nil {
		t.Fatal(err)
	}
	r := rng.New(7)
	edges := 0
	for i := 0; i < trials; i++ {
		g, err := s.SampleComposite(r, pOn)
		if err != nil {
			t.Fatal(err)
		}
		edges += g.M()
	}
	want, err := theory.EdgeProb(pool, ring, q, pOn)
	if err != nil {
		t.Fatal(err)
	}
	pairs := float64(n * (n - 1) / 2)
	got := float64(edges) / (pairs * trials)
	if math.Abs(got-want) > 0.1*want+0.001 {
		t.Errorf("composite edge prob = %v, theory t = %v", got, want)
	}
}

func TestCompositeIsIntersectionDistribution(t *testing.T) {
	// Sanity: explicit intersection G_q ∩ G(n,p) has the same expected edge
	// count as the fused composite sampler.
	const (
		n      = 40
		ring   = 8
		pool   = 90
		q      = 1
		pOn    = 0.6
		trials = 600
	)
	r := rng.New(8)
	s, err := NewQSampler(n, ring, pool, q)
	if err != nil {
		t.Fatal(err)
	}
	fused, explicit := 0, 0
	for i := 0; i < trials; i++ {
		c, err := s.SampleComposite(r, pOn)
		if err != nil {
			t.Fatal(err)
		}
		fused += c.M()

		gq, err := s.Sample(r)
		if err != nil {
			t.Fatal(err)
		}
		er, err := ErdosRenyi(r, n, pOn)
		if err != nil {
			t.Fatal(err)
		}
		inter, err := graph.Intersect(gq, er)
		if err != nil {
			t.Fatal(err)
		}
		explicit += inter.M()
	}
	fm, em := float64(fused)/trials, float64(explicit)/trials
	if math.Abs(fm-em) > 0.12*em+0.5 {
		t.Errorf("fused mean edges %v vs explicit intersection %v", fm, em)
	}
}

func TestQSamplerDeterminism(t *testing.T) {
	mk := func() *graph.Undirected {
		s, err := NewQSampler(80, 10, 200, 2)
		if err != nil {
			t.Fatal(err)
		}
		g, err := s.SampleComposite(rng.New(99), 0.5)
		if err != nil {
			t.Fatal(err)
		}
		return g
	}
	a, b := mk(), mk()
	if !a.IsSpanningSubgraphOf(b) || !b.IsSpanningSubgraphOf(a) {
		t.Error("same seed produced different composite graphs")
	}
}

func TestQSamplerReuseIsClean(t *testing.T) {
	// Back-to-back draws from one sampler must be independent: no counter
	// residue may leak edges between draws. Compare a reused sampler's
	// second draw with a fresh sampler fed the same stream position.
	s, err := NewQSampler(50, 8, 120, 2)
	if err != nil {
		t.Fatal(err)
	}
	r := rng.New(123)
	if _, err := s.Sample(r); err != nil {
		t.Fatal(err)
	}
	second, err := s.Sample(r)
	if err != nil {
		t.Fatal(err)
	}
	// Replay: fresh sampler, same rng sequence, skipping one draw.
	s2, err := NewQSampler(50, 8, 120, 2)
	if err != nil {
		t.Fatal(err)
	}
	r2 := rng.New(123)
	if _, err := s2.Sample(r2); err != nil {
		t.Fatal(err)
	}
	replay, err := s2.Sample(r2)
	if err != nil {
		t.Fatal(err)
	}
	if !second.IsSpanningSubgraphOf(replay) || !replay.IsSpanningSubgraphOf(second) {
		t.Error("reused sampler diverged from fresh sampler")
	}
}

func TestBinomialQIntersectionValidation(t *testing.T) {
	r := rng.New(9)
	if _, err := BinomialQIntersection(r, -1, 0.1, 10, 1); err == nil {
		t.Error("negative n: want error")
	}
	if _, err := BinomialQIntersection(r, 5, -0.1, 10, 1); err == nil {
		t.Error("negative x: want error")
	}
	if _, err := BinomialQIntersection(r, 5, 1.1, 10, 1); err == nil {
		t.Error("x > 1: want error")
	}
	if _, err := BinomialQIntersection(r, 5, 0.1, 10, 0); err == nil {
		t.Error("q = 0: want error")
	}
	if _, err := BinomialQIntersection(r, 5, 0.1, -1, 1); err == nil {
		t.Error("negative pool: want error")
	}
	g, err := BinomialQIntersection(r, 5, 0.5, 0, 1)
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
		g, err := BinomialQIntersection(r, n, x, pool, q)
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

func TestUniformQIntersectionOneShot(t *testing.T) {
	g, err := UniformQIntersection(rng.New(13), 30, 5, 60, 1)
	if err != nil {
		t.Fatal(err)
	}
	if g.N() != 30 {
		t.Errorf("N = %d, want 30", g.N())
	}
	if _, err := UniformQIntersection(rng.New(13), 30, 5, 3, 1); err == nil {
		t.Error("pool < ring: want error")
	}
	c, err := Composite(rng.New(14), 30, 5, 60, 1, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if c.N() != 30 {
		t.Errorf("composite N = %d", c.N())
	}
	if _, err := Composite(rng.New(14), 30, 5, 60, 1, 2); err == nil {
		t.Error("pOn > 1: want error")
	}
}

func BenchmarkQSamplerPaperScale(b *testing.B) {
	// One Figure-1 sample: n=1000, P=10000, K=60, q=2.
	s, err := NewQSampler(1000, 60, 10000, 2)
	if err != nil {
		b.Fatal(err)
	}
	r := rng.New(1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.SampleComposite(r, 0.5); err != nil {
			b.Fatal(err)
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
