package randgraph

import (
	"fmt"

	"github.com/secure-wsn/qcomposite/internal/graph"
	"github.com/secure-wsn/qcomposite/internal/rng"
)

// CoupledPair is the result of sampling a binomial and a uniform
// q-intersection graph on one probability space so that the binomial graph
// is a spanning subgraph of the uniform one — the monotone coupling behind
// the paper's Lemma 5.
type CoupledPair struct {
	// Uniform is G_q(n, K, P).
	Uniform *graph.Undirected
	// Binomial is H_q(n, x, P), built from sub-rings of Uniform's rings.
	Binomial *graph.Undirected
	// Coupled reports whether the coupling event held: every node's
	// Binomial(P, x) draw was at most K. When false, Binomial was clipped to
	// ring size K and the subgraph relation still holds, but the marginal
	// law of Binomial deviates from H_q(n, x, P). Lemma 5's conditions make
	// the event hold with probability 1 − o(1).
	Coupled bool
}

// SampleCoupled draws the Lemma 5 coupling of H_q(n, x, P) ⊑ G_q(n, K, P):
// each node first draws m_v ~ Binomial(P, x); its binomial ring is a uniform
// m_v-subset of its uniform K-ring. Conditioned on m_v ≤ K for all v (the
// Coupled flag), both marginals are exact and the containment is pointwise.
func SampleCoupled(r *rng.Rand, n, ring, pool, q int, x float64) (*CoupledPair, error) {
	switch {
	case x < 0 || x > 1:
		return nil, fmt.Errorf("randgraph: coupling inclusion probability %v outside [0,1]", x)
	case n < 0:
		return nil, fmt.Errorf("randgraph: coupled sample: negative node count %d", n)
	case q < 1:
		return nil, fmt.Errorf("randgraph: coupled sample: key overlap requirement q=%d must be ≥ 1", q)
	case ring < q:
		return nil, fmt.Errorf("randgraph: coupled sample: ring size %d below overlap requirement q=%d", ring, q)
	case pool < ring:
		return nil, fmt.Errorf("randgraph: coupled sample: pool size %d below ring size %d", pool, ring)
	}
	subset, err := rng.NewSubsetSampler(pool)
	if err != nil {
		return nil, fmt.Errorf("randgraph: coupled sample: %w", err)
	}
	// Uniform rings: n independent uniform K-subsets of the pool.
	flat := make([]int32, 0, n*ring)
	for v := 0; v < n; v++ {
		if flat, err = subset.AppendSample(r, ring, flat); err != nil {
			return nil, fmt.Errorf("randgraph: coupled sample: %w", err)
		}
	}
	rings := make([][]int32, n)
	for v := range rings {
		rings[v] = flat[v*ring : (v+1)*ring]
	}
	uniform, err := qIntersectFromRings(n, pool, q, rings)
	if err != nil {
		return nil, err
	}
	coupled := true
	for v, full := range rings {
		m := r.Binomial(pool, x)
		if m > ring {
			m = ring
			coupled = false
		}
		// A uniform m-subset of the node's uniform K-ring is a uniform
		// m-subset of the pool: partial Fisher–Yates, in place now that the
		// uniform graph is built.
		for i := 0; i < m; i++ {
			j := i + r.Intn(len(full)-i)
			full[i], full[j] = full[j], full[i]
		}
		rings[v] = full[:m]
	}
	binomial, err := qIntersectFromRings(n, pool, q, rings)
	if err != nil {
		return nil, err
	}
	return &CoupledPair{Uniform: uniform, Binomial: binomial, Coupled: coupled}, nil
}
