// Package randgraph samples the random graph families of the paper's model:
//
//   - Erdős–Rényi graphs G(n, p) — the on/off channel model (Section II);
//   - binomial q-intersection graphs H_q(n, x, P) — the auxiliary family of
//     the paper's coupling proofs (each key is held independently with
//     probability x);
//   - the Lemma 5 coupling of H_q(n, x, P) inside the uniform
//     q-intersection graph G_q(n, K, P);
//   - random geometric graphs (the disk model discussed in Section IX).
//
// Samplers take explicit *rng.Rand generators and are deterministic given
// the generator state. The q-intersection graphs are built from an inverted
// key→holders index so that only node pairs actually sharing a key are
// touched: expected work is Θ(P·(nK/P)²) = Θ(n²K²/P) instead of the naive
// Θ(n²K) pairwise comparison. The composite WSN topology
// G_{n,q}(n,K,P,p) = G_q(n,K,P) ∩ G(n,p) is deployed by package wsn.
package randgraph

import (
	"fmt"

	"github.com/secure-wsn/qcomposite/internal/graph"
	"github.com/secure-wsn/qcomposite/internal/rng"
)

// ErdosRenyi samples G(n, p) as a one-shot graph: each of the C(n,2)
// possible edges is present independently with probability p. It collects
// EmitErdosRenyi on a private kernel over r, so the cost is O(n + E[m])
// rather than O(n²).
func ErdosRenyi(r *rng.Rand, n int, p float64) (*graph.Undirected, error) {
	var src rng.GeometricSource
	src.Reset(r)
	return graph.NewBuilder().Collect(n, func(yield func(u, v int32) bool) error {
		return EmitErdosRenyi(&src, n, p, yield)
	})
}

// BinomialQIntersection samples H_q(n, x, P): each of the P keys is added to
// each node's ring independently with probability x; nodes sharing ≥ q keys
// are adjacent. This is the auxiliary graph of the paper's Lemma 5/6
// coupling chain.
func BinomialQIntersection(r *rng.Rand, n int, x float64, pool, q int) (*graph.Undirected, error) {
	g, _, err := binomialQIntersection(r, n, x, pool, q)
	return g, err
}

// binomialQIntersection also returns the sampled ring sizes for use by the
// coupled sampler.
func binomialQIntersection(r *rng.Rand, n int, x float64, pool, q int) (*graph.Undirected, []int, error) {
	switch {
	case n < 0:
		return nil, nil, fmt.Errorf("randgraph: negative node count %d", n)
	case q < 1:
		return nil, nil, fmt.Errorf("randgraph: key overlap requirement q=%d must be ≥ 1", q)
	case pool < 0:
		return nil, nil, fmt.Errorf("randgraph: negative pool size %d", pool)
	case x < 0 || x > 1:
		return nil, nil, fmt.Errorf("randgraph: inclusion probability %v outside [0,1]", x)
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
		g, err := graph.NewFromEdges(n, nil)
		return g, sizes, err
	}
	subset, err := rng.NewSubsetSampler(pool)
	if err != nil {
		return nil, nil, fmt.Errorf("randgraph: binomial q-intersection: %w", err)
	}
	rings := make([][]int32, n)
	buf := make([]int32, 0, total)
	for v := 0; v < n; v++ {
		start := len(buf)
		buf, err = subset.AppendSample(r, sizes[v], buf)
		if err != nil {
			return nil, nil, fmt.Errorf("randgraph: binomial q-intersection: %w", err)
		}
		rings[v] = buf[start:]
	}
	g, err := qIntersectFromRings(n, pool, q, rings)
	if err != nil {
		return nil, nil, err
	}
	return g, sizes, nil
}

// qIntersectFromRings builds the ≥q-shared-keys graph from explicit rings
// using the inverted-index counting strategy with a sparse map counter.
func qIntersectFromRings(n, pool, q int, rings [][]int32) (*graph.Undirected, error) {
	holders := make([][]int32, pool)
	for v, ring := range rings {
		for _, k := range ring {
			holders[k] = append(holders[k], int32(v))
		}
	}
	counts := make(map[int64]uint8)
	for _, hs := range holders {
		for i := 0; i < len(hs); i++ {
			ui := int64(hs[i]) * int64(n)
			for j := i + 1; j < len(hs); j++ {
				key := ui + int64(hs[j])
				if c := counts[key]; c < 255 {
					counts[key] = c + 1
				}
			}
		}
	}
	q8 := uint8(q)
	if q > 255 {
		q8 = 255
	}
	var edges []graph.Edge
	for key, cnt := range counts {
		if cnt >= q8 {
			edges = append(edges, graph.Edge{
				U: int32(key / int64(n)),
				V: int32(key % int64(n)),
			})
		}
	}
	g, err := graph.NewFromEdges(n, edges)
	if err != nil {
		return nil, fmt.Errorf("randgraph: q-intersection from rings: %w", err)
	}
	return g, nil
}
