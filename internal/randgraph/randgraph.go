// Package randgraph samples the random graph families of the paper's model:
//
//   - Erdős–Rényi graphs G(n, p) — the on/off channel model (Section II);
//   - the Lemma 5 coupling of the binomial q-intersection graph
//     H_q(n, x, P) (each key held independently with probability x, the
//     auxiliary family of the paper's coupling proofs) inside the uniform
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
