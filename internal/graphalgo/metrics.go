package graphalgo

import (
	"github.com/secure-wsn/qcomposite/internal/graph"
)

// TriangleCount returns the number of triangles in g, counting each triangle
// once, by merging sorted adjacency lists along each edge (u < v < w
// orientation).
func TriangleCount(g *graph.Undirected) int {
	count := 0
	g.ForEachEdge(func(u, v int32) bool {
		nu, nv := g.Neighbors(u), g.Neighbors(v)
		i, j := 0, 0
		for i < len(nu) && j < len(nv) {
			a, b := nu[i], nv[j]
			switch {
			case a == b:
				if a > v { // orientation u < v < w counts each triangle once
					count++
				}
				i++
				j++
			case a < b:
				i++
			default:
				j++
			}
		}
		return true
	})
	return count
}

// GlobalClusteringCoefficient returns 3·triangles / wedges, the transitivity
// of g (0 when the graph has no wedges). Random q-intersection graphs have
// strictly positive clustering even in sparse regimes — one of the ways they
// differ from Erdős–Rényi graphs with the same edge density (Bloznelis 2013,
// cited by the paper), which is why the paper's coupling analysis is needed
// at all.
func GlobalClusteringCoefficient(g *graph.Undirected) float64 {
	wedges := 0
	for v := int32(0); int(v) < g.N(); v++ {
		d := g.Degree(v)
		wedges += d * (d - 1) / 2
	}
	if wedges == 0 {
		return 0
	}
	return 3 * float64(TriangleCount(g)) / float64(wedges)
}
