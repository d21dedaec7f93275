package graphalgo

import (
	"github.com/secure-wsn/qcomposite/internal/graph"
)

// IsKEdgeConnected reports whether g is k-edge-connected: it stays connected
// after removing any k−1 edges (λ(g) ≥ k). Edge failures are the other
// failure mode of the paper's motivation ("connectivity despite the failure
// of any (k−1) sensors OR links"); vertex k-connectivity implies this but
// not conversely.
//
// Implementation: λ(g) = min over v ≠ v₀ of maxflow(v₀, v) on the directed
// unit-capacity version of g (Menger, edge form; the global minimum cut
// separates v₀ from some vertex). Each flow is capped at k, so the test
// costs at most (n−1)·k·O(m).
func IsKEdgeConnected(g *graph.Undirected, k int) bool {
	n := g.N()
	switch {
	case k <= 0:
		return true
	case n == 0:
		return false // no graph to be connected
	case n == 1:
		return false // λ of a single vertex is 0; matches λ(K_n)=n−1 for n≥2 convention
	case g.MinDegree() < k:
		return false
	case k == 1:
		return IsConnected(g)
	}
	// Directed unit-capacity network: each undirected edge becomes two
	// opposing arcs of capacity 1.
	d := newDinic(n, 2*g.M())
	g.ForEachEdge(func(u, v int32) bool {
		d.addArc(u, v, 1)
		d.addArc(v, u, 1)
		return true
	})
	limit := int32(k)
	for v := int32(1); int(v) < n; v++ {
		d.reset()
		if d.maxFlow(0, v, limit) < limit {
			return false
		}
	}
	return true
}
