package graphalgo

import "github.com/secure-wsn/qcomposite/internal/graph"

// evenKConnected is the independent reference of the k-connectivity tests:
// Even's algorithm on the explicit vertex-split digraph, one Dinic max-flow
// per non-adjacent pair of W = {0, …, k−1} and one per vertex outside W
// against an auxiliary node x adjacent to all of W. It shares no code with
// the growing-fan search of IsKConnectedW.
func evenKConnected(g *graph.Undirected, k int) bool {
	n := g.N()
	switch {
	case k <= 0:
		return true
	case n <= k:
		return false
	}

	// Node v becomes v_in = 2v and v_out = 2v+1 with a capacity-1 arc
	// in→out; each undirected edge {u,v} becomes arcs u_out→v_in and
	// v_out→u_in of capacity 1. The auxiliary node x = 2n is fed by W.
	aux := int32(2 * n)
	d := newDinic(2*n+1, 2*n+4*g.M()+k)
	for v := int32(0); int(v) < n; v++ {
		d.addArc(2*v, 2*v+1, 1)
	}
	g.ForEachEdge(func(u, v int32) bool {
		d.addArc(2*u+1, 2*v, 1)
		d.addArc(2*v+1, 2*u, 1)
		return true
	})
	for i := int32(0); int(i) < k; i++ {
		d.addArc(2*i+1, aux, 1)
	}

	limit := int32(k)
	for i := int32(0); int(i) < k; i++ {
		for j := i + 1; int(j) < k; j++ {
			if g.HasEdge(i, j) {
				continue
			}
			d.reset()
			// Source i_out, sink j_in: the endpoints' vertex caps must not
			// constrain the flow.
			if d.maxFlow(2*i+1, 2*j, limit) < limit {
				return false
			}
		}
	}
	for u := int32(k); int(u) < n; u++ {
		d.reset()
		if d.maxFlow(2*u+1, aux, limit) < limit {
			return false
		}
	}
	return true
}
