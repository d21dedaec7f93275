package graphalgo

import (
	"math/rand"
	"testing"

	"github.com/secure-wsn/qcomposite/internal/graph"
)

// mustGraph builds a graph or fails the test.
func mustGraph(tb testing.TB, n int, edges []graph.Edge) *graph.Undirected {
	tb.Helper()
	g, err := graph.NewFromEdges(n, edges)
	if err != nil {
		tb.Fatalf("NewFromEdges: %v", err)
	}
	return g
}

// pathGraph returns the path 0−1−…−(n−1).
func pathGraph(tb testing.TB, n int) *graph.Undirected {
	tb.Helper()
	edges := make([]graph.Edge, 0, n-1)
	for i := 0; i < n-1; i++ {
		edges = append(edges, graph.Edge{U: int32(i), V: int32(i + 1)})
	}
	return mustGraph(tb, n, edges)
}

// cycleGraph returns the cycle on n nodes.
func cycleGraph(tb testing.TB, n int) *graph.Undirected {
	tb.Helper()
	edges := make([]graph.Edge, 0, n)
	for i := 0; i < n; i++ {
		edges = append(edges, graph.Edge{U: int32(i), V: int32((i + 1) % n)})
	}
	return mustGraph(tb, n, edges)
}

// completeGraph returns K_n.
func completeGraph(tb testing.TB, n int) *graph.Undirected {
	tb.Helper()
	g, err := graph.NewBuilder().Complete(n)
	if err != nil {
		tb.Fatalf("Complete(%d): %v", n, err)
	}
	return g
}

// gnp samples an Erdős–Rényi graph with math/rand for test inputs (the
// library's own samplers live in randgraph and are tested separately).
func gnp(tb testing.TB, r *rand.Rand, n int, p float64) *graph.Undirected {
	tb.Helper()
	var edges []graph.Edge
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			if r.Float64() < p {
				edges = append(edges, graph.Edge{U: int32(u), V: int32(v)})
			}
		}
	}
	return mustGraph(tb, n, edges)
}

// bruteVertexConnectivity computes κ by exhaustive vertex-subset removal.
// Exponential: callers keep n ≤ ~10.
func bruteVertexConnectivity(g *graph.Undirected) int {
	n := g.N()
	if n <= 1 {
		return 0
	}
	if !IsConnected(g) {
		return 0
	}
	// Try removal sets in increasing size; the first size whose removal can
	// disconnect the rest (leaving ≥ 2 nodes) is κ. If none, κ = n−1.
	for size := 1; size <= n-2; size++ {
		if bruteHasDisconnectingSet(g, size) {
			return size
		}
	}
	return n - 1
}

func bruteHasDisconnectingSet(g *graph.Undirected, size int) bool {
	n := g.N()
	alive := make([]bool, n)
	// Enumerate subsets of the given size with a simple combination walker.
	idx := make([]int, size)
	for i := range idx {
		idx[i] = i
	}
	for {
		for i := range alive {
			alive[i] = true
		}
		for _, v := range idx {
			alive[v] = false
		}
		sub, _, err := graph.InducedSubgraph(g, alive)
		if err == nil && sub.N() >= 2 && !IsConnected(sub) {
			return true
		}
		// Next combination.
		i := size - 1
		for i >= 0 && idx[i] == n-size+i {
			i--
		}
		if i < 0 {
			return false
		}
		idx[i]++
		for j := i + 1; j < size; j++ {
			idx[j] = idx[j-1] + 1
		}
	}
}

// bruteEdgeConnectivity computes λ by exhaustive edge-subset removal.
// Exponential: callers keep m small.
func bruteEdgeConnectivity(tb testing.TB, g *graph.Undirected) int {
	tb.Helper()
	if g.N() < 2 || !IsConnected(g) {
		return 0
	}
	edges := g.Edges()
	m := len(edges)
	for size := 1; size <= m; size++ {
		idx := make([]int, size)
		for i := range idx {
			idx[i] = i
		}
		for {
			drop := make(map[int]bool, size)
			for _, e := range idx {
				drop[e] = true
			}
			var kept []graph.Edge
			for i, e := range edges {
				if !drop[i] {
					kept = append(kept, e)
				}
			}
			h := mustGraph(tb, g.N(), kept)
			if !IsConnected(h) {
				return size
			}
			i := size - 1
			for i >= 0 && idx[i] == m-size+i {
				i--
			}
			if i < 0 {
				break
			}
			idx[i]++
			for j := i + 1; j < size; j++ {
				idx[j] = idx[j-1] + 1
			}
		}
	}
	return m
}

// vertexConnectivity returns κ(g) exactly: the minimum number of node
// removals that disconnect g (n−1 for the complete graph K_n, 0 for
// disconnected or trivial graphs).
func vertexConnectivity(g *graph.Undirected) int {
	n := g.N()
	if n == 0 {
		return 0
	}
	if n == 1 {
		return 0
	}
	// κ is bounded by the minimum degree; binary search the monotone
	// predicate IsKConnected over [0, minDeg+1), every probe through one
	// workspace.
	ws := NewWorkspace()
	lo, hi := 0, g.MinDegree()+1 // invariant: IsKConnected(lo), !IsKConnected(hi)
	if !IsKConnectedW(ws, g, 1) {
		return 0
	}
	if n-1 <= hi && IsKConnectedW(ws, g, n-1) {
		return n - 1 // complete graph fast path
	}
	for hi-lo > 1 {
		mid := (lo + hi) / 2
		if IsKConnectedW(ws, g, mid) {
			lo = mid
		} else {
			hi = mid
		}
	}
	return lo
}
