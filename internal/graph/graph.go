// Package graph provides the immutable undirected graph representation used
// throughout the library. The studied WSN topology is the intersection
// G_q(n,K,P) ∩ G(n,p) of two random graphs on a common node set (eq. (1) of
// the paper): Builder collects such a streamed edge draw into a graph, and
// Intersect composes two graphs explicitly.
//
// Graphs are stored in compressed sparse row (CSR) form with sorted
// adjacency, giving O(1) degree queries, O(log d) edge tests, and cache
// friendly traversal. Node identifiers are dense int32 indices [0, N).
// A graph is immutable after construction, so neighbor slices can be handed
// out as read-only views without defensive copies on the hot paths.
package graph

import (
	"fmt"
	"sort"
)

// Edge is an undirected edge between two node indices. Construction
// normalises every edge so that U < V.
type Edge struct {
	U, V int32
}

// Undirected is an immutable simple undirected graph.
type Undirected struct {
	n   int
	m   int
	off []int32 // off[v]..off[v+1] delimit v's neighbors in adj
	adj []int32 // concatenated sorted adjacency lists
}

// NewFromEdges builds a graph on n nodes from the given edge list.
// Endpoints must lie in [0, n); self-loops are rejected; duplicate edges
// (in either orientation) are merged.
//
// NewFromEdges is the one-shot form of Builder.FromEdges: the fresh builder
// is dropped after the build, so the returned graph owns its storage for
// good. Repeated-sampling loops should hold a Builder instead.
func NewFromEdges(n int, edges []Edge) (*Undirected, error) {
	return NewBuilder().FromEdges(n, edges)
}

// N returns the number of nodes.
func (g *Undirected) N() int { return g.n }

// M returns the number of edges.
func (g *Undirected) M() int { return g.m }

// Degree returns the degree of node v.
func (g *Undirected) Degree(v int32) int {
	return int(g.off[v+1] - g.off[v])
}

// Neighbors returns the sorted neighbor list of v as a read-only view.
// Callers must not modify the returned slice; the graph is immutable and the
// view stays valid for the graph's lifetime.
func (g *Undirected) Neighbors(v int32) []int32 {
	return g.adj[g.off[v]:g.off[v+1]]
}

// HasEdge reports whether {u, v} is an edge, by binary search on the shorter
// adjacency list.
func (g *Undirected) HasEdge(u, v int32) bool {
	if u == v || u < 0 || v < 0 || int(u) >= g.n || int(v) >= g.n {
		return false
	}
	if g.Degree(u) > g.Degree(v) {
		u, v = v, u
	}
	ns := g.Neighbors(u)
	i := sort.Search(len(ns), func(i int) bool { return ns[i] >= v })
	return i < len(ns) && ns[i] == v
}

// Edges returns a fresh copy of the edge list with U < V in each edge,
// ordered by (U, V).
func (g *Undirected) Edges() []Edge {
	out := make([]Edge, 0, g.m)
	g.ForEachEdge(func(u, v int32) bool {
		out = append(out, Edge{U: u, V: v})
		return true
	})
	return out
}

// ForEachEdge visits each undirected edge exactly once with u < v, in
// lexicographic order. Iteration stops early if fn returns false.
func (g *Undirected) ForEachEdge(fn func(u, v int32) bool) {
	for u := int32(0); int(u) < g.n; u++ {
		for _, v := range g.Neighbors(u) {
			if v <= u {
				continue
			}
			if !fn(u, v) {
				return
			}
		}
	}
}

// MinDegree returns the minimum node degree; it returns 0 for the empty
// graph.
func (g *Undirected) MinDegree() int {
	if g.n == 0 {
		return 0
	}
	min := g.Degree(0)
	for v := int32(1); int(v) < g.n; v++ {
		if d := g.Degree(v); d < min {
			min = d
		}
	}
	return min
}

// MaxDegree returns the maximum node degree, 0 for the empty graph.
func (g *Undirected) MaxDegree() int {
	max := 0
	for v := int32(0); int(v) < g.n; v++ {
		if d := g.Degree(v); d > max {
			max = d
		}
	}
	return max
}

// DegreeHistogram returns counts[h] = number of nodes with degree h,
// for h in [0, MaxDegree()].
func (g *Undirected) DegreeHistogram() []int {
	counts := make([]int, g.MaxDegree()+1)
	for v := int32(0); int(v) < g.n; v++ {
		counts[g.Degree(v)]++
	}
	return counts
}

// Intersect returns the graph on the common node set whose edge set is the
// intersection of a's and b's — the composition operation of eq. (1).
func Intersect(a, b *Undirected) (*Undirected, error) {
	if a.n != b.n {
		return nil, fmt.Errorf("graph: intersect node count mismatch %d != %d", a.n, b.n)
	}
	small, large := a, b
	if small.m > large.m {
		small, large = large, small
	}
	var edges []Edge
	small.ForEachEdge(func(u, v int32) bool {
		if large.HasEdge(u, v) {
			edges = append(edges, Edge{U: u, V: v})
		}
		return true
	})
	return NewFromEdges(a.n, edges)
}

// IsSpanningSubgraphOf reports whether every edge of g is an edge of h and
// both graphs share the node count — the containment relation used by the
// paper's coupling arguments (Lemmas 3–6).
func (g *Undirected) IsSpanningSubgraphOf(h *Undirected) bool {
	if g.n != h.n {
		return false
	}
	ok := true
	g.ForEachEdge(func(u, v int32) bool {
		if !h.HasEdge(u, v) {
			ok = false
			return false
		}
		return true
	})
	return ok
}

// InducedSubgraph returns the subgraph induced by the nodes with alive[v]
// true, with nodes relabelled densely, plus origID mapping each new index to
// its original node. len(alive) must equal g.N().
func InducedSubgraph(g *Undirected, alive []bool) (*Undirected, []int32, error) {
	if len(alive) != g.n {
		return nil, nil, fmt.Errorf("graph: alive mask length %d != node count %d", len(alive), g.n)
	}
	newID := make([]int32, g.n)
	var origID []int32
	for v := 0; v < g.n; v++ {
		if alive[v] {
			newID[v] = int32(len(origID))
			origID = append(origID, int32(v))
		} else {
			newID[v] = -1
		}
	}
	var edges []Edge
	g.ForEachEdge(func(u, v int32) bool {
		if alive[u] && alive[v] {
			edges = append(edges, Edge{U: newID[u], V: newID[v]})
		}
		return true
	})
	sub, err := NewFromEdges(len(origID), edges)
	if err != nil {
		return nil, nil, err
	}
	return sub, origID, nil
}

// Density returns 2m / (n(n−1)), the fraction of possible edges present;
// 0 for graphs with fewer than two nodes.
func (g *Undirected) Density() float64 {
	if g.n < 2 {
		return 0
	}
	return 2 * float64(g.m) / (float64(g.n) * float64(g.n-1))
}
