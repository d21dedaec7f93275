// Package graphalgo implements the graph algorithms the paper's evaluation
// needs: connectivity (union-find, BFS), biconnectivity (articulation
// points), general vertex k-connectivity via Even's algorithm with a growing
// sink (fan searches on an implicit vertex-split residual graph),
// k-edge-connectivity (a unit-capacity Dinic max-flow), and the structural
// metrics (degrees, triangles, clustering, diameter, algebraic
// connectivity, Hamiltonian cycles) used by the extension experiments.
//
// k-connectivity is the paper's central property: a graph is k-connected iff
// it stays connected after removing any k−1 nodes (equivalently, by Menger's
// theorem, every pair of nodes is joined by k internally vertex-disjoint
// paths). Theorem 1 gives its asymptotic probability for the WSN model; this
// package supplies the exact finite-n decision procedures the Monte Carlo
// experiments rely on.
package graphalgo

// UnionFind is a disjoint-set forest with union by rank and path compression.
// The zero value is unusable; create one with NewUnionFind.
type UnionFind struct {
	parent []int32
	rank   []int8
	count  int // number of disjoint sets
}

// NewUnionFind returns a union-find over n singleton sets.
func NewUnionFind(n int) *UnionFind {
	u := &UnionFind{}
	u.Reset(n)
	return u
}

// Reset reinitializes the structure to n singleton sets, reusing the
// existing storage when it is large enough — the amortization hook of
// Workspace-backed connectivity tests.
func (u *UnionFind) Reset(n int) {
	if cap(u.parent) < n {
		u.parent = make([]int32, n)
		u.rank = make([]int8, n)
	}
	u.parent = u.parent[:n]
	u.rank = u.rank[:n]
	for i := range u.parent {
		u.parent[i] = int32(i)
		u.rank[i] = 0
	}
	u.count = n
}

// Find returns the canonical representative of x's set.
func (u *UnionFind) Find(x int32) int32 {
	root := x
	for u.parent[root] != root {
		root = u.parent[root]
	}
	// Path compression.
	for u.parent[x] != root {
		u.parent[x], x = root, u.parent[x]
	}
	return root
}

// Union merges the sets containing x and y and reports whether a merge
// happened (false if they were already in the same set).
func (u *UnionFind) Union(x, y int32) bool {
	_, merged := u.UnionRoot(x, y)
	return merged
}

// UnionRoot merges the sets containing x and y and returns the surviving
// root plus whether a merge happened. The root return lets callers that keep
// per-set aggregates (e.g. StreamUnionFind's component sizes) update them
// without a second Find.
func (u *UnionFind) UnionRoot(x, y int32) (int32, bool) {
	rx, ry := u.Find(x), u.Find(y)
	if rx == ry {
		return rx, false
	}
	if u.rank[rx] < u.rank[ry] {
		rx, ry = ry, rx
	}
	u.parent[ry] = rx
	if u.rank[rx] == u.rank[ry] {
		u.rank[rx]++
	}
	u.count--
	return rx, true
}

// LargestAmong returns the size of the largest set counting only the nodes v
// with include[v] true (0 when none are). Excluded nodes still glue sets
// together through prior Unions; they just do not add to any set's size —
// the query an induced-subgraph giant component needs when the union-find
// was built over the full node range. include must not be longer than the
// union-find's universe.
func (u *UnionFind) LargestAmong(include []bool) int {
	sizes := make([]int32, len(u.parent))
	best := int32(0)
	for v, ok := range include {
		if !ok {
			continue
		}
		root := u.Find(int32(v))
		sizes[root]++
		if sizes[root] > best {
			best = sizes[root]
		}
	}
	return int(best)
}

// Count returns the number of disjoint sets.
func (u *UnionFind) Count() int { return u.count }
