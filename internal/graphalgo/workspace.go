package graphalgo

import (
	"github.com/secure-wsn/qcomposite/internal/graph"
)

// Workspace holds the reusable scratch of the connectivity decision
// procedures: the union-find forest of IsConnectedW, the low-link DFS arrays
// of the biconnectivity test, and the flow pointers, visit stamps and
// growing-sink marks of the fan searches behind general k-connectivity. All
// buffers grow to the largest graph seen and are then reused, so Monte Carlo
// loops that test one topology per trial run the connectivity hot path
// allocation-free. The zero value is ready to use; a Workspace is not safe
// for concurrent use — give each worker its own.
type Workspace struct {
	uf UnionFind

	// Low-link DFS scratch (biconnectivity).
	disc   []int32
	low    []int32
	parent []int32
	stack  []dfsFrame

	// Fan-search scratch (general k). The residual graph is the implicit
	// vertex split of g: state 2v is v_in, state 2v+1 is v_out.
	pred    []int32  // pred[v]: v's predecessor on the current fan's flow, −1 when v carries none
	touched []int32  // vertices whose pred the current fan set, reset when it ends
	par     []int32  // par[s]: the state the current search reached s from
	vis     []uint32 // vis[s] == visGen: s was reached by the current search
	visGen  uint32
	sink    []uint32 // sink[v] == sinkGen: v belongs to the current sink set
	sinkGen uint32
	sinkNbr []int32 // sinkNbr[v]: neighbours of v in the growing sink
	order   []int32 // vertices in the order they are tested against the sink
	queue   []int32 // the current search's frontier of residual states
}

// dfsFrame is one explicit DFS stack entry of the iterative Tarjan scan.
type dfsFrame struct {
	v    int32
	next int // index into Neighbors(v)
}

// NewWorkspace returns an empty workspace; buffers grow on demand.
func NewWorkspace() *Workspace { return &Workspace{} }

// IsConnectedW is IsConnected through a reusable workspace (nil ws falls
// back to one-shot scratch).
func IsConnectedW(ws *Workspace, g *graph.Undirected) bool {
	n := g.N()
	if n <= 1 {
		return true
	}
	if ws == nil {
		ws = NewWorkspace()
	}
	ws.uf.Reset(n)
	g.ForEachEdge(func(u, v int32) bool {
		ws.uf.Union(u, v)
		// Once everything has merged we can stop scanning edges.
		return ws.uf.Count() > 1
	})
	return ws.uf.Count() == 1
}

// IsBiconnectedW reports whether g is 2-connected: at least 3 nodes,
// connected, and free of articulation points. (K2 has vertex connectivity 1,
// matching the convention κ(K_n) = n−1.) A nil ws falls back to one-shot
// scratch.
func IsBiconnectedW(ws *Workspace, g *graph.Undirected) bool {
	if g.N() < 3 {
		return false
	}
	if g.MinDegree() < 2 || !IsConnectedW(ws, g) {
		return false
	}
	if ws == nil {
		ws = NewWorkspace()
	}
	return !ws.scanArticulation(g, nil)
}

// scanArticulation runs the iterative Tarjan low-link DFS with reused
// buffers — the single implementation behind IsBiconnectedW and the tests'
// articulation-point reference — and reports whether any cut vertex exists. With isCut
// nil it short-circuits on the first one; otherwise it marks every cut
// vertex in isCut (length n) and scans the whole graph.
func (ws *Workspace) scanArticulation(g *graph.Undirected, isCut []bool) bool {
	n := g.N()
	if cap(ws.disc) < n {
		ws.disc = make([]int32, n)
		ws.low = make([]int32, n)
		ws.parent = make([]int32, n)
	}
	disc := ws.disc[:n]
	low := ws.low[:n]
	parent := ws.parent[:n]
	for i := 0; i < n; i++ {
		disc[i] = 0 // 0 = unvisited
		parent[i] = -1
	}
	timer := int32(0)
	found := false

	for root := int32(0); int(root) < n; root++ {
		if disc[root] != 0 {
			continue
		}
		rootChildren := 0
		timer++
		disc[root] = timer
		low[root] = timer
		ws.stack = append(ws.stack[:0], dfsFrame{v: root})
		for len(ws.stack) > 0 {
			top := &ws.stack[len(ws.stack)-1]
			v := top.v
			ns := g.Neighbors(v)
			if top.next < len(ns) {
				w := ns[top.next]
				top.next++
				if disc[w] == 0 {
					parent[w] = v
					if v == root {
						rootChildren++
					}
					timer++
					disc[w] = timer
					low[w] = timer
					ws.stack = append(ws.stack, dfsFrame{v: w})
				} else if w != parent[v] && disc[w] < low[v] {
					low[v] = disc[w] // back edge
				}
				continue
			}
			// Post-order: propagate low-link to parent.
			ws.stack = ws.stack[:len(ws.stack)-1]
			p := parent[v]
			if p != -1 {
				if low[v] < low[p] {
					low[p] = low[v]
				}
				if p != root && low[v] >= disc[p] {
					if isCut == nil {
						return true
					}
					isCut[p] = true
					found = true
				}
			}
		}
		if rootChildren >= 2 {
			if isCut == nil {
				return true
			}
			isCut[root] = true
			found = true
		}
	}
	return found
}

// IsKConnectedW is IsKConnected through a reusable workspace (nil ws falls
// back to one-shot scratch). See IsKConnected for the algorithm.
func IsKConnectedW(ws *Workspace, g *graph.Undirected, k int) bool {
	n := g.N()
	switch {
	case k <= 0:
		return true
	case n <= k:
		return false
	case k == 1:
		return IsConnectedW(ws, g)
	case g.MinDegree() < k:
		return false // a k-connected graph has minimum degree ≥ k
	case k == 2:
		return IsBiconnectedW(ws, g)
	}
	if ws == nil {
		ws = NewWorkspace()
	}
	ws.growFan(n)
	return ws.pairsLinked(g, k) && ws.growSink(g, k)
}
