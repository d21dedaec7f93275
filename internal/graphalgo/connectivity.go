package graphalgo

import (
	"github.com/secure-wsn/qcomposite/internal/graph"
)

// IsKConnected reports whether g is k-connected, i.e. whether its vertex
// connectivity κ(g) is at least k. Conventions: every graph is 0-connected;
// κ(K_n) = n−1, so a graph on n ≤ k nodes is never k-connected.
//
// Fast paths handle k = 1 (union-find) and k = 2 (articulation points), and
// a minimum degree below k rejects g outright. General k runs Even's
// algorithm with a growing sink. Fix W = {v_0, …, v_{k−1}};
//
//  1. for every non-adjacent pair i, j in W, find k internally disjoint
//     i–j paths, i.e. a k-fan from i into N(j): k paths that share only i
//     and end at distinct vertices of N(j);
//  2. start the sink T at W and visit the other vertices in BFS order from
//     W. A vertex with k neighbours in T passes outright; any other needs a
//     k-fan into T. Every vertex that passes joins T.
//
// Both steps are exact. A failed fan yields a cut of fewer than k vertices
// between its source and the rest of its target (Menger, fan form), so g
// is not k-connected. Conversely, take a separator S with |S| < k. If W∖S
// meets two components of g−S, a non-adjacent W pair across them has fewer
// than k disjoint paths and step 1 fails. Otherwise let A be the component
// holding W∖S: T starts inside A ∪ S and stays there, because from a vertex
// of any other component every path into A ∪ S crosses S, and fan paths
// share only their source, so k of them would need k distinct vertices of
// S. The first vertex outside A ∪ S that step 2 visits therefore fails, and
// step 2 visits every vertex (a BFS from W that misses one proves g
// disconnected).
//
// Fans are built from breadth-first augmenting-path searches run directly
// on the CSR adjacency through an implicit vertex-split residual graph
// (Workspace.augment). Each search stops at the first free sink vertex it
// reaches, and a finished fan undoes only the flow pointers its ≤ k paths
// set. On the Theorem-1 networks almost every vertex already has k sink
// neighbours when the BFS reaches it, so a query costs O(n + m) plus a few
// short searches near W. The worst case is (C(k,2) + n)·k searches of
// O(n + m) each.
//
// See IsKConnectedW for the scratch-reusing form.
func IsKConnected(g *graph.Undirected, k int) bool {
	return IsKConnectedW(nil, g, k)
}

// pairsLinked is step 1 of IsKConnected: it reports whether every
// non-adjacent pair i < j of W = {0, …, k−1} has a k-fan from i into N(j).
func (ws *Workspace) pairsLinked(g *graph.Undirected, k int) bool {
	for i := int32(0); int(i) < k; i++ {
		for j := i + 1; int(j) < k; j++ {
			if g.HasEdge(i, j) {
				continue // adjacent vertices are never separated
			}
			gen := ws.nextSink()
			for _, w := range g.Neighbors(j) {
				ws.sink[w] = gen
			}
			if !ws.fan(g, i, k) {
				return false
			}
		}
	}
	return true
}

// growSink is step 2 of IsKConnected: from T = W it visits the other
// vertices in BFS order from W and admits each to T once it has a k-fan
// into T — outright when k of its neighbours are in T already. It reports
// false at the first vertex without a fan, and when the BFS misses a
// vertex.
func (ws *Workspace) growSink(g *graph.Undirected, k int) bool {
	n := g.N()
	gen := ws.nextSink()
	clear(ws.sinkNbr[:n])
	ws.order = ws.order[:0]
	for w := int32(0); int(w) < k; w++ {
		ws.sink[w] = gen // all of W is in T before any neighbour is queued
	}
	for w := int32(0); int(w) < k; w++ {
		ws.joinSink(g, w)
	}
	for h := 0; h < len(ws.order); h++ {
		u := ws.order[h]
		if int(ws.sinkNbr[u]) < k && !ws.fan(g, u, k) {
			return false
		}
		ws.joinSink(g, u)
	}
	return len(ws.order) == n-k
}

// joinSink adds v to the sink and credits it to each neighbour's sink
// count. A neighbour outside the sink joins the visit order on its first
// credit, which makes the order the BFS order from W.
func (ws *Workspace) joinSink(g *graph.Undirected, v int32) {
	ws.sink[v] = ws.sinkGen
	for _, w := range g.Neighbors(v) {
		ws.sinkNbr[w]++
		if ws.sinkNbr[w] == 1 && ws.sink[w] != ws.sinkGen {
			ws.order = append(ws.order, w)
		}
	}
}

// fan reports whether u has a k-fan into the current sink set: k paths from
// u that share only u and end at distinct sink vertices, with no sink
// vertex inside a path. It clears the flow it built before returning, so
// pred is −1 everywhere between fans.
func (ws *Workspace) fan(g *graph.Undirected, u int32, k int) bool {
	paths := 0
	for paths < k && ws.augment(g, u) {
		paths++
	}
	for _, v := range ws.touched {
		ws.pred[v] = -1
	}
	ws.touched = ws.touched[:0]
	return paths == k
}

// augment extends the current fan from u by one path: a breadth-first
// search of the residual graph from u_out that stops at the first free sink
// vertex, followed by a push of one unit along the path found. It reports
// false when no free sink vertex is reachable, i.e. the fan is maximum.
//
// The residual graph is the vertex split of g — v_in → v_out of capacity 1,
// v_out → w_in for every edge — read off pred with no digraph built:
//
//   - v_in → v_out when v carries no flow; otherwise only v_in →
//     pred[v]_out, which undoes the flow edge pred[v] → v;
//   - v_out → v_in when v carries flow, which undoes its unit through v,
//     and v_out → w_in for every neighbour w with pred[w] ≠ v.
//
// Sink vertices end paths: a free one completes the search on arrival, a
// used one offers only the undo arc into pred[v]_out. The source u needs no
// in-state, so u_in is marked visited from the start.
func (ws *Workspace) augment(g *graph.Undirected, u int32) bool {
	gen := ws.nextVisit()
	pred, par, vis := ws.pred, ws.par, ws.vis
	src := 2*u + 1
	vis[2*u], vis[src] = gen, gen
	q := append(ws.queue[:0], src)
	for h := 0; h < len(q); h++ {
		s := q[h]
		v := s >> 1
		if s&1 == 0 {
			next := s + 1
			if p := pred[v]; p >= 0 {
				next = 2*p + 1
			}
			if vis[next] != gen {
				vis[next], par[next] = gen, s
				q = append(q, next)
			}
			continue
		}
		if pred[v] >= 0 && vis[s-1] != gen {
			vis[s-1], par[s-1] = gen, s
			q = append(q, s-1)
		}
		for _, w := range g.Neighbors(v) {
			in := 2 * w
			if vis[in] == gen || pred[w] == v {
				continue
			}
			vis[in], par[in] = gen, s
			if ws.sink[w] == ws.sinkGen && pred[w] < 0 {
				ws.queue = q
				ws.push(in, src)
				return true
			}
			q = append(q, in)
		}
	}
	ws.queue = q
	return false
}

// push adds one unit of flow along the search path that ends at state end.
// Walking back to src, an arc a_out → b_in sets pred[b] = a and an arc
// b_in → a_out undoes the flow edge a → b. Only the two arcs at b_in touch
// pred[b], and the walk meets the one leaving b_in first, so an undo
// followed by a new arc into b leaves the new arc.
func (ws *Workspace) push(end, src int32) {
	for s := end; s != src; {
		p := ws.par[s]
		if s>>1 != p>>1 {
			if s&1 == 0 {
				ws.pred[s>>1] = p >> 1
				ws.touched = append(ws.touched, s>>1)
			} else {
				ws.pred[p>>1] = -1
			}
		}
		s = p
	}
}

// growFan sizes the fan-search scratch for an n-node graph. Only fresh
// storage needs initialising: pred is −1 everywhere between fans, and
// stamps left by earlier queries are below the current generations.
func (ws *Workspace) growFan(n int) {
	if len(ws.pred) >= n {
		return
	}
	ws.pred = make([]int32, n)
	for i := range ws.pred {
		ws.pred[i] = -1
	}
	ws.sink = make([]uint32, n)
	ws.sinkNbr = make([]int32, n)
	ws.par = make([]int32, 2*n)
	ws.vis = make([]uint32, 2*n)
}

// nextSink starts a new sink set and returns its generation stamp.
func (ws *Workspace) nextSink() uint32 {
	ws.sinkGen++
	if ws.sinkGen == 0 { // wrapped: old stamps could collide
		clear(ws.sink)
		ws.sinkGen = 1
	}
	return ws.sinkGen
}

// nextVisit starts a new search and returns its visit stamp.
func (ws *Workspace) nextVisit() uint32 {
	ws.visGen++
	if ws.visGen == 0 {
		clear(ws.vis)
		ws.visGen = 1
	}
	return ws.visGen
}
