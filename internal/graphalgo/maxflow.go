package graphalgo

// dinic is a unit-capacity max-flow solver (Dinic's algorithm: BFS level
// graph + DFS blocking flow). It counts edge-disjoint paths for
// IsKEdgeConnected, and internally vertex-disjoint paths on the vertex-split
// digraph for the tests' k-connectivity references. Capacities are integers;
// queries can cap the flow at a limit so k-edge-connectivity tests cost at
// most k augmentation rounds of useful work.
type dinic struct {
	head  []int32 // head[v] = first edge id of v, -1 terminated
	next  []int32 // next[e] = next edge id in v's list
	to    []int32
	cap0  []int32 // original capacities, for Reset
	cap   []int32 // residual capacities
	level []int32
	iter  []int32
	queue []int32
}

// newDinic returns a solver over n flow nodes with room for edgeHint arcs.
func newDinic(n, edgeHint int) *dinic {
	d := &dinic{
		head:  make([]int32, n),
		level: make([]int32, n),
		iter:  make([]int32, n),
		next:  make([]int32, 0, edgeHint*2),
		to:    make([]int32, 0, edgeHint*2),
		cap0:  make([]int32, 0, edgeHint*2),
		cap:   make([]int32, 0, edgeHint*2),
	}
	for i := range d.head {
		d.head[i] = -1
	}
	return d
}

// addArc inserts a directed arc u→v with the given capacity and its reverse
// arc with capacity 0. Arc ids are even for forward, odd for reverse, so
// e^1 is always the partner arc.
func (d *dinic) addArc(u, v, capacity int32) {
	d.to = append(d.to, v)
	d.cap0 = append(d.cap0, capacity)
	d.next = append(d.next, d.head[u])
	d.head[u] = int32(len(d.to) - 1)

	d.to = append(d.to, u)
	d.cap0 = append(d.cap0, 0)
	d.next = append(d.next, d.head[v])
	d.head[v] = int32(len(d.to) - 1)
}

// reset restores all residual capacities to their original values.
func (d *dinic) reset() {
	d.cap = append(d.cap[:0], d.cap0...)
}

// bfsLevels builds the level graph; returns false when t is unreachable.
func (d *dinic) bfsLevels(s, t int32) bool {
	for i := range d.level {
		d.level[i] = -1
	}
	d.level[s] = 0
	d.queue = append(d.queue[:0], s)
	// Drain with a head index: reslicing the front away would permanently
	// consume queue capacity and defeat the workspace reuse.
	for qh := 0; qh < len(d.queue); qh++ {
		v := d.queue[qh]
		for e := d.head[v]; e != -1; e = d.next[e] {
			w := d.to[e]
			if d.cap[e] > 0 && d.level[w] == -1 {
				d.level[w] = d.level[v] + 1
				d.queue = append(d.queue, w)
			}
		}
	}
	return d.level[t] != -1
}

// dfsBlocking sends one augmenting unit along the level graph (unit
// capacities make per-path flow 1).
func (d *dinic) dfsBlocking(v, t int32) bool {
	if v == t {
		return true
	}
	for ; d.iter[v] != -1; d.iter[v] = d.next[d.iter[v]] {
		e := d.iter[v]
		w := d.to[e]
		if d.cap[e] > 0 && d.level[w] == d.level[v]+1 {
			if d.dfsBlocking(w, t) {
				d.cap[e]--
				d.cap[e^1]++
				return true
			}
		}
	}
	d.level[v] = -1 // dead end; prune
	return false
}

// maxFlow computes the max flow from s to t, stopping early once the flow
// reaches limit (pass a negative limit for unbounded). It assumes reset()
// was called since the last query.
func (d *dinic) maxFlow(s, t int32, limit int32) int32 {
	if s == t {
		return 0
	}
	var flow int32
	for d.bfsLevels(s, t) {
		copy(d.iter, d.head)
		for d.dfsBlocking(s, t) {
			flow++
			if limit >= 0 && flow >= limit {
				return flow
			}
		}
	}
	return flow
}
