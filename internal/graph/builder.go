package graph

import (
	"fmt"
	"slices"
	"sync"
)

// Builder constructs CSR graphs from edge lists with reusable scratch, so a
// Monte Carlo loop that samples a fresh topology every trial approaches zero
// steady-state allocation. The builder owns the degree/cursor scratch and a
// double-buffered arena of CSR storage (offsets, adjacency, and the
// Undirected header itself): a graph returned by FromEdges or Collect stays
// valid through the next build and is invalidated by the second-next one —
// the same lifetime contract wsn.Deployer.Deploy imposes on the networks it
// returns. A Builder is not safe for concurrent use.
type Builder struct {
	deg    []int32
	cursor []int32

	arenas [2]builderArena
	next   int // arena index the next build writes into

	// Collect's edge buffer, borrowed from edgeBufPool for one collection,
	// and its persistent append closure: the closure is handed to arbitrary
	// emitters, where a per-call closure would escape and allocate every
	// build.
	edges      []Edge
	appendEdge func(u, v int32) bool
}

// edgeBufPool shares Collect's edge buffers across builders. A buffer is
// needed only until FromEdges has copied it into CSR form, so a fresh builder
// (a sweep builds a new Deployer per grid point) starts from a grown buffer
// instead of regrowing one edge by edge.
var edgeBufPool = sync.Pool{New: func() any { return new([]Edge) }}

// builderArena is one of the builder's two CSR buffers. The Undirected
// header lives in the arena too, so repeated builds do not even allocate the
// graph struct.
type builderArena struct {
	off []int32
	adj []int32
	g   Undirected
}

// NewBuilder returns an empty Builder; buffers grow on demand and are then
// reused.
func NewBuilder() *Builder { return &Builder{} }

// Collect builds a graph on n nodes from the edges emit passes to its yield
// callback, with FromEdges semantics, and returns emit's error unchanged if
// it fails. The yield callback lives on the builder and the edge buffer is
// pooled, so repeated collection allocates nothing in steady state. Same
// arena lifetime contract as FromEdges.
func (b *Builder) Collect(n int, emit func(yield func(u, v int32) bool) error) (*Undirected, error) {
	if b.appendEdge == nil {
		b.appendEdge = func(u, v int32) bool {
			b.edges = append(b.edges, Edge{U: u, V: v})
			return true
		}
	}
	buf := edgeBufPool.Get().(*[]Edge)
	defer edgeBufPool.Put(buf)
	b.edges = (*buf)[:0]
	err := emit(b.appendEdge)
	*buf, b.edges = b.edges, nil
	if err != nil {
		return nil, err
	}
	return b.FromEdges(n, *buf)
}

// FromEdges builds a graph on n nodes from the given edge list, with
// NewFromEdges semantics: endpoints must lie in [0, n), self-loops are
// rejected, duplicate edges (in either orientation) are merged. The returned
// graph aliases builder storage: it remains valid until the second-next
// build (FromEdges, Collect or Complete) on this builder.
func (b *Builder) FromEdges(n int, edges []Edge) (*Undirected, error) {
	if n < 0 {
		return nil, fmt.Errorf("graph: negative node count %d", n)
	}
	for _, e := range edges {
		if e.U < 0 || int(e.U) >= n || e.V < 0 || int(e.V) >= n {
			return nil, fmt.Errorf("graph: edge (%d,%d) out of range [0,%d)", e.U, e.V, n)
		}
		if e.U == e.V {
			return nil, fmt.Errorf("graph: self-loop at node %d", e.U)
		}
	}
	deg := b.scratchInt32(&b.deg, n)
	for i := range deg {
		deg[i] = 0
	}
	for _, e := range edges {
		deg[e.U]++
		deg[e.V]++
	}
	a := &b.arenas[b.next]
	b.next ^= 1
	if cap(a.off) < n+1 {
		a.off = make([]int32, n+1)
	}
	off := a.off[:n+1]
	off[0] = 0
	for v := 0; v < n; v++ {
		off[v+1] = off[v] + deg[v]
	}
	if cap(a.adj) < int(off[n]) {
		a.adj = make([]int32, off[n])
	}
	adj := a.adj[:off[n]]
	cursor := b.scratchInt32(&b.cursor, n)
	copy(cursor, off[:n])
	for _, e := range edges {
		adj[cursor[e.U]] = e.V
		cursor[e.U]++
		adj[cursor[e.V]] = e.U
		cursor[e.V]++
	}
	// Sort each adjacency list and drop duplicates in place, compacting the
	// offsets as we go. off is rewritten behind the read position, which is
	// safe because the write index never overtakes the read index.
	w := int32(0)
	lo := int32(0)
	for v := 0; v < n; v++ {
		hi := off[v+1]
		seg := adj[lo:hi]
		slices.Sort(seg)
		lo = hi
		start := w
		var prev int32 = -1
		for _, u := range seg {
			if u != prev {
				adj[w] = u
				w++
				prev = u
			}
		}
		off[v] = start
	}
	off[n] = w
	// Shift: off[v] now holds the *start* of v's compacted list, which is the
	// CSR convention already (off[v]..off[v+1]).
	a.g = Undirected{n: n, m: int(w) / 2, off: off, adj: adj[:w]}
	return &a.g, nil
}

// Complete builds the complete graph K_n directly in CSR form — no O(n²)
// intermediate edge list; the adjacency of every node v is just the sorted
// node set minus v. Same arena lifetime contract as FromEdges.
func (b *Builder) Complete(n int) (*Undirected, error) {
	if n < 0 {
		return nil, fmt.Errorf("graph: negative node count %d", n)
	}
	a := &b.arenas[b.next]
	b.next ^= 1
	if cap(a.off) < n+1 {
		a.off = make([]int32, n+1)
	}
	off := a.off[:n+1]
	total := n * (n - 1)
	if cap(a.adj) < total {
		a.adj = make([]int32, total)
	}
	adj := a.adj[:total]
	for v := 0; v <= n; v++ {
		off[v] = int32(v * (n - 1))
	}
	for v := 0; v < n; v++ {
		row := adj[off[v]:off[v+1]]
		i := 0
		for u := 0; u < n; u++ {
			if u != v {
				row[i] = int32(u)
				i++
			}
		}
	}
	a.g = Undirected{n: n, m: total / 2, off: off, adj: adj}
	return &a.g, nil
}

// scratchInt32 resizes *buf to n entries (contents unspecified) reusing its
// capacity.
func (b *Builder) scratchInt32(buf *[]int32, n int) []int32 {
	if cap(*buf) < n {
		*buf = make([]int32, n)
	}
	*buf = (*buf)[:n]
	return *buf
}
