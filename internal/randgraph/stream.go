package randgraph

import (
	"fmt"
	"math"
	"sync"

	"github.com/secure-wsn/qcomposite/internal/rng"
)

// Edge emitters: every Erdős–Rényi family the channel models draw — G(n, p),
// G(n, p) over a node subset, and a bipartite block between two node sets —
// streamed through the batched rng.GeometricSource skip kernel to a
// callback instead of a buffer, so a consumer (e.g. a union-find
// connectivity trial) never materializes the edge list, and a caller that
// wants a graph collects the stream with graph.Builder.Collect. G(n, p) is
// drawn row by row (Rows.ErdosRenyi): its triangle walk produces each
// sensor's neighbours above it together, so a row consumer handles a
// sensor's whole row in one call and the walk takes its skips a buffer at
// a time through GeometricSource.Fill; EmitErdosRenyi is the edge-by-edge
// view of the same draw. Block emitters share one kernel across calls,
// which is how the class-structured channel (channel.HeterOnOff) threads
// one draw through all its class-pair blocks; that also makes them the
// substrate of any class-structured model, each block costing O(block
// size + E[block edges]).
//
// Randomness discipline: the kernel refills its uniform buffer in batches,
// so after any draw (early-exited or fully drained) the underlying generator
// parks at the next batch boundary rather than at the last uniform used.
// Callers sharing a generator across a draw and later consumers must treat
// the whole draw as one randomness commitment (per-trial streams, as
// montecarlo hands out, satisfy this trivially). When yield returns false
// the enumeration stops immediately and the generator is not advanced
// again.

// Rows holds the reusable buffers of row draws: the row being collected
// and the ascending index slice that complete rows are cut from. A zero
// Rows is ready to use; buffers grow on first use and are reused, so
// repeated draws through one Rows allocate nothing in steady state. Not
// safe for concurrent use.
type Rows struct {
	row []int32
	all []int32 // all[i] = i
}

// ErdosRenyi streams one G(n, p) draw row by row through the given skip
// kernel: each of the C(n,2) possible edges is present independently with
// probability p, and each sensor u with at least one neighbour v > u is
// passed to yield once, in ascending u, with those neighbours in ascending
// order. Concatenated, the rows are the lexicographic edge sequence of the
// geometric skip walk over the upper triangle. vs is valid only during the
// call and must not be modified; yield returning false ends the draw.
//
// The source must be Reset to a generator, except at p = 0 and p = 1, which
// draw no randomness (src may then be nil). ErdosRenyi retargets its p and
// shares buffered randomness with any preceding Emit* call on the same
// source; it reads its skips a buffer at a time (GeometricSource.Fill), so
// it must be the last draw on its source. The generator ends exactly where
// a draw through GeometricSource.Next would leave it.
func (rs *Rows) ErdosRenyi(src *rng.GeometricSource, n int, p float64, yield func(u int32, vs []int32) bool) error {
	if n < 0 {
		return fmt.Errorf("randgraph: negative node count %d", n)
	}
	if math.IsNaN(p) || p < 0 || p > 1 {
		return fmt.Errorf("randgraph: edge probability %v outside [0,1]", p)
	}
	if p == 0 || n < 2 {
		return nil
	}
	if p == 1 {
		// Every row is the tail of one ascending index slice.
		for i := len(rs.all); i < n; i++ {
			rs.all = append(rs.all, int32(i))
		}
		for u := 0; u < n-1; u++ {
			if !yield(int32(u), rs.all[u+1:n]) {
				return nil
			}
		}
		return nil
	}
	src.SetP(p)
	if cap(rs.row) < n {
		rs.row = make([]int32, 0, n)
	}
	row := rs.row[:0]
	// Geometric skipping across the flattened upper triangle. Skips beyond
	// the triangle end the walk regardless of magnitude, so capping them at
	// the slot count keeps the arithmetic below overflow-free without
	// changing any emitted edge (tiny p saturates the kernel at MaxInt).
	maxSkip := n * (n - 1) / 2
	var skips [rowSkipBatch]int
	u, v := 0, 0 // v is advanced before use; position (0,1) is slot 0
	for {
		m := src.Fill(skips[:])
		for _, skip := range skips[:m] {
			if skip > maxSkip {
				skip = maxSkip
			}
			v += skip + 1
			if v >= n {
				if len(row) > 0 {
					if !yield(int32(u), row) {
						return nil
					}
					row = row[:0]
				}
				for v >= n {
					overflow := v - n
					u++
					v = u + 1 + overflow
					if u >= n-1 {
						break
					}
				}
				if u >= n-1 || v >= n {
					return nil
				}
			}
			row = append(row, int32(v))
		}
	}
}

// rowSkipBatch is how many skips the row walk asks GeometricSource.Fill
// for at once: a whole buffered batch.
const rowSkipBatch = 64

// rowsPool lends Rows to the edge-by-edge view of the row draw, so one-shot
// draws allocate nothing in steady state.
var rowsPool = sync.Pool{New: func() any { return new(Rows) }}

// EmitErdosRenyi streams one G(n, p) draw edge by edge: the edges of
// Rows.ErdosRenyi's rows in order, each passed to yield until it returns
// false. See Rows.ErdosRenyi for the kernel-sharing contract.
func EmitErdosRenyi(src *rng.GeometricSource, n int, p float64, yield func(u, v int32) bool) error {
	rs := rowsPool.Get().(*Rows)
	defer rowsPool.Put(rs)
	return rs.ErdosRenyi(src, n, p, func(u int32, vs []int32) bool {
		for _, v := range vs {
			if !yield(u, v) {
				return false
			}
		}
		return true
	})
}

// EmitErdosRenyiSubset streams G(|nodes|, p) drawn over the given node IDs
// through the given skip kernel: every unordered pair of distinct entries of
// nodes is an edge independently with probability p. Node IDs must be
// distinct. See EmitErdosRenyi for the kernel-sharing contract.
func EmitErdosRenyiSubset(src *rng.GeometricSource, nodes []int32, p float64, yield func(u, v int32) bool) error {
	if math.IsNaN(p) || p < 0 || p > 1 {
		return fmt.Errorf("randgraph: edge probability %v outside [0,1]", p)
	}
	m := len(nodes)
	if p == 0 || m < 2 {
		return nil
	}
	if p == 1 {
		for u := 0; u < m; u++ {
			for v := u + 1; v < m; v++ {
				if !yield(nodes[u], nodes[v]) {
					return nil
				}
			}
		}
		return nil
	}
	src.SetP(p)
	// Geometric skipping across the flattened upper triangle, emitting the
	// subset's node IDs; same overflow-free skip cap as EmitErdosRenyi.
	maxSkip := m * (m - 1) / 2
	u, v := 0, 0 // v is advanced before use; position (0,1) is slot 0
	for {
		skip := src.Next()
		if skip > maxSkip {
			skip = maxSkip
		}
		v += skip + 1
		for v >= m {
			overflow := v - m
			u++
			v = u + 1 + overflow
			if u >= m-1 {
				break
			}
		}
		if u >= m-1 || v >= m {
			return nil
		}
		if !yield(nodes[u], nodes[v]) {
			return nil
		}
	}
}

// EmitErdosRenyiBipartite streams independent Bernoulli(p) edges between
// every pair (a[i], b[j]) through the given skip kernel. The two sides must
// be disjoint. See EmitErdosRenyi for the kernel-sharing contract.
func EmitErdosRenyiBipartite(src *rng.GeometricSource, a, b []int32, p float64, yield func(u, v int32) bool) error {
	if math.IsNaN(p) || p < 0 || p > 1 {
		return fmt.Errorf("randgraph: edge probability %v outside [0,1]", p)
	}
	if p == 0 || len(a) == 0 || len(b) == 0 {
		return nil
	}
	if p == 1 {
		for _, u := range a {
			for _, v := range b {
				if !yield(u, v) {
					return nil
				}
			}
		}
		return nil
	}
	src.SetP(p)
	// Geometric skipping across the flattened |a|×|b| grid (slot = i·|b|+j).
	// The end-of-grid test runs on the raw skip BEFORE advancing the slot,
	// so a saturated MaxInt skip (tiny p) exits cleanly instead of
	// overflowing the position.
	cols := len(b)
	slot := -1
	total := len(a) * cols
	for {
		skip := src.Next()
		if skip >= total-slot-1 {
			return nil
		}
		slot += skip + 1
		if !yield(a[slot/cols], b[slot%cols]) {
			return nil
		}
	}
}
