// Package randgraph samples the random graph families of the paper's model:
//
//   - Erdős–Rényi graphs G(n, p) — the on/off channel model (Section II);
//   - uniform q-intersection graphs G_q(n, K, P) — the q-composite key
//     predistribution scheme (each node draws a uniform K-subset of a P-key
//     pool; an edge requires ≥ q shared keys);
//   - binomial q-intersection graphs H_q(n, x, P) — the auxiliary family of
//     the paper's coupling proofs (each key is held independently with
//     probability x);
//   - the composite WSN topology G_{n,q}(n,K,P,p) = G_q(n,K,P) ∩ G(n,p)
//     (eq. (1)), sampled in one fused pass;
//   - random geometric graphs (the disk model discussed in Section IX).
//
// Samplers take explicit *rng.Rand generators and are deterministic given
// the generator state. The q-intersection samplers use an inverted
// key→holders index so that only node pairs actually sharing a key are
// touched: expected work is Θ(P·(nK/P)²) = Θ(n²K²/P) instead of the naive
// Θ(n²K) pairwise comparison.
package randgraph

import (
	"fmt"
	"slices"

	"github.com/secure-wsn/qcomposite/internal/graph"
	"github.com/secure-wsn/qcomposite/internal/rng"
)

// maxCounterNodes bounds the node count for which the dense triangular
// pair-counter (n(n−1)/2 bytes) is used; beyond it the per-row counter keeps
// memory O(n).
const maxCounterNodes = 8192

// ErdosRenyi samples G(n, p) as a one-shot graph: each of the C(n,2)
// possible edges is present independently with probability p. It collects
// EmitErdosRenyi on a private kernel over r, so the cost is O(n + E[m])
// rather than O(n²).
func ErdosRenyi(r *rng.Rand, n int, p float64) (*graph.Undirected, error) {
	var src rng.GeometricSource
	src.Reset(r)
	return graph.NewBuilder().Collect(n, func(yield func(u, v int32) bool) error {
		return EmitErdosRenyi(&src, n, p, yield)
	})
}

// QSampler samples uniform q-intersection graphs G_q(n, K, P) and their
// composites with on/off channels, reusing internal buffers across draws so
// Monte Carlo sweeps do not churn the allocator. Not safe for concurrent
// use; give each worker its own sampler.
type QSampler struct {
	n, ring, pool, q int

	subset  *rng.SubsetSampler
	rings   []int32 // flattened n×ring key assignments
	keyCnt  []int32 // scratch: holders per key
	keyOff  []int32 // scratch: prefix offsets into holders
	holders []int32 // inverted index: key → holder nodes

	counts   []uint8 // dense triangular pair counter (small n)
	rowStart []int64 // triangular row offsets
	touched  []int64 // dirtied counter slots, for sparse clearing

	// Per-row counting for large n: O(n) memory instead of the dense
	// triangle, no map churn. rowCnt[w] counts keys shared between the
	// current row's node and w; rowTouched lists the dirtied entries.
	rowCnt     []uint8
	rowTouched []int32

	edges []graph.Edge // scratch edge list
}

// NewQSampler validates the model parameters 1 ≤ q ≤ K ≤ P and returns a
// reusable sampler for G_q(n, K, P).
func NewQSampler(n, ring, pool, q int) (*QSampler, error) {
	switch {
	case n < 0:
		return nil, fmt.Errorf("randgraph: negative node count %d", n)
	case q < 1:
		return nil, fmt.Errorf("randgraph: key overlap requirement q=%d must be ≥ 1", q)
	case ring < q:
		return nil, fmt.Errorf("randgraph: ring size %d below overlap requirement q=%d", ring, q)
	case pool < ring:
		return nil, fmt.Errorf("randgraph: pool size %d below ring size %d", pool, ring)
	}
	subset, err := rng.NewSubsetSampler(pool)
	if err != nil {
		return nil, fmt.Errorf("randgraph: q-sampler: %w", err)
	}
	s := &QSampler{
		n:       n,
		ring:    ring,
		pool:    pool,
		q:       q,
		subset:  subset,
		rings:   make([]int32, 0, n*ring),
		keyCnt:  make([]int32, pool),
		keyOff:  make([]int32, pool+1),
		holders: make([]int32, n*ring),
	}
	if n <= maxCounterNodes {
		s.rowStart = make([]int64, n)
		var acc int64
		for i := 0; i < n; i++ {
			s.rowStart[i] = acc - int64(i) - 1 // idx(i,j) = rowStart[i] + j
			acc += int64(n - 1 - i)
		}
		s.counts = make([]uint8, acc)
	} else {
		s.rowCnt = make([]uint8, n)
	}
	return s, nil
}

// Sample draws a fresh G_q(n, K, P).
func (s *QSampler) Sample(r *rng.Rand) (*graph.Undirected, error) {
	return s.sample(r, 1.01) // pOn > 1 keeps every edge
}

// SampleComposite draws a fresh G_{n,q}(n, K, P, p) = G_q(n,K,P) ∩ G(n,p)
// in one pass: each q-composite edge survives independently with
// probability pOn, which is distributionally identical to intersecting with
// an independent Erdős–Rényi graph (the channels C_ij are independent of
// the key events Γ_ij — eq. (2)).
func (s *QSampler) SampleComposite(r *rng.Rand, pOn float64) (*graph.Undirected, error) {
	if pOn < 0 || pOn > 1 {
		return nil, fmt.Errorf("randgraph: channel-on probability %v outside [0,1]", pOn)
	}
	return s.sample(r, pOn)
}

// KeyRing returns the key ring of node v from the most recent draw, as a
// slice view into internal storage (valid until the next Sample call).
func (s *QSampler) KeyRing(v int) []int32 {
	return s.rings[v*s.ring : (v+1)*s.ring]
}

func (s *QSampler) sample(r *rng.Rand, pOn float64) (*graph.Undirected, error) {
	// 1. Assign key rings: n independent uniform K-subsets of the pool.
	s.rings = s.rings[:0]
	var err error
	for v := 0; v < s.n; v++ {
		s.rings, err = s.subset.AppendSample(r, s.ring, s.rings)
		if err != nil {
			return nil, fmt.Errorf("randgraph: key assignment: %w", err)
		}
	}
	// 2. Invert: holders[keyOff[k]:keyOff[k+1]] lists nodes holding key k.
	for k := range s.keyCnt {
		s.keyCnt[k] = 0
	}
	for _, k := range s.rings {
		s.keyCnt[k]++
	}
	s.keyOff[0] = 0
	for k := 0; k < s.pool; k++ {
		s.keyOff[k+1] = s.keyOff[k] + s.keyCnt[k]
		s.keyCnt[k] = 0 // reuse as fill cursor
	}
	for v := 0; v < s.n; v++ {
		for _, k := range s.rings[v*s.ring : (v+1)*s.ring] {
			s.holders[s.keyOff[k]+s.keyCnt[k]] = int32(v)
			s.keyCnt[k]++
		}
	}
	// 3+4. Count shared keys per node pair via the inverted index and
	// extract edges with count ≥ q, thinning by the channel model. Both
	// counting strategies emit qualifying pairs in ascending (u, v) order, so
	// the channel coins are spent identically whichever runs.
	q8 := uint8(s.q)
	if s.q > 255 {
		q8 = 255
	}
	s.edges = s.edges[:0]
	keep := func(u, v int32) {
		if pOn >= 1 || r.Bernoulli(pOn) {
			s.edges = append(s.edges, graph.Edge{U: u, V: v})
		}
	}
	if s.counts != nil {
		s.countDense()
		// Touched slots are appended out of order; sort so coin spending is
		// position-deterministic and matches the per-row path. Without
		// thinning no coins are spent and order is irrelevant (FromEdges
		// sorts adjacency), so skip the O(E log E) pass.
		if pOn < 1 {
			slices.Sort(s.touched)
		}
		for _, idx := range s.touched {
			if s.counts[idx] >= q8 {
				u, v := s.unpackDense(idx)
				keep(u, v)
			}
			s.counts[idx] = 0
		}
		s.touched = s.touched[:0]
	} else {
		s.countByRow(q8, pOn < 1, keep)
	}
	g, err := graph.NewFromEdges(s.n, s.edges)
	if err != nil {
		return nil, fmt.Errorf("randgraph: q-intersection graph: %w", err)
	}
	return g, nil
}

// countDense accumulates pair counts in the triangular array, recording
// touched slots for O(pairs) cleanup.
func (s *QSampler) countDense() {
	for k := 0; k < s.pool; k++ {
		hs := s.holders[s.keyOff[k]:s.keyOff[k+1]]
		for i := 0; i < len(hs); i++ {
			hi := hs[i]
			base := s.rowStart[hi]
			for j := i + 1; j < len(hs); j++ {
				idx := base + int64(hs[j])
				if s.counts[idx] == 0 {
					s.touched = append(s.touched, idx)
				}
				if s.counts[idx] < 255 {
					s.counts[idx]++
				}
			}
		}
	}
}

// countByRow is the large-n strategy: it walks nodes in ascending order and,
// for row u, counts the co-holders w > u of each of u's keys into an
// n-length counter cleared per row via a touched list. The per-key cursor
// (reusing keyCnt) advances past u in O(1) amortized because rows consume
// each holder list in ascending order. Total pair work matches countDense
// with O(n) memory and no per-draw map or qualifying-slice churn; when
// thinning (sortRows), each row's touched list is sorted so qualifying
// pairs spend channel coins in ascending (u, v) order and composite draws
// stay deterministic.
func (s *QSampler) countByRow(q8 uint8, sortRows bool, keep func(u, v int32)) {
	for k := 0; k < s.pool; k++ {
		s.keyCnt[k] = 0 // step 2's fill pass left the full holder counts here
	}
	rowCnt := s.rowCnt[:s.n]
	for u := 0; u < s.n; u++ {
		s.rowTouched = s.rowTouched[:0]
		for _, k := range s.rings[u*s.ring : (u+1)*s.ring] {
			// keyCnt[k] holders of k precede u and are already consumed; the
			// next one is u itself.
			cur := s.keyOff[k] + s.keyCnt[k]
			s.keyCnt[k]++
			for _, w := range s.holders[cur+1 : s.keyOff[k+1]] {
				if rowCnt[w] == 0 {
					s.rowTouched = append(s.rowTouched, w)
				}
				if rowCnt[w] < 255 {
					rowCnt[w]++
				}
			}
		}
		if sortRows {
			slices.Sort(s.rowTouched)
		}
		for _, w := range s.rowTouched {
			if rowCnt[w] >= q8 {
				keep(int32(u), w)
			}
			rowCnt[w] = 0
		}
	}
}

// unpackDense recovers the (u, v) pair from a triangular index. The
// holders lists are filled in increasing node order, so u < v always holds
// at pack time; unpack scans the row table (binary search on rowStart).
func (s *QSampler) unpackDense(idx int64) (int32, int32) {
	// rowStart is increasing in i for the effective start rowStart[i]+i+1;
	// binary search for the greatest u with rowStart[u] + u + 1 ≤ idx.
	lo, hi := 0, s.n-1
	for lo < hi {
		mid := (lo + hi + 1) / 2
		if s.rowStart[mid]+int64(mid)+1 <= idx {
			lo = mid
		} else {
			hi = mid - 1
		}
	}
	return int32(lo), int32(idx - s.rowStart[lo])
}

// UniformQIntersection is the convenience one-shot form of QSampler.Sample.
func UniformQIntersection(r *rng.Rand, n, ring, pool, q int) (*graph.Undirected, error) {
	s, err := NewQSampler(n, ring, pool, q)
	if err != nil {
		return nil, err
	}
	return s.Sample(r)
}

// Composite is the convenience one-shot form of QSampler.SampleComposite:
// the paper's WSN topology G_{n,q}(n, K, P, p).
func Composite(r *rng.Rand, n, ring, pool, q int, pOn float64) (*graph.Undirected, error) {
	s, err := NewQSampler(n, ring, pool, q)
	if err != nil {
		return nil, err
	}
	return s.SampleComposite(r, pOn)
}

// BinomialQIntersection samples H_q(n, x, P): each of the P keys is added to
// each node's ring independently with probability x; nodes sharing ≥ q keys
// are adjacent. This is the auxiliary graph of the paper's Lemma 5/6
// coupling chain.
func BinomialQIntersection(r *rng.Rand, n int, x float64, pool, q int) (*graph.Undirected, error) {
	g, _, err := binomialQIntersection(r, n, x, pool, q)
	return g, err
}

// binomialQIntersection also returns the sampled ring sizes for use by the
// coupled sampler.
func binomialQIntersection(r *rng.Rand, n int, x float64, pool, q int) (*graph.Undirected, []int, error) {
	switch {
	case n < 0:
		return nil, nil, fmt.Errorf("randgraph: negative node count %d", n)
	case q < 1:
		return nil, nil, fmt.Errorf("randgraph: key overlap requirement q=%d must be ≥ 1", q)
	case pool < 0:
		return nil, nil, fmt.Errorf("randgraph: negative pool size %d", pool)
	case x < 0 || x > 1:
		return nil, nil, fmt.Errorf("randgraph: inclusion probability %v outside [0,1]", x)
	}
	// Draw ring sizes Binomial(P, x), then uniform subsets of that size —
	// distributionally identical to P independent coin flips per node, but
	// it reuses the fast subset sampler.
	sizes := make([]int, n)
	total := 0
	maxSize := 0
	for v := range sizes {
		sizes[v] = r.Binomial(pool, x)
		total += sizes[v]
		if sizes[v] > maxSize {
			maxSize = sizes[v]
		}
	}
	if pool == 0 || maxSize == 0 {
		g, err := graph.NewFromEdges(n, nil)
		return g, sizes, err
	}
	subset, err := rng.NewSubsetSampler(pool)
	if err != nil {
		return nil, nil, fmt.Errorf("randgraph: binomial q-intersection: %w", err)
	}
	rings := make([][]int32, n)
	buf := make([]int32, 0, total)
	for v := 0; v < n; v++ {
		start := len(buf)
		buf, err = subset.AppendSample(r, sizes[v], buf)
		if err != nil {
			return nil, nil, fmt.Errorf("randgraph: binomial q-intersection: %w", err)
		}
		rings[v] = buf[start:]
	}
	g, err := qIntersectFromRings(n, pool, q, rings)
	if err != nil {
		return nil, nil, err
	}
	return g, sizes, nil
}

// qIntersectFromRings builds the ≥q-shared-keys graph from explicit rings
// using the inverted-index counting strategy with a sparse map counter.
func qIntersectFromRings(n, pool, q int, rings [][]int32) (*graph.Undirected, error) {
	holders := make([][]int32, pool)
	for v, ring := range rings {
		for _, k := range ring {
			holders[k] = append(holders[k], int32(v))
		}
	}
	counts := make(map[int64]uint8)
	for _, hs := range holders {
		for i := 0; i < len(hs); i++ {
			ui := int64(hs[i]) * int64(n)
			for j := i + 1; j < len(hs); j++ {
				key := ui + int64(hs[j])
				if c := counts[key]; c < 255 {
					counts[key] = c + 1
				}
			}
		}
	}
	q8 := uint8(q)
	if q > 255 {
		q8 = 255
	}
	var edges []graph.Edge
	for key, cnt := range counts {
		if cnt >= q8 {
			edges = append(edges, graph.Edge{
				U: int32(key / int64(n)),
				V: int32(key % int64(n)),
			})
		}
	}
	g, err := graph.NewFromEdges(n, edges)
	if err != nil {
		return nil, fmt.Errorf("randgraph: q-intersection from rings: %w", err)
	}
	return g, nil
}
