package keys

import (
	"fmt"
	"math"
	"math/bits"
)

// denseRingFactor selects the Intersector strategy: the flat-bitmap path
// scans pool/64 words per query while the sorted merge scans up to 2·K
// elements, so word-parallel intersection wins once pool ≤
// denseRingFactor·K (i.e. the word count drops below the merge length).
const denseRingFactor = 128

// Intersector answers ring-intersection queries over a fixed set of rings
// with three strategies:
//
//   - dense: when rings are dense relative to the pool (K ≥
//     pool/denseRingFactor) every ring is indexed as a pool-width bitmap and
//     a query intersects two rows word-parallel, stride = ⌈pool/64⌉ words;
//   - merge: otherwise a query is the sorted merge of Ring.SharedCount /
//     SharedAtLeast, up to 2·K̄ IDs;
//   - row: the counts |ring(u) ∩ ring(w)| for every sensor w, read from a
//     lazily built key→holders index. A row has two halves — the sensors
//     above u and those below — and each is counted, in one pass over the
//     holder lists of u's keys, only when the first query needs a count on
//     its side. Every later query on that side with u (or v) as the row's
//     owner is one counter read.
//
// Queries reach the Intersector in two ways. A streaming deployment hands
// it rows: BeginRow announces sensor u with the number of channel
// neighbours about to be queried, and RowHasAtLeast answers each (u, v).
// The row's length decides on arrival whether counting u's row pays: a
// half row costs about Σ_{k∈ring(u)} h_k/2 ≈ K̄·ΣK/(2P) counter increments
// for holder counts h_k, a direct query costs stride words (dense) or 2·K̄
// IDs (merge), and Reset derives the break-even query count from the
// rings (at least two). A row that reaches it is counted before its first
// query; a shorter one is answered directly, so no row starts with a merge
// or a bitmap AND only to be counted later. Sparse rings (Figure 1) count
// most rows; the dense plateau, with a break-even in the hundreds, counts
// only the longest.
//
// Per-edge callers use HasAtLeast and SharedCount, for which a sensor
// claims the row on the query that brings a run of consecutive queries
// sharing it (as first or as second argument) to the break-even count. An
// edge stream that walks u in order — CSR ForEachEdge, say — only asks
// about pairs (u, w) with w > u, so it counts upper halves alone and, when
// rings are sparse, claims a row on the second query of a sensor; shuffled
// queries almost never do. There is no setting: the choice depends only on
// the rings and the order or shape of the queries.
//
// HasAtLeast and RowHasAtLeast are split so that their hot case — u owns
// the row, its upper half is counted and v > u — is an inlinable counter
// read at the call site; every other query takes the out-of-line path.
//
// All three strategies compute the exact integer |ring(u) ∩ ring(v)| from
// the same rings, and none draws randomness, so every answer is identical
// whichever strategy served it and in whatever order queries arrive.
//
// The dense index is one flat word arena — ring i occupies
// flat[i·stride : (i+1)·stride] — rather than per-ring bitset objects: the
// query pattern of streaming discovery (sequential u, random v) is
// memory-latency-bound, and the flat layout costs one cache miss per ring
// instead of the pointer-chase's two to three. At the streaming-ladder
// design point (P = 512, stride = 8) each ring is exactly one cache line.
//
// An Intersector amortizes its arena, key index and row counters across
// Reset calls (memory O(n + ΣK + P)), making it suitable for repeated
// deployments. It is not safe for concurrent use.
type Intersector struct {
	pool   int
	rings  []Ring
	dense  bool
	stride int
	flat   []uint64

	// Row counting. The index and counters are allocated on the first row,
	// so configurations whose runs never reach breakEven never pay for them.
	breakEven int     // run length at which a row pays for itself
	indexed   bool    // keyOff/holders describe the current rings
	keyOff    []int32 // holders[keyOff[k]:keyOff[k+1]] hold key k
	holders   []int32 // sensors holding each key, grouped by key
	ringOff   []int32 // ring v's keys are index slots ringOff[v]…
	slotAt    []int32 // where each slot's sensor sits in its key's holders
	rowU      int32   // sensor owning the current row, or -1
	hiU       int32   // rowU once its upper half (w > rowU) is counted, or -1
	loU       int32   // rowU once its lower half (w < rowU) is counted, or -1
	rowCnt    []int32 // |ring(rowU) ∩ ring(w)| on counted halves; zero elsewhere
	touched   []int32 // sensors with a nonzero rowCnt
	runU      int32   // sensor the current run of queries shares
	runAlt    int32   // the run's other candidate while it has one query
	lenRun    int     // queries in the current run
}

// NewIntersector returns an Intersector over rings drawn from a pool of the
// given size.
func NewIntersector(pool int) (*Intersector, error) {
	if pool <= 0 {
		return nil, fmt.Errorf("keys: intersector pool size %d must be positive", pool)
	}
	return &Intersector{pool: pool, stride: (pool + 63) / 64, rowU: -1, hiU: -1, loU: -1, runU: -1, runAlt: -1}, nil
}

// Reset points the Intersector at a new set of rings (typically one
// deployment's assignment), drops the previous row and key index, derives
// the row break-even count, and rebuilds the bitmap arena if the dense
// strategy is selected. Ring IDs must lie in [0, pool): Reset reports an
// error otherwise, whichever strategy the rings would select, and the
// Intersector must not be queried until a later Reset succeeds.
func (x *Intersector) Reset(rings []Ring) error {
	x.rings = rings
	x.clearRow()
	x.indexed = false
	x.dense = false
	x.breakEven = math.MaxInt
	x.runU, x.runAlt, x.lenRun = -1, -1, 0
	minRing, total := 0, 0
	for i, r := range rings {
		l := r.Len()
		if i == 0 || l < minRing {
			minRing = l
		}
		total += l
		// Ring IDs are sorted, so the two ends bound the whole ring.
		if l > 0 && (r.ids[0] < 0 || int(r.ids[l-1]) >= x.pool) {
			k := r.ids[0]
			if k >= 0 {
				k = r.ids[l-1]
			}
			return fmt.Errorf("keys: intersector: ring %d key %d outside pool [0,%d)", i, k, x.pool)
		}
	}
	x.dense = len(rings) > 0 && x.pool <= denseRingFactor*minRing
	if total > 0 {
		mean := float64(total) / float64(len(rings))
		row := mean * float64(total) / float64(2*x.pool)
		query := 2 * mean
		if x.dense {
			query = float64(x.stride)
		}
		x.breakEven = max(2, int(math.Ceil(row/query)))
	}
	if !x.dense {
		return nil
	}
	need := x.stride * len(rings)
	if cap(x.flat) < need {
		x.flat = make([]uint64, need)
	} else {
		x.flat = x.flat[:need]
		clear(x.flat)
	}
	for i, r := range rings {
		row := x.flat[i*x.stride : (i+1)*x.stride]
		for _, k := range r.ids {
			row[k/64] |= 1 << (uint(k) % 64)
		}
	}
	return nil
}

// Dense reports whether the flat-bitmap strategy is active (exported for
// tests and benchmarks; callers get identical answers either way).
func (x *Intersector) Dense() bool { return x.dense }

// row returns ring i's words in the dense arena.
func (x *Intersector) row(i int32) []uint64 {
	return x.flat[int(i)*x.stride : (int(i)+1)*x.stride]
}

// rowOther returns the endpoint of (u, v) that does not own the current
// row; it is meaningful only when one of them does.
func (x *Intersector) rowOther(u, v int32) int32 { return u ^ v ^ x.rowU }

// extendRun counts (u, v) into the current run — consecutive queries that
// share one sensor — and, when the run reaches breakEven, makes that sensor
// the owner of an empty row and reports true. A run of one query can
// continue through either endpoint, so runAlt keeps the second argument
// while lenRun is 1.
func (x *Intersector) extendRun(u, v int32) bool {
	switch {
	case u == x.runU || v == x.runU:
	case x.lenRun == 1 && (u == x.runAlt || v == x.runAlt):
		x.runU = x.runAlt
	default:
		x.runU, x.runAlt, x.lenRun = u, v, 0
	}
	x.lenRun++
	if x.lenRun < x.breakEven {
		return false
	}
	x.claimRow(x.runU)
	return true
}

// claimRow makes u the owner of an empty row, building the key index and
// the row counters on first use.
func (x *Intersector) claimRow(u int32) {
	if !x.indexed {
		x.buildIndex()
	}
	x.clearRow()
	if n := len(x.rings); len(x.rowCnt) < n {
		x.rowCnt = make([]int32, n)
		x.touched = make([]int32, 0, n)
	}
	x.rowU = u
}

// clearRow zeroes the current row's counters and drops its owner.
func (x *Intersector) clearRow() {
	for _, w := range x.touched {
		x.rowCnt[w] = 0
	}
	x.touched = x.touched[:0]
	x.rowU, x.hiU, x.loU = -1, -1, -1
}

// rowCount returns |ring(rowU) ∩ ring(w)|, counting the half of the row on
// w's side first if no earlier query needed it.
func (x *Intersector) rowCount(w int32) int {
	u := x.rowU
	switch {
	case w == u:
		return x.rings[u].Len()
	case w > u && x.hiU != u:
		x.countHalf(true)
		x.hiU = u
	case w < u && x.loU != u:
		x.countHalf(false)
		x.loU = u
	}
	return int(x.rowCnt[w])
}

// countHalf counts |ring(rowU) ∩ ring(w)| for every sensor w above rowU
// (upper) or below it by walking the holder lists of rowU's keys. A holder
// list is ascending and holds rowU itself, at the place slotAt records,
// which splits it into the halves.
func (x *Intersector) countHalf(upper bool) {
	u := x.rowU
	cnt, touched := x.rowCnt, x.touched
	ids := x.rings[u].ids
	at := x.slotAt[x.ringOff[u]:][:len(ids)]
	for j, k := range ids {
		var hs []int32
		if upper {
			hs = x.holders[at[j]+1 : x.keyOff[k+1]]
		} else {
			hs = x.holders[x.keyOff[k]:at[j]]
		}
		for _, w := range hs {
			if cnt[w] == 0 {
				touched = append(touched, w)
			}
			cnt[w]++
		}
	}
	x.touched = touched
}

// buildIndex inverts the rings into the key→holders index by counting
// sort; holder lists come out in ascending sensor order. It records where
// each ring slot's sensor landed, so a row finds its own place in every
// holder list without a search. Reset has checked that every ID lies in
// the pool.
func (x *Intersector) buildIndex() {
	if len(x.keyOff) < x.pool+1 {
		x.keyOff = make([]int32, x.pool+1)
	}
	off := x.keyOff[:x.pool+1]
	clear(off)
	total := 0
	for _, r := range x.rings {
		for _, k := range r.ids {
			off[k+1]++
		}
		total += len(r.ids)
	}
	for k := 1; k <= x.pool; k++ {
		off[k] += off[k-1]
	}
	if cap(x.holders) < total {
		x.holders = make([]int32, total)
		x.slotAt = make([]int32, total)
	}
	x.holders, x.slotAt = x.holders[:total], x.slotAt[:total]
	if cap(x.ringOff) < len(x.rings) {
		x.ringOff = make([]int32, len(x.rings))
	}
	x.ringOff = x.ringOff[:len(x.rings)]
	// off[k] serves as key k's fill cursor, ending at the start of key k+1;
	// shifting by one slot restores the start offsets.
	slot := int32(0)
	for v, r := range x.rings {
		x.ringOff[v] = slot
		for _, k := range r.ids {
			x.slotAt[slot] = off[k]
			x.holders[off[k]] = int32(v)
			off[k]++
			slot++
		}
	}
	copy(off[1:], off[:x.pool])
	off[0] = 0
	x.indexed = true
}

// SharedCount returns |ring(u) ∩ ring(v)| without allocating.
func (x *Intersector) SharedCount(u, v int32) int {
	if x.rowU == u || x.rowU == v || x.extendRun(u, v) {
		return x.rowCount(x.rowOther(u, v))
	}
	if x.dense {
		a, b := x.row(u), x.row(v)
		c := 0
		for i, w := range a {
			c += bits.OnesCount64(w & b[i])
		}
		return c
	}
	return x.rings[u].SharedCount(x.rings[v])
}

// HasAtLeast reports whether rings u and v share at least q keys. It is the
// hot predicate of shared-key discovery — every emitted channel edge of a
// streaming deployment passes through here — so its common case is small
// enough to inline: when u owns the current row with its upper half counted
// and v > u, the answer is one counter read (correct for q ≤ 0 too, since
// counts are never negative). Every other query goes to hasAtLeast.
func (x *Intersector) HasAtLeast(u, v int32, q int) bool {
	if u == x.hiU && v > u {
		return int(x.rowCnt[v]) >= q
	}
	return x.hasAtLeast(u, v, q)
}

// hasAtLeast is HasAtLeast's out-of-line path. A query whose u or v owns
// the current row reads (counting its half first if needed) the row;
// otherwise it may claim a row (see Intersector) or falls back to the dense
// bitmap or the sorted merge, both of which short-circuit once q shared
// keys are found. The answer is the exact count compared with q whichever
// path served it.
func (x *Intersector) hasAtLeast(u, v int32, q int) bool {
	if q <= 0 {
		return true
	}
	if x.rowU == u || x.rowU == v || x.extendRun(u, v) {
		return x.rowCount(x.rowOther(u, v)) >= q
	}
	return x.directAtLeast(u, v, q)
}

// directAtLeast answers a query without the row: the dense bitmap or the
// sorted merge, each stopping once q shared keys are found.
func (x *Intersector) directAtLeast(u, v int32, q int) bool {
	if x.dense {
		a, b := x.row(u), x.row(v)
		c := 0
		for i, w := range a {
			c += bits.OnesCount64(w & b[i])
			if c >= q {
				return true
			}
		}
		return false
	}
	return x.rings[u].SharedAtLeast(x.rings[v], q)
}

// BeginRow announces a row: the queries (u, v) that RowHasAtLeast is about
// to answer for length channel neighbours v of u, the unit a streaming
// deployment draws (channel.RowDraw). The row's length decides on arrival
// what the run detection of HasAtLeast decides only on a run's
// breakEven-th query: a row of at least breakEven queries makes u the
// owner of the counted row before its first query, and a shorter row's
// queries go straight to the bitmap or the merge. A row whose u already
// owns the counted row keeps it.
func (x *Intersector) BeginRow(u int32, length int) {
	if length >= x.breakEven && x.rowU != u {
		x.claimRow(u)
	}
}

// RowHasAtLeast reports whether rings u and v share at least q keys, for a
// query of the row BeginRow announced. Like HasAtLeast its common case —
// u owns the row, its upper half is counted and v > u — is an inlinable
// counter read; every other query reads the row if u or v owns it, or
// else intersects directly, without the run detection of HasAtLeast.
func (x *Intersector) RowHasAtLeast(u, v int32, q int) bool {
	if u == x.hiU && v > u {
		return int(x.rowCnt[v]) >= q
	}
	return x.rowHasAtLeast(u, v, q)
}

// rowHasAtLeast is RowHasAtLeast's out-of-line path.
func (x *Intersector) rowHasAtLeast(u, v int32, q int) bool {
	if q <= 0 {
		return true
	}
	if x.rowU == u || x.rowU == v {
		return x.rowCount(x.rowOther(u, v)) >= q
	}
	return x.directAtLeast(u, v, q)
}

// AppendShared appends the sorted shared keys of rings u and v to dst and
// returns the extended slice.
func (x *Intersector) AppendShared(u, v int32, dst []ID) []ID {
	if x.dense {
		a, b := x.row(u), x.row(v)
		for i, w := range a {
			w &= b[i]
			base := i * 64
			for w != 0 {
				dst = append(dst, ID(base+bits.TrailingZeros64(w)))
				w &= w - 1
			}
		}
		return dst
	}
	return x.rings[u].AppendShared(x.rings[v], dst)
}
