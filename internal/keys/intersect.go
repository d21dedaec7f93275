package keys

import (
	"fmt"
	"math"
	"math/bits"
	"slices"
)

// denseRingFactor selects the Intersector strategy: the flat-bitmap path
// scans pool/64 words per query while a probe tests the K keys of one ring
// against the marks of the other, about 2·K operations, so word-parallel
// intersection wins once pool ≤ denseRingFactor·K (i.e. the word count
// drops below the probe's).
const denseRingFactor = 128

// Intersector answers ring-intersection queries over a fixed set of rings
// with three strategies:
//
//   - dense: when rings are dense relative to the pool (K ≥
//     pool/denseRingFactor) every ring is indexed as a pool-width bitmap and
//     a query intersects two rows word-parallel, stride = ⌈pool/64⌉ words;
//   - probe: otherwise ring(u) is marked in a pool-sized bitmap (RingMarks),
//     once for as long as the queries keep to u, and a query tests the K̄
//     keys of ring(v) against the marks;
//   - row: the counts |ring(u) ∩ ring(w)| for every sensor w, read from a
//     lazily built key→holders index. A row has two halves — the sensors
//     above u and those below — and each is counted, in one pass over the
//     holder lists of u's keys, only when the first query needs a count on
//     its side. Every later query on that side with u (or v) as the row's
//     owner is one counter read.
//
// No strategy depends on the order of a ring's keys: rings are kept in the
// order they were drawn.
//
// Queries reach the Intersector in two ways. A streaming deployment hands
// it whole rows: AppendAtLeast takes sensor u with its channel neighbours
// and returns those it shares at least q keys with. The row's length
// decides on arrival whether counting u's row pays: a half row costs about
// Σ_{k∈ring(u)} h_k/2 ≈ K̄·ΣK/(2P) counter increments for holder counts
// h_k, a direct query costs stride words (dense) or about 2·K̄ operations
// (probe), and Reset derives the break-even query count from the rings (at
// least two). A row that reaches it is counted before it is answered; a
// shorter one is answered directly, so no row starts with a probe or a
// bitmap AND only to be counted later. Sparse rings (Figure 1) count most
// rows; the dense plateau, with a break-even in the hundreds, counts only
// the longest.
//
// Per-edge callers use HasAtLeast, for which a sensor claims the row on the
// query that brings a run of consecutive queries sharing it (as first or
// as second argument) to the break-even count. An edge stream that walks u
// in order — CSR ForEachEdge, say — only asks about pairs (u, w) with
// w > u, so it counts upper halves alone and, when rings are sparse,
// claims a row on the second query of a sensor; shuffled queries almost
// never do. There is no setting: the choice depends only on the rings and
// the order or shape of the queries.
//
// HasAtLeast is split so that its hot case — u owns the row, its upper
// half is counted and v > u — is an inlinable counter read at the call
// site; every other query takes the out-of-line path.
//
// All three strategies compute the exact integer |ring(u) ∩ ring(v)| from
// the same rings, and none draws randomness, so every answer is identical
// whichever strategy served it and in whatever order queries arrive.
//
// Nothing is built before a query pays for it. Reset only reads the ring
// lengths, and checks the IDs against the pool unless ResetFrom shows the
// rings to be an arena's own draw; it is O(n) then. The key index is built
// by the first counted row. The dense index is built by ski rental: direct
// queries on dense rings are probed, like sparse ones, until the probes
// have cost about as much as building the index (n·stride words cleared
// and ΣK bits set), and are answered from the index from then on. Rings
// whose rows are nearly all counted — a sweep's small-n, dense points —
// thus never build it, and the plateau's short rows build it after a few
// dozen rows. A Deployer resets one Intersector for trial after trial of
// one configuration, so when the direct queries on the previous rings
// reached the price, the index is built at the first direct query instead.
//
// The dense index is one flat word arena — ring i occupies
// flat[i·stride : (i+1)·stride] — rather than per-ring bitset objects: the
// query pattern of streaming discovery (sequential u, random v) is
// memory-latency-bound, and the flat layout costs one cache miss per ring
// instead of the pointer-chase's two to three. At the streaming-ladder
// design point (P = 512, stride = 8) each ring is exactly one cache line.
//
// An Intersector amortizes its arena, marks, key index and row counters
// across Reset calls (memory O(n + ΣK + P)), making it suitable for
// repeated deployments. It is not safe for concurrent use.
type Intersector struct {
	pool   int
	rings  []Ring
	dense  bool
	stride int

	// The dense index, built once probes have cost buildCost (see
	// Intersector): flat holds the current rings only while built is true.
	flat      []uint64
	built     bool
	buyNow    bool // the previous rings' direct queries cost their buildCost
	spent     int  // direct queries so far, in probe operations, until it reaches buildCost
	buildCost int  // operations to build the index: n·stride + ΣK
	probeCost int  // operations per probed query: about 2·K̄

	// Probing: marks hold the keys of ring(markedU), or none when markedU
	// is -1.
	marks   RingMarks
	markedU int32

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
	rowCnt    []int32 // |ring(rowU) ∩ ring(w)| on counted halves and at rowU; zero elsewhere
	touched   []int32 // touched[:nTouched] are the sensors with a nonzero rowCnt; room for n+1
	nTouched  int
	runU      int32 // sensor the current run of queries shares
	runAlt    int32 // the run's other candidate while it has one query
	lenRun    int   // queries in the current run
}

// NewIntersector returns an Intersector over rings drawn from a pool of the
// given size.
func NewIntersector(pool int) (*Intersector, error) {
	if pool <= 0 {
		return nil, fmt.Errorf("keys: intersector pool size %d must be positive", pool)
	}
	return &Intersector{pool: pool, stride: (pool + 63) / 64, markedU: -1, rowU: -1, hiU: -1, loU: -1, runU: -1, runAlt: -1}, nil
}

// Reset points the Intersector at a new set of rings (typically one
// deployment's assignment), drops the previous marks, row, key index and
// dense index, selects the strategy and derives the row break-even count
// and the dense index's price. It builds nothing: each index is built by
// the first query that pays for it (see Intersector). Ring IDs must lie in
// [0, pool): Reset checks every one and reports an error otherwise,
// whichever strategy the rings would select, and the Intersector must not
// be queried until a later Reset succeeds.
func (x *Intersector) Reset(rings []Ring) error { return x.reset(rings, false) }

// ResetFrom is Reset for rings that may be arena a's last draw. When they
// are exactly that draw — each ring views a's own ID storage at the offset
// where the rings before it end, the rings cover all of it, and the draw's
// pool is no larger than the Intersector's — every ID was drawn from the
// pool by construction, and ResetFrom skips Reset's per-ID check, which
// leaves it O(n). Any other rings, such as a wrapper scheme's replacements
// written over the assignment's ring headers, take Reset's check.
func (x *Intersector) ResetFrom(a *RingArena, rings []Ring) error {
	return x.reset(rings, a.drew(rings, x.pool))
}

// reset is Reset, checking each ID against the pool unless inPool vouches
// for them.
func (x *Intersector) reset(rings []Ring, inPool bool) error {
	x.buyNow = x.dense && x.spent >= x.buildCost
	x.rings = rings
	x.marks.Reset(x.pool)
	x.markedU = -1
	x.clearRow()
	x.indexed = false
	x.dense, x.built = false, false
	x.breakEven = math.MaxInt
	x.runU, x.runAlt, x.lenRun = -1, -1, 0
	minRing, total := 0, 0
	for i, r := range rings {
		l := r.Len()
		if i == 0 || l < minRing {
			minRing = l
		}
		total += l
	}
	if !inPool {
		for i, r := range rings {
			for _, k := range r.ids {
				if k < 0 || int(k) >= x.pool {
					return fmt.Errorf("keys: intersector: ring %d key %d outside pool [0,%d)", i, k, x.pool)
				}
			}
		}
	}
	x.dense = len(rings) > 0 && x.pool <= denseRingFactor*minRing
	if total == 0 {
		return nil
	}
	mean := float64(total) / float64(len(rings))
	row := mean * float64(total) / float64(2*x.pool)
	query := 2 * mean
	if x.dense {
		query = float64(x.stride)
	}
	x.breakEven = max(2, int(math.Ceil(row/query)))
	x.spent = 0
	x.buildCost = len(rings)*x.stride + total
	x.probeCost = max(1, int(math.Ceil(2*mean)))
	return nil
}

// Dense reports whether the flat-bitmap strategy is selected, whether or
// not its index has been built yet (exported for tests and benchmarks;
// callers get identical answers either way).
func (x *Intersector) Dense() bool { return x.dense }

// useFlat reports whether the dense index answers the next batch of direct
// queries. On dense rings it charges the batch's probes to the index until
// they have cost as much as building it, then builds it, or builds it at
// once when the previous rings' direct queries paid for theirs.
func (x *Intersector) useFlat(queries int) bool {
	if !x.dense {
		return false
	}
	if x.spent < x.buildCost {
		x.spent += queries * x.probeCost
	}
	if !x.built && (x.buyNow || x.spent >= x.buildCost) {
		x.buildFlat()
	}
	return x.built
}

// buildFlat builds the dense index of the current rings.
func (x *Intersector) buildFlat() {
	need := x.stride * len(x.rings)
	if cap(x.flat) < need {
		x.flat = make([]uint64, need)
	} else {
		x.flat = x.flat[:need]
		clear(x.flat)
	}
	for i, r := range x.rings {
		row := x.flat[i*x.stride : (i+1)*x.stride]
		for _, k := range r.ids {
			row[k/64] |= 1 << (uint(k) % 64)
		}
	}
	x.built = true
}

// row returns ring i's words in the dense index, which must be built.
func (x *Intersector) row(i int32) []uint64 {
	return x.flat[int(i)*x.stride : (int(i)+1)*x.stride]
}

// mark makes the marks hold ring(u), unless they already do.
func (x *Intersector) mark(u int32) {
	if x.markedU != u {
		x.marks.Mark(x.rings[u])
		x.markedU = u
	}
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

// claimRow makes u the owner of a row with no half counted, building the
// key index and the row counters on first use. The counter at u itself
// holds |ring(u)|, so a query of u against itself reads it like any other.
// touched has room for n+1 sensors: countHalf writes each holder there
// before it knows whether the holder is new.
func (x *Intersector) claimRow(u int32) {
	if !x.indexed {
		x.buildIndex()
	}
	x.clearRow()
	if n := len(x.rings); len(x.touched) < n+1 {
		x.rowCnt = make([]int32, n)
		x.touched = make([]int32, n+1)
	}
	x.rowU = u
	x.rowCnt[u] = int32(x.rings[u].Len())
	x.touched[0], x.nTouched = u, 1
}

// clearRow zeroes the current row's counters and drops its owner.
func (x *Intersector) clearRow() {
	for _, w := range x.touched[:x.nTouched] {
		x.rowCnt[w] = 0
	}
	x.nTouched = 0
	x.rowU, x.hiU, x.loU = -1, -1, -1
}

// rowCount returns |ring(rowU) ∩ ring(w)|, counting the half of the row on
// w's side first if no earlier query needed it.
func (x *Intersector) rowCount(w int32) int {
	x.countHalves(w, w)
	return int(x.rowCnt[w])
}

// countHalves counts each half of rowU's row that a sensor in [lo, hi]
// falls in, unless an earlier query counted it.
func (x *Intersector) countHalves(lo, hi int32) {
	u := x.rowU
	if hi > u && x.hiU != u {
		x.countHalf(true)
		x.hiU = u
	}
	if lo < u && x.loU != u {
		x.countHalf(false)
		x.loU = u
	}
}

// countHalf counts |ring(rowU) ∩ ring(w)| for every sensor w above rowU
// (upper) or below it by walking the holder lists of rowU's keys. A holder
// list is ascending and holds rowU itself, at the place slotAt records,
// which splits it into the halves. The walk has no branch on the counts:
// every holder is written at the end of the touched list, which grows past
// it only when its counter was zero (a holder is touched at most once, and
// the list has room for one write past the n sensors).
func (x *Intersector) countHalf(upper bool) {
	u := x.rowU
	cnt, touched, nt := x.rowCnt, x.touched, x.nTouched
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
			c := cnt[w]
			touched[nt] = w
			nt += int(uint32(c-1) >> 31) // 1 iff c == 0; counts are below 2³¹
			cnt[w] = c + 1
		}
	}
	x.nTouched = nt
}

// buildIndex inverts the rings into the key→holders index by counting
// sort; holder lists come out in ascending sensor order. It records where
// each ring slot's sensor landed, so a row finds its own place in every
// holder list without a search. The caller's Reset has made sure that every
// ID lies in the pool.
//
// The placement runs in two loops: one advances the per-key cursors and
// records each slot's place, the other scatters the sensors to those
// places. Fused, each scattered store sat between cursor loads and
// stores, and the loop ran about a third slower.
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
	// The running sum stays in a register: summing in place would make
	// every step wait for the store of the step before.
	sum := int32(0)
	for k, c := range off {
		sum += c
		off[k] = sum
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
	slot := 0
	for v, r := range x.rings {
		x.ringOff[v] = int32(slot)
		at := x.slotAt[slot : slot+len(r.ids)]
		for j, k := range r.ids {
			at[j] = off[k]
			off[k]++
		}
		slot += len(r.ids)
	}
	slot = 0
	for v, r := range x.rings {
		for _, o := range x.slotAt[slot : slot+len(r.ids)] {
			x.holders[o] = int32(v)
		}
		slot += len(r.ids)
	}
	copy(off[1:], off[:x.pool])
	off[0] = 0
	x.indexed = true
}

// HasAtLeast reports whether rings u and v share at least q keys. Its
// common case is small enough to inline: when u owns the current row with
// its upper half counted and v > u, the answer is one counter read (correct
// for q ≤ 0 too, since counts are never negative). Every other query goes
// to hasAtLeast.
func (x *Intersector) HasAtLeast(u, v int32, q int) bool {
	if u == x.hiU && v > u {
		return int(x.rowCnt[v]) >= q
	}
	return x.hasAtLeast(u, v, q)
}

// hasAtLeast is HasAtLeast's out-of-line path. A query whose u or v owns
// the current row reads (counting its half first if needed) the row;
// otherwise it may claim a row (see Intersector) or falls back to the dense
// bitmap, which stops once q shared keys are found, or to a probe. The
// answer is the exact count compared with q whichever path served it.
func (x *Intersector) hasAtLeast(u, v int32, q int) bool {
	if q <= 0 {
		return true
	}
	if x.rowU == u || x.rowU == v || x.extendRun(u, v) {
		return x.rowCount(x.rowOther(u, v)) >= q
	}
	if x.useFlat(1) {
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
	x.mark(u)
	return x.marks.Count(x.rings[v]) >= q
}

// AppendAtLeast answers one row of queries: it appends to dst, in the order
// of vs, every v in vs whose ring shares at least q keys with ring(u), and
// returns the extended slice. dst must not overlap vs. A row of at least
// breakEven queries makes u the owner of the counted row before it is
// answered (a row whose u already owns it keeps it); a shorter row is
// answered directly, without the run detection of HasAtLeast. Each
// strategy decides every v of the row the same way and then compacts
// without a branch on the answer: a counted row reads its counters (after
// counting the halves its lowest and highest v fall in), a dense row ANDs
// and counts the whole bitmap row of every v, and a short row on sparse
// rings, or on dense rings whose index is not built yet, probes every
// ring(v) against the marks of ring(u).
func (x *Intersector) AppendAtLeast(u int32, vs []int32, q int, dst []int32) []int32 {
	if q <= 0 {
		return append(dst, vs...)
	}
	if len(vs) >= x.breakEven && x.rowU != u {
		x.claimRow(u)
	}
	start := len(dst)
	dst = slices.Grow(dst, len(vs))
	out := dst[start : start+len(vs)]
	n := 0
	switch {
	case x.rowU == u:
		if len(vs) > 0 && (x.hiU != u || x.loU != u) {
			lo, hi := vs[0], vs[0]
			for _, v := range vs[1:] {
				lo, hi = min(lo, v), max(hi, v)
			}
			x.countHalves(lo, hi)
		}
		cnt := x.rowCnt
		for _, v := range vs {
			out[n] = v
			n += atLeast(int(cnt[v]), q)
		}
	case x.useFlat(len(vs)):
		a := x.row(u)
		for _, v := range vs {
			b := x.row(v)[:len(a)]
			c := 0
			for i, w := range a {
				c += bits.OnesCount64(w & b[i])
			}
			out[n] = v
			n += atLeast(c, q)
		}
	default:
		x.mark(u)
		for _, v := range vs {
			out[n] = v
			n += atLeast(x.marks.Count(x.rings[v]), q)
		}
	}
	return dst[:start+n]
}

// atLeast returns 1 if c ≥ q and 0 otherwise, without a branch, for counts
// c ≥ 0 and q ≥ 1.
func atLeast(c, q int) int { return int(uint(q-1-c) >> (bits.UintSize - 1)) }
