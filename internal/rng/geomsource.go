package rng

import "math"

// geometricBatch is the uniform-buffer size of a GeometricSource. A refill
// stores one batch of 53-bit uniforms in a tight, branch-free loop; 64
// entries amortize the refill while keeping a partially drained batch cheap
// to abandon.
const geometricBatch = 64

// maxIntFloat is the smallest float64 no int can reach: math.MaxInt rounds
// up to 2⁶³ under constant conversion, so any quotient below it converts to
// int without overflow and any quotient at or above it must saturate.
const maxIntFloat = float64(math.MaxInt)

// logTableBits is the number of leading mantissa bits that index
// logTable: approxLog reduces the mantissa m ∈ [1, 2) to a table node
// c = 1 + j/256 and a remainder r = m/c − 1 ∈ [0, 2⁻⁸).
const logTableBits = 8

// logTable[j] holds ln(c_j) and 2⁻⁵²/c_j for c_j = 1 + j/256; the scale
// turns the 44 low mantissa bits (an exact integer) straight into r.
var logTable = func() (t [1 << logTableBits]struct{ lnc, scale float64 }) {
	for j := range t {
		c := 1 + float64(j)/(1<<logTableBits)
		t[j].lnc = math.Log(c)
		t[j].scale = 0x1p-52 / c
	}
	return t
}()

// approxLog returns ln x for a normal x in (0, 1] as e·ln 2 + ln c_j +
// log1p(r), with log1p(r) truncated to four terms. Its absolute error is
// below 2·10⁻¹³ for x ≥ 2⁻⁵³; see skipGuard for the budget.
func approxLog(x float64) float64 {
	b := math.Float64bits(x)
	e := float64(int(b>>52) - 1023)
	m := b & (1<<52 - 1)
	c := &logTable[m>>(52-logTableBits)]
	r := float64(m&(1<<(52-logTableBits)-1)) * c.scale
	return e*math.Ln2 + (c.lnc + r*(1+r*(-1.0/2+r*(1.0/3-r/4))))
}

// skipGuard sets how close to an integer an approximate skip may fall
// before the guarded log path recomputes it exactly. That path compares
// t = approxLog(x)·(1/lnq) with e = fl(fl(log x)/lnq), the exact path's
// quotient, for x = 1−u ∈ [2⁻⁵³, 1] (so |ln x| ≤ 37) and y = ln(x)/lnq:
//
//   - approxLog: the truncated series errs by at most r⁵/5 < 2⁻⁴⁰/5 ≈
//     1.9·10⁻¹³ for r < 2⁻⁸; the table entries, the rounding of ln 2 times
//     |e| ≤ 53 and the two additions on values up to 37 add under 2·10⁻¹⁴,
//     so |approxLog(x) − ln x| < 2.1·10⁻¹³;
//   - t: 1/lnq and the product each round once, |t − approxLog(x)/lnq| ≤
//     37·2⁻⁵²/|lnq| < 8.3·10⁻¹⁵/|lnq|;
//   - e: math.Log errs by under one ulp of 37 (7.2·10⁻¹⁵) and the divide
//     rounds once, |e − y| < (7.2·10⁻¹⁵ + 4.2·10⁻¹⁵)/|lnq|.
//
// Together |t − e| < 2.4·10⁻¹³/|lnq|. A guard of skipGuard·(1 + 1/|lnq|)
// exceeds that bound more than 4000-fold, so whenever t lies farther than
// the guard from both neighbouring integers, t and e fall strictly between
// the same two integers and ⌊t⌋ = ⌊e⌋. When p is so small that the guard
// reaches ½, every draw takes the exact path.
//
// The skip table rests on the same bound. Bucket b holds the uniforms
// m ∈ [b·2⁴³, (b+1)·2⁴³), so its x = 1 − m/2⁵³ lie in [E_{b+1}, E_b], where
// E_b = 1 − b/1024 for b < 1024 and E_1024 = 2⁻⁵³ is the smallest x. y
// rises as x falls, so the bucket's y lie in [ln(E_b)/lnq, ln(E_{b+1})/lnq].
// buildTable takes these ends as T_b = fl(lnBucketEdge[b]·(1/lnq)): the
// logarithm errs by under an ulp of 37 and the two roundings add 37·2⁻⁵²/
// |lnq|, so |T_b − ln(E_b)/lnq| < 2·10⁻¹⁴/|lnq|. With |e − y| above, every
// exact quotient e of the bucket lies within 3.2·10⁻¹⁴/|lnq| of
// [T_b, T_{b+1}], and e ≥ 0 because ln x ≤ 0 and lnq < 0. The guard exceeds
// that margin more than 30000-fold, which also absorbs the rounding of the
// guard sums; so when max(T_b − guard, 0) and T_{b+1} + guard have the same
// floor k, every e of the bucket lies in [k, k+1) and its skip is k.
const skipGuard = 1e-9

// fastSkipLimit bounds the quotients the guarded log path handles: below
// 2⁵², t's integer part and fraction are exact in float64. Larger, infinite
// or NaN quotients take the exact path, which also saturates at MaxInt.
const fastSkipLimit = 1 << 52

// skipTableBits is the number of leading bits of a 53-bit uniform m that
// index a GeometricSource's skip table: bucket b holds every m with
// m>>tableShift = b.
const (
	skipTableBits = 10
	tableShift    = 53 - skipTableBits
	tableMask     = 1<<skipTableBits - 1
)

// lnBucketEdge[b] is ln(E_b), the logarithm of the largest x = 1 − m/2⁵³ in
// table bucket b, for b < 1024, and lnBucketEdge[1024] = ln 2⁻⁵³, the
// smallest x of the last bucket (see skipGuard). The edges do not depend on
// p, so a table build is one multiply and two truncations per bucket.
var lnBucketEdge = func() (t [1<<skipTableBits + 1]float64) {
	for b := range t {
		t[b] = math.Log(1 - float64(b)/(1<<skipTableBits))
	}
	t[1<<skipTableBits] = math.Log(0x1p-53)
	return t
}()

// tableBuildDraws is how many draws a source makes at one p, all on the
// guarded log path, before it builds that p's skip table. A build costs
// about as much as this many draws save, so a source that stops sooner (a
// small class-pair block, a short draw) never builds, and one that goes on
// pays at most twice the cheaper choice.
const tableBuildDraws = 256

// GeometricSource is the batched kernel behind the streaming edge samplers:
// repeated Geometric(p) draws — the number of failures before the first
// success in Bernoulli(p) trials — with the per-draw math hoisted out of the
// hot loop. A scalar draw pays a math.Log, a math.Log1p and the uniform
// draw per skip. A source computes math.Log1p(-p) and its reciprocal once
// per SetP, and each refill stores a whole batch of raw 53-bit uniforms m
// (u = m/2⁵³, x = 1−u). A draw first looks m's top 10 bits up in a per-p
// skip table: an entry holds the skip every m in that bucket maps to, and
// most draws end there. A bucket whose quotients come near an integer holds
// no skip; its draws take the guarded log path — a table-driven
// approximation of log(x), one multiply, a truncation and two comparisons
// with the guard band around the integers — and only a draw inside the
// band pays the exact math.Log and divide (see skipGuard). The table is
// built once draws at a p have paid for it (tableBuildDraws) and kept while
// SetP repeats that p, so a source reused across draws at one p builds it
// once. When p is so small that every bucket spans an integer, no table is
// built and every draw takes the guarded log path.
//
// The contract that lets the kernel thread through every sampler unchanged:
// draw i consumes uniform i. Next returns exactly
//
//	floor(log(1−u_i) / log1p(−p))
//
// for the i-th Float64 the underlying generator produces, so topologies
// sampled through a source are bit-identical at a fixed seed to the
// per-draw samplers that preceded it (pinned by the channel topology
// fingerprints). Because the buffer holds p-independent uniforms rather
// than finished skips, SetP may retarget p mid-stream — the heterogeneous
// per-class-pair blocks do exactly that — without consuming or discarding
// randomness.
//
// The one observable difference is the generator's FINAL position after a
// draw sequence: a refill consumes geometricBatch uniforms at once, so the
// generator parks at the next batch boundary rather than at the last
// uniform actually used. A generator lent to a source is therefore
// committed until the caller is done sampling; draws made on it afterwards
// are still independent uniforms, just not the ones the pre-kernel code
// would have seen. That position is part of the fixed-seed results: the
// adversary campaigns (experiment's campaign sweep, cmd/resilience) keep
// drawing from a trial's generator after a full wsn.Deployer.DeployRand,
// so a change to when a draw refills changes their output. Next and Fill
// refill at the same points for the same draws.
//
// Quotients exceeding MaxInt (tiny p) saturate to MaxInt. The zero value is
// unusable: call Reset, then SetP, before Next. A GeometricSource is not
// safe for concurrent use.
type GeometricSource struct {
	r      *Rand
	p      float64
	lnq    float64
	invLnq float64
	guard  float64 // skipGuard·(1 + 1/|lnq|)
	pos    int
	ms     [geometricBatch]uint64 // 53-bit uniforms m

	// skips[b] is 1 + the skip of every uniform in bucket b, or 0 when the
	// bucket's draws take the guarded log path (all of them until the
	// table is built). untilTable counts down the draws at p left before
	// the build; it is 0 when no build is due.
	skips      [1 << skipTableBits]int32
	tabled     bool
	untilTable int
}

// Reset points the source at r and empties the buffer, so the next refill
// starts from r's current position.
func (g *GeometricSource) Reset(r *Rand) {
	g.r = r
	g.pos = geometricBatch
}

// SetP retargets the success probability without touching buffered
// randomness. p must be in (0, 1); the samplers handle p = 0 and p = 1
// before reaching the kernel. Retargeting to the current p keeps its skip
// table; any other p drops it.
func (g *GeometricSource) SetP(p float64) {
	if p == g.p {
		return
	}
	g.p = p
	g.lnq = math.Log1p(-p)
	g.invLnq = 1 / g.lnq
	g.guard = skipGuard * (1 - g.invLnq)
	if g.tabled {
		clear(g.skips[:])
		g.tabled = false
	}
	// Bucket 0 spans the fewest quotients, T_1: when even it reaches an
	// integer, every bucket does and the table would hold no skip.
	g.untilTable = 0
	if lnBucketEdge[1]*g.invLnq < 1 {
		g.untilTable = tableBuildDraws
	}
}

// Next returns the number of failures before the first success in
// Bernoulli(p) trials, consuming exactly one buffered uniform.
func (g *GeometricSource) Next() int {
	if g.pos == geometricBatch {
		g.refill()
	}
	if g.untilTable > 0 {
		g.countDraws(1)
	}
	m := g.ms[g.pos]
	g.pos++
	if s := g.skips[m>>tableShift&tableMask]; s != 0 {
		return int(s) - 1
	}
	// m < 2⁵³, so the signed conversion is exact, and so is x.
	x := 1 - float64(int64(m))/(1<<53)
	if t := approxLog(x) * g.invLnq; t < fastSkipLimit {
		k := int(t)
		if f := t - float64(k); f > g.guard && f < 1-g.guard {
			return k
		}
	}
	return g.exact(x)
}

// Fill writes the next draws into dst and returns how many it wrote: all
// of dst, or the draws left in the buffer when fewer remain. The draws are
// exactly those repeated Next calls would return, and the source and its
// generator end where those calls would leave them. An empty buffer is
// refilled only when dst asks for at least one draw, so a caller that
// calls Fill again only once it needs another draw moves the generator
// exactly as a caller of Next does. A caller that stops partway through
// dst has still consumed all of it.
func (g *GeometricSource) Fill(dst []int) int {
	if len(dst) == 0 {
		return 0
	}
	if g.pos == geometricBatch {
		g.refill()
	}
	ms := g.ms[g.pos:]
	ms = ms[:min(len(dst), len(ms))]
	dst = dst[:len(ms)]
	if g.untilTable > 0 {
		g.countDraws(len(ms))
	}
	invLnq, guard := g.invLnq, g.guard
	for j, m := range ms {
		if s := g.skips[m>>tableShift&tableMask]; s != 0 {
			dst[j] = int(s) - 1
			continue
		}
		x := 1 - float64(int64(m))/(1<<53)
		if t := approxLog(x) * invLnq; t < fastSkipLimit {
			k := int(t)
			if f := t - float64(k); f > guard && f < 1-guard {
				dst[j] = k
				continue
			}
		}
		dst[j] = g.exact(x)
	}
	g.pos += len(ms)
	return len(ms)
}

// countDraws counts n draws towards the table build, building the table
// once tableBuildDraws draws at p have been made.
func (g *GeometricSource) countDraws(n int) {
	if g.untilTable -= n; g.untilTable <= 0 {
		g.buildTable()
	}
}

// exact is the skip of x = 1−u inside the guard band, computed as
// floor(log(1−u)/log1p(−p)) and saturating at MaxInt.
func (g *GeometricSource) exact(x float64) int {
	q := math.Floor(math.Log(x) / g.lnq)
	if q >= maxIntFloat {
		return math.MaxInt
	}
	return int(q)
}

// buildTable fills the skip table for the current p: bucket b gets a skip
// when its quotient range [T_b, T_{b+1}], widened by the guard, holds no
// integer (see skipGuard). SetP arms a build only when bucket 0's range is
// below 1, which also keeps every entry below ln(2¹⁰)·1024 < 2¹³.
func (g *GeometricSource) buildTable() {
	// The ends are non-negative and below 2¹⁶ here, so int truncation is
	// the floor; it also clamps bucket 0's lower end, −guard, to 0.
	lo := 0.0 // T_0: ln 1 = 0
	for b := range g.skips {
		hi := lnBucketEdge[b+1] * g.invLnq
		if k := int(lo - g.guard); k == int(hi+g.guard) {
			g.skips[b] = int32(k) + 1
		}
		lo = hi
	}
	g.tabled = true
	g.untilTable = 0
}

func (g *GeometricSource) refill() {
	// Step a local copy of the generator so its state stays in registers.
	r := *g.r
	for i := range g.ms {
		g.ms[i] = r.Uint64() >> 11
	}
	*g.r = r
	g.pos = 0
}
