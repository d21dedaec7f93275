package rng

import "math"

// geometricBatch is the uniform-buffer size of a GeometricSource. A refill
// converts one batch of generator words to x = 1−u values and their
// approximate logarithms in a tight, branch-free loop; 64 entries amortize
// the refill while keeping a partially drained batch cheap to abandon.
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
// before Next recomputes it exactly. Next compares t = approxLog(x)·(1/lnq)
// with e = fl(fl(log x)/lnq), the exact path's quotient, for x = 1−u ∈
// [2⁻⁵³, 1] (so |ln x| ≤ 37) and y = ln(x)/lnq:
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
const skipGuard = 1e-9

// fastSkipLimit bounds the quotients the fast path handles: below 2⁵², t's
// integer part and fraction are exact in float64. Larger, infinite or NaN
// quotients take the exact path, which also saturates at MaxInt.
const fastSkipLimit = 1 << 52

// GeometricSource is the batched kernel behind the streaming edge samplers:
// repeated Geometric(p) draws — the number of failures before the first
// success in Bernoulli(p) trials — with the per-draw math hoisted out of the
// hot loop. A scalar draw pays a math.Log, a math.Log1p and the uniform
// draw per skip. A source computes math.Log1p(-p) and its
// reciprocal once per SetP, and each refill stores, for a whole batch of
// uniforms, x = 1−u and a table-driven approximation of log(x). The
// per-draw path is one multiply, a truncation and two comparisons with the
// guard band around the integers (see skipGuard); only a draw inside the
// band pays the exact math.Log and divide.
//
// The contract that lets the kernel thread through every sampler unchanged:
// draw i consumes uniform i. Next returns exactly
//
//	floor(log(1−u_i) / log1p(−p))
//
// for the i-th Float64 the underlying generator produces, so topologies
// sampled through a source are bit-identical at a fixed seed to the
// per-draw samplers that preceded it (pinned by the channel topology
// fingerprints). Because the buffer holds p-independent values rather than
// finished skips, SetP may retarget p mid-stream — the heterogeneous
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
// Quotients exceeding MaxInt (tiny p) saturate to MaxInt. The zero value is unusable: call Reset, then SetP,
// before Next. A GeometricSource is not safe for concurrent use.
type GeometricSource struct {
	r      *Rand
	lnq    float64
	invLnq float64
	guard  float64 // skipGuard·(1 + 1/|lnq|)
	pos    int
	xs     [geometricBatch]float64 // 1−u
	logs   [geometricBatch]float64 // approxLog(1−u)
}

// Reset points the source at r and empties the buffer, so the next refill
// starts from r's current position.
func (g *GeometricSource) Reset(r *Rand) {
	g.r = r
	g.pos = geometricBatch
}

// SetP retargets the success probability without touching buffered
// randomness. p must be in (0, 1); the samplers handle p = 0 and p = 1
// before reaching the kernel.
func (g *GeometricSource) SetP(p float64) {
	g.lnq = math.Log1p(-p)
	g.invLnq = 1 / g.lnq
	g.guard = skipGuard * (1 - g.invLnq)
}

// Next returns the number of failures before the first success in
// Bernoulli(p) trials, consuming exactly one buffered uniform.
func (g *GeometricSource) Next() int {
	if g.pos == geometricBatch {
		g.refill()
	}
	i := g.pos
	g.pos++
	if t := g.logs[i] * g.invLnq; t < fastSkipLimit {
		k := int(t)
		if f := t - float64(k); f > g.guard && f < 1-g.guard {
			return k
		}
	}
	return g.exact(i)
}

// Fill writes the next draws into dst and returns how many it wrote: all
// of dst, or the draws left in the buffer when fewer remain. The draws are
// exactly those repeated Next calls would return, and the source and its
// generator end where those calls would leave them. An empty buffer is
// refilled only when dst asks for at least one draw, so a caller that
// calls Fill again only once it needs another draw moves the generator
// exactly as a caller of Next does. Fill converts the buffered uniforms in
// one loop; a caller that stops partway through dst has still consumed
// all of it.
func (g *GeometricSource) Fill(dst []int) int {
	if len(dst) == 0 {
		return 0
	}
	if g.pos == geometricBatch {
		g.refill()
	}
	i0 := g.pos
	dst = dst[:min(len(dst), geometricBatch-i0)]
	invLnq, guard := g.invLnq, g.guard
	for j := range dst {
		if t := g.logs[i0+j] * invLnq; t < fastSkipLimit {
			k := int(t)
			if f := t - float64(k); f > guard && f < 1-guard {
				dst[j] = k
				continue
			}
		}
		dst[j] = g.exact(i0 + j)
	}
	g.pos += len(dst)
	return len(dst)
}

// exact is the guarded skip of buffered uniform i computed as
// floor(log(1−u)/log1p(−p)), saturating at MaxInt.
func (g *GeometricSource) exact(i int) int {
	q := math.Floor(math.Log(g.xs[i]) / g.lnq)
	if q >= maxIntFloat {
		return math.MaxInt
	}
	return int(q)
}

func (g *GeometricSource) refill() {
	// Step a local copy of the generator so its state stays in registers.
	r := *g.r
	for i := range g.xs {
		x := 1 - float64(r.Uint64()>>11)/(1<<53)
		g.xs[i] = x
		g.logs[i] = approxLog(x)
	}
	*g.r = r
	g.pos = 0
}
