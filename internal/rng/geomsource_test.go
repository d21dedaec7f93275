package rng

import (
	"fmt"
	"math"
	"slices"
	"testing"
)

// TestGeometricSourceMatchesScalar pins the kernel's bit-identity contract:
// draw i consumes uniform i, so a GeometricSource must reproduce the scalar
// Geometric sequence value for value at a fixed seed — including across
// mid-stream SetP retargets, which the heterogeneous block sampler relies
// on (the buffer holds p-independent uniforms, so a p change must
// not consume or discard randomness).
func TestGeometricSourceMatchesScalar(t *testing.T) {
	ps := []float64{0.9, 0.5, 0.1, 0.01, 0.001, 1e-9}
	for seed := uint64(1); seed <= 3; seed++ {
		rScalar := New(seed)
		rKernel := New(seed)
		var src GeometricSource
		src.Reset(rKernel)
		// 3× the batch size, crossing refill boundaries, changing p every
		// draw in round-robin order.
		for i := 0; i < 3*geometricBatch; i++ {
			p := ps[i%len(ps)]
			want := rScalar.geometric(p)
			src.SetP(p)
			if got := src.Next(); got != want {
				t.Fatalf("seed=%d draw %d (p=%g): kernel %d, scalar %d", seed, i, p, got, want)
			}
		}
	}
}

// skipGrid spans the success probabilities the exactness tests sweep, from
// the tiny-p regime where the guard sends every draw to the exact path to
// the largest p below 1.
var skipGrid = []float64{
	1e-12, 1e-9, 1e-6, 1e-4, 1e-3, 0.01, 0.05, 0.1,
	0.25, 0.5, 0.75, 0.9, 0.99, 1 - 1e-6, 1 - 1e-12, 1 - 0x1p-52,
}

// exactSkip is the scalar formula for the skip of the 53-bit uniform m:
// floor(log(1−m/2⁵³)/ln q), saturating at MaxInt.
func exactSkip(m uint64, lnq float64) int {
	q := math.Floor(math.Log(1-float64(m)/(1<<53)) / lnq)
	if q >= maxIntFloat {
		return math.MaxInt
	}
	return int(q)
}

// injectSkips loads the uniforms ms into the tail of src's buffer, as a
// partly drained refill would hold them, draws them with Next and fails
// unless each skip equals the scalar formula.
func injectSkips(t *testing.T, src *GeometricSource, how string, p float64, ms []uint64) {
	t.Helper()
	lnq := math.Log1p(-p)
	for len(ms) > 0 {
		batch := ms[:min(len(ms), geometricBatch)]
		ms = ms[len(batch):]
		src.pos = geometricBatch - copy(src.ms[geometricBatch-len(batch):], batch)
		for _, m := range batch {
			if got, want := src.Next(), exactSkip(m, lnq); got != want {
				t.Fatalf("p=%g m=%d (%s): kernel %d, exact %d", p, m, how, got, want)
			}
		}
	}
}

// tabledSources returns two sources at p: one whose table is built and one
// that takes the guarded log path for every draw, so a test covers both.
func tabledSources(p float64) (tabled, logOnly *GeometricSource) {
	tabled, logOnly = new(GeometricSource), new(GeometricSource)
	tabled.Reset(New(1))
	tabled.SetP(p)
	tabled.buildTable()
	logOnly.Reset(New(1))
	logOnly.SetP(p)
	logOnly.untilTable = 0
	return tabled, logOnly
}

// TestGeometricSkipBoundaries feeds the kernel the uniforms where its
// skip is least certain: within ±N units of m = 2⁵³(1 − qʲ), where the
// exact skip steps from j−1 to j. Raw uniforms are the only inputs a draw
// sees. Every skip, from the table or the guarded log path, must equal
// floor(log(1−m/2⁵³)/ln q), the scalar formula.
func TestGeometricSkipBoundaries(t *testing.T) {
	const units = 300
	for _, p := range skipGrid {
		lnq := math.Log1p(-p)
		var ms []uint64
		for j := 0; j <= 200; j++ {
			m0 := int64(math.Round(-math.Expm1(float64(j)*lnq) * (1 << 53)))
			for m := m0 - units; m <= m0+units; m++ {
				if m >= 0 && m < 1<<53 {
					ms = append(ms, uint64(m))
				}
			}
		}
		tabled, logOnly := tabledSources(p)
		injectSkips(t, tabled, "table", p, ms)
		injectSkips(t, logOnly, "log path", p, ms)
	}
}

// TestGeometricBucketEdges checks both edges of every skip-table bucket,
// m = b·2⁴³ − 1 and b·2⁴³, against the scalar formula for every p of the
// skip grid: a bucket's first and last uniforms are where a table entry
// could first go wrong. It then picks, for every bucket edge, the p that
// put the first or second skip threshold 2⁵³(1 − qʲ) within 2 units of the
// edge, and checks the 3 uniforms on each side of it. There the table's
// quotient ends and the exact quotient round within an ulp of the same
// integer: an entry built without the guard, or from a range narrower
// than its bucket, fails. At p = 0.5 and at the plateau's p = 0.023 most
// buckets must hold a skip, so the checks are not vacuous.
func TestGeometricBucketEdges(t *testing.T) {
	for _, p := range skipGrid {
		ms := []uint64{1<<53 - 1}
		for b := uint64(0); b < 1<<skipTableBits; b++ {
			if b > 0 {
				ms = append(ms, b<<tableShift-1)
			}
			ms = append(ms, b<<tableShift)
		}
		tabled, logOnly := tabledSources(p)
		injectSkips(t, tabled, "table", p, ms)
		injectSkips(t, logOnly, "log path", p, ms)
	}
	for j := 1; j <= 2; j++ {
		for b := uint64(1); b < 1<<skipTableBits; b++ {
			var ms []uint64
			for m := b<<tableShift - 3; m < b<<tableShift+3; m++ {
				ms = append(ms, m)
			}
			q := math.Pow(1-float64(b)/(1<<skipTableBits), 1/float64(j))
			for k := -2; k <= 2; k++ {
				p := 1 - q - float64(k)*0x1p-53
				tabled, _ := tabledSources(p)
				injectSkips(t, tabled, "table", p, ms)
			}
		}
	}
	for p, want := range map[float64]float64{0.5: 0.95, 0.023: 0.75} {
		tabled, _ := tabledSources(p)
		held := 0
		for _, s := range tabled.skips {
			if s != 0 {
				held++
			}
		}
		if frac := float64(held) / float64(len(tabled.skips)); frac < want {
			t.Errorf("p=%g: %.3f of buckets hold a skip, want at least %.2f", p, frac, want)
		}
	}
}

// TestGeometricTableBuildPolicy pins when a source builds its skip table:
// not within the first tableBuildDraws draws at a p, once they are made,
// kept by a SetP to the same p (and by Reset), dropped by a SetP to
// another p, and never at a p where every bucket spans an integer.
func TestGeometricTableBuildPolicy(t *testing.T) {
	var src GeometricSource
	src.Reset(New(3))
	src.SetP(0.5)
	var buf [tableBuildDraws - 1]int
	for drawn := 0; drawn < len(buf); {
		drawn += src.Fill(buf[drawn:])
	}
	if src.tabled {
		t.Fatalf("table built within %d draws", len(buf))
	}
	src.Next()
	if !src.tabled {
		t.Fatalf("no table after %d draws at one p", tableBuildDraws)
	}
	src.Reset(New(4))
	src.SetP(0.5)
	if !src.tabled {
		t.Fatal("Reset and a SetP to the same p dropped the table")
	}
	src.SetP(0.25)
	if src.tabled || slices.ContainsFunc(src.skips[:], func(s int32) bool { return s != 0 }) {
		t.Fatal("a SetP to another p kept the old table")
	}
	src.SetP(1e-4)
	for range 4 * tableBuildDraws {
		src.Next()
	}
	if src.tabled {
		t.Fatal("table built at a p where every bucket spans an integer")
	}
}

// FuzzGeometricSourceExact checks the kernel against the scalar geometric
// for arbitrary p and p2 in (0, 1) and seed, across refills and table
// builds, with p retargeted mid-stream as the heterogeneous class-pair
// blocks do: tableBuildDraws+100 draws at p, fewer than tableBuildDraws at
// p2, then more than tableBuildDraws at p again.
func FuzzGeometricSourceExact(f *testing.F) {
	for i, p := range skipGrid {
		f.Add(p, skipGrid[(i+5)%len(skipGrid)], uint64(i))
	}
	f.Add(0.5, 0.5, uint64(99))
	f.Fuzz(func(t *testing.T, p, p2 float64, seed uint64) {
		if !(p > 0 && p < 1 && p2 > 0 && p2 < 1) {
			t.Skip()
		}
		segments := []struct {
			p     float64
			draws int
		}{{p, tableBuildDraws + 100}, {p2, tableBuildDraws - 200}, {p, tableBuildDraws + 80}}
		rScalar, rKernel := New(seed), New(seed)
		var src GeometricSource
		src.Reset(rKernel)
		d := 0
		for _, seg := range segments {
			src.SetP(seg.p)
			for range seg.draws {
				if got, want := src.Next(), rScalar.geometric(seg.p); got != want {
					t.Fatalf("p=%v p2=%v seed=%d draw %d: kernel %d, scalar %d", p, p2, seed, d, got, want)
				}
				d++
			}
		}
		// The kernel's generator parks at the next batch boundary.
		for ; d%geometricBatch != 0; d++ {
			rScalar.Float64()
		}
		if *rScalar != *rKernel {
			t.Fatalf("p=%v p2=%v seed=%d: the kernel's generator is not at the batch boundary after the draws", p, p2, seed)
		}

		// Fill, in chunks from one draw to more than a batch, must return
		// the draws Next returns and leave the source and its generator
		// where Next leaves them; an empty Fill must not refill.
		rNext, rFill := New(seed), New(seed)
		var next, fill GeometricSource
		next.Reset(rNext)
		fill.Reset(rFill)
		buf := make([]int, geometricBatch+1)
		chunk := int(seed%uint64(len(buf))) + 1
		d = 0
		for _, seg := range segments {
			next.SetP(seg.p)
			fill.SetP(seg.p)
			for left := seg.draws; left > 0; {
				m := fill.Fill(buf[:min(chunk, left)])
				for j, got := range buf[:m] {
					if want := next.Next(); got != want {
						t.Fatalf("p=%v p2=%v seed=%d draw %d: Fill %d, Next %d", p, p2, seed, d+j, got, want)
					}
				}
				d += m
				left -= m
				chunk = chunk%len(buf) + 1
			}
		}
		if fill.Fill(nil) != 0 || *rFill != *rNext {
			t.Fatalf("p=%v p2=%v seed=%d: Fill leaves the generator elsewhere than Next", p, p2, seed)
		}
		if got, want := fill.Next(), next.Next(); got != want || *rFill != *rNext {
			t.Fatalf("p=%v p2=%v seed=%d: the draw after Fill is %d, after Next %d", p, p2, seed, got, want)
		}
	})
}

// TestGeometricSourceResetRealigns covers the lend-return cycle the
// samplers perform: after Reset the source must discard any partially
// drained batch and consume fresh uniforms from the generator's current
// position.
func TestGeometricSourceResetRealigns(t *testing.T) {
	r := New(7)
	var src GeometricSource
	src.Reset(r)
	src.SetP(0.3)
	src.Next() // leaves 63 buffered uniforms
	ref := New(0)
	*ref = *r // snapshot the generator position after the first refill
	src.Reset(r)
	src.SetP(0.3)
	want := ref.geometric(0.3)
	if got := src.Next(); got != want {
		t.Fatalf("after Reset: kernel %d, scalar-from-snapshot %d", got, want)
	}
}

// TestGeometricTinyPClamp is the satellite regression for the overflow
// guard: at p = 1e-12 the quotient stays comfortably inside int64 range and
// must be a plain huge non-negative skip, while at p = 1e-300 essentially
// every draw overflows MaxInt and must saturate rather than hit the
// implementation-specific out-of-range float→int conversion (MinInt on
// amd64, which previously turned into a negative skip).
func TestGeometricTinyPClamp(t *testing.T) {
	r := New(42)
	for i := 0; i < 200; i++ {
		if g := r.geometric(1e-12); g < 0 {
			t.Fatalf("draw %d: Geometric(1e-12) = %d, want non-negative", i, g)
		}
	}
	sawMax := false
	var src GeometricSource
	src.Reset(r)
	src.SetP(1e-300)
	for i := 0; i < 200; i++ {
		g := r.geometric(1e-300)
		k := src.Next()
		if g < 0 || k < 0 {
			t.Fatalf("draw %d: Geometric(1e-300) = %d / kernel %d, want non-negative", i, g, k)
		}
		if g == math.MaxInt {
			sawMax = true
		}
	}
	if !sawMax {
		t.Error("Geometric(1e-300) never saturated to MaxInt in 200 draws; clamp untested")
	}
}

// TestBinomialTinyPClamp: Binomial's waiting-time loop inherits the
// overflow — the huge gap must read as "past n" (return) instead of
// wrapping the position negative and overcounting. The count must stay in
// [0, n] and be almost surely 0 at p = 1e-300.
func TestBinomialTinyPClamp(t *testing.T) {
	r := New(9)
	for i := 0; i < 200; i++ {
		c := r.Binomial(1000, 1e-300)
		if c < 0 || c > 1000 {
			t.Fatalf("draw %d: Binomial(1000, 1e-300) = %d outside [0, 1000]", i, c)
		}
		if c != 0 {
			t.Fatalf("draw %d: Binomial(1000, 1e-300) = %d, want 0 (success probability ~1e-297)", i, c)
		}
	}
	// 2^40 trials where int holds them, the largest int on 32-bit targets;
	// p keeps the mean per draw at 2^40 · 1e-12 ≈ 1.1 either way (exactly
	// 1e-12 at 2^40).
	const n = min(1<<40, math.MaxInt)
	p := 1e-12 * (1 << 40) / n
	total := 0
	for i := 0; i < 200; i++ {
		c := r.Binomial(n, p)
		if c < 0 {
			t.Fatalf("draw %d: Binomial(%d, %g) = %d, want non-negative", i, n, p, c)
		}
		total += c
	}
	// 200 draws of mean ≈ 1.1 concentrate hard.
	if total < 50 || total > 800 {
		t.Errorf("Binomial(%d, %g) summed to %d over 200 draws, want ≈ 220", n, p, total)
	}
}

// TestFillFloat64MatchesFloat64 pins the batch filler's draw-for-draw
// contract against per-element Float64 calls.
func TestFillFloat64MatchesFloat64(t *testing.T) {
	ra, rb := New(5), New(5)
	buf := make([]float64, 97)
	ra.FillFloat64(buf)
	for i, got := range buf {
		if want := rb.Float64(); got != want {
			t.Fatalf("element %d: %v, want %v", i, got, want)
		}
	}
	if ra.Uint64() != rb.Uint64() {
		t.Error("generator states diverged after FillFloat64")
	}
}

// BenchmarkGeometricKernel measures the kernelized skip draw, one Next at
// a time and a buffer at a time through Fill (the row walk's path), against
// the scalar geometric draw it replaced, at the skip scales the streaming
// samplers see: kconn's p = 0.5, the fig1 and sweepd range around 0.2, a
// sparse 0.05 (the plateau draws at 0.023) and 0.001, where nearly every
// table bucket spans an integer. Each arm reports ns per skip.
func BenchmarkGeometricKernel(b *testing.B) {
	for _, p := range []float64{0.5, 0.2, 0.05, 0.001} {
		b.Run(fmt.Sprintf("p=%g/scalar", p), func(b *testing.B) {
			r := New(1)
			acc := 0
			for i := 0; i < b.N; i++ {
				acc += r.geometric(p)
			}
			sinkInt = acc
		})
		b.Run(fmt.Sprintf("p=%g/kernel", p), func(b *testing.B) {
			r := New(1)
			var src GeometricSource
			src.Reset(r)
			src.SetP(p)
			acc := 0
			for i := 0; i < b.N; i++ {
				acc += src.Next()
			}
			sinkInt = acc
		})
		b.Run(fmt.Sprintf("p=%g/fill", p), func(b *testing.B) {
			r := New(1)
			var src GeometricSource
			src.Reset(r)
			src.SetP(p)
			var buf [geometricBatch]int
			acc := 0
			for i := 0; i < b.N; {
				m := src.Fill(buf[:min(len(buf), b.N-i)])
				for _, s := range buf[:m] {
					acc += s
				}
				i += m
			}
			sinkInt = acc
		})
	}
}

var sinkInt int

// geometric is the scalar reference GeometricSource must equal: the number
// of failures before the first success in Bernoulli(p) trials, one uniform
// per draw. p must be in (0, 1]; p >= 1 always returns 0. Quotients
// exceeding MaxInt (tiny p makes the divisor approach −0) saturate to
// MaxInt instead of hitting the implementation-specific out-of-range
// float→int conversion.
func (r *Rand) geometric(p float64) int {
	if p >= 1 {
		return 0
	}
	if p <= 0 {
		panic(fmt.Sprintf("rng: Geometric with non-positive p = %v", p))
	}
	q := math.Floor(math.Log(1-r.Float64()) / math.Log1p(-p))
	if q >= maxIntFloat {
		return math.MaxInt
	}
	return int(q)
}
