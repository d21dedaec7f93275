package rng

import (
	"fmt"
	"math"
	"testing"
)

// TestGeometricSourceMatchesScalar pins the kernel's bit-identity contract:
// draw i consumes uniform i, so a GeometricSource must reproduce the scalar
// Geometric sequence value for value at a fixed seed — including across
// mid-stream SetP retargets, which the heterogeneous block sampler relies
// on (the buffer holds p-independent log(1−u) values, so a p change must
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

// TestGeometricSkipBoundaries feeds the kernel the values of x = 1−u where
// its approximate quotient is least certain: within ±N ulps of exp(j·ln q),
// where the exact skip steps from j−1 to j. Every skip must equal
// floor(log(x)/ln q), the scalar formula.
func TestGeometricSkipBoundaries(t *testing.T) {
	const ulps = 300
	var src GeometricSource
	src.Reset(New(1))
	for _, p := range skipGrid {
		src.SetP(p)
		lnq := math.Log1p(-p)
		var xs []float64
		for j := 0; j <= 200; j++ {
			x0 := math.Exp(float64(j) * lnq)
			lo, hi := x0, x0
			for d := 0; d < ulps; d++ {
				lo, hi = math.Nextafter(lo, 0), math.Nextafter(hi, 2)
			}
			for x := lo; x <= hi; x = math.Nextafter(x, 2) {
				if x >= 0x1p-53 && x <= 1 {
					xs = append(xs, x)
				}
			}
		}
		for len(xs) > 0 {
			batch := xs[:min(len(xs), geometricBatch)]
			xs = xs[len(batch):]
			// Load the batch into the buffer's tail, as a partly drained
			// refill would hold it.
			src.pos = geometricBatch - len(batch)
			for i, x := range batch {
				src.xs[src.pos+i], src.logs[src.pos+i] = x, approxLog(x)
			}
			for _, x := range batch {
				want := math.Floor(math.Log(x) / lnq)
				if got := src.Next(); float64(got) != want && !(got == math.MaxInt && want >= maxIntFloat) {
					t.Fatalf("p=%g x=%v: kernel %d, exact %v", p, x, got, want)
				}
			}
		}
	}
}

// FuzzGeometricSourceExact checks the kernel against the scalar geometric for
// an arbitrary p in (0, 1) and seed, across refills.
func FuzzGeometricSourceExact(f *testing.F) {
	for i, p := range skipGrid {
		f.Add(p, uint64(i))
	}
	f.Fuzz(func(t *testing.T, p float64, seed uint64) {
		if !(p > 0 && p < 1) {
			t.Skip()
		}
		rScalar, rKernel := New(seed), New(seed)
		var src GeometricSource
		src.Reset(rKernel)
		src.SetP(p)
		for d := 0; d < 3*geometricBatch; d++ {
			if got, want := src.Next(), rScalar.geometric(p); got != want {
				t.Fatalf("p=%v seed=%d draw %d: kernel %d, scalar %d", p, seed, d, got, want)
			}
		}

		// Fill, in chunks from one draw to more than a batch, must return
		// the draws Next returns and leave the source and its generator
		// where Next leaves them; an empty Fill must not refill.
		rNext, rFill := New(seed), New(seed)
		var next, fill GeometricSource
		next.Reset(rNext)
		next.SetP(p)
		fill.Reset(rFill)
		fill.SetP(p)
		buf := make([]int, geometricBatch+1)
		chunk := int(seed%uint64(len(buf))) + 1
		for d := 0; d < 3*geometricBatch; {
			m := fill.Fill(buf[:min(chunk, 3*geometricBatch-d)])
			for j, got := range buf[:m] {
				if want := next.Next(); got != want {
					t.Fatalf("p=%v seed=%d draw %d: Fill %d, Next %d", p, seed, d+j, got, want)
				}
			}
			d += m
			chunk = chunk%len(buf) + 1
		}
		if fill.Fill(nil) != 0 || *rFill != *rNext {
			t.Fatalf("p=%v seed=%d: Fill leaves the generator elsewhere than Next", p, seed)
		}
		if got, want := fill.Next(), next.Next(); got != want || *rFill != *rNext {
			t.Fatalf("p=%v seed=%d: the draw after Fill is %d, after Next %d", p, seed, got, want)
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
	total := 0
	for i := 0; i < 200; i++ {
		c := r.Binomial(1<<40, 1e-12)
		if c < 0 {
			t.Fatalf("draw %d: Binomial(2^40, 1e-12) = %d, want non-negative", i, c)
		}
		total += c
	}
	// Mean per draw is 2^40 · 1e-12 ≈ 1.1; 200 draws concentrate hard.
	if total < 50 || total > 800 {
		t.Errorf("Binomial(2^40, 1e-12) summed to %d over 200 draws, want ≈ 220", total)
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

// BenchmarkGeometricKernel measures the kernelized skip draw against the
// scalar geometric draw it replaced (per-draw Log1p + call overhead vs the
// batched refill), at the skip scales the streaming samplers actually see.
func BenchmarkGeometricKernel(b *testing.B) {
	for _, p := range []float64{0.5, 0.05, 0.001} {
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
