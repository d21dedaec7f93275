package combin

import (
	"math"
	"math/big"
	"testing"
	"testing/quick"
)

func TestLogFactorialSmall(t *testing.T) {
	want := []float64{1, 1, 2, 6, 24, 120, 720, 5040}
	for n, w := range want {
		if got := math.Exp(LogFactorial(n)); math.Abs(got-w) > 1e-9*w {
			t.Errorf("exp(LogFactorial(%d)) = %v, want %v", n, got, w)
		}
	}
}

func TestFactorial(t *testing.T) {
	if got := Factorial(5); math.Abs(got-120) > 1e-9 {
		t.Errorf("Factorial(5) = %v", got)
	}
	if got := Factorial(171); !math.IsInf(got, 1) {
		t.Errorf("Factorial(171) = %v, want +Inf", got)
	}
}

func TestLogFactorialPanicsNegative(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("LogFactorial(-1) did not panic")
		}
	}()
	LogFactorial(-1)
}

func TestBinomialAgainstBig(t *testing.T) {
	for n := 0; n <= 60; n++ {
		for k := 0; k <= n; k++ {
			exact := bigBinomial(n, k)
			exactF, _ := new(big.Float).SetInt(exact).Float64()
			got := math.Exp(LogBinomial(n, k))
			if math.Abs(got-exactF) > 1e-9*exactF+1e-9 {
				t.Fatalf("exp LogBinomial(%d,%d) = %v, want %v", n, k, got, exactF)
			}
		}
	}
}

func TestBinomialOutOfRange(t *testing.T) {
	if got := math.Exp(LogBinomial(5, -1)); got != 0 {
		t.Errorf("exp LogBinomial(5,-1) = %v, want 0", got)
	}
	if got := math.Exp(LogBinomial(5, 6)); got != 0 {
		t.Errorf("exp LogBinomial(5,6) = %v, want 0", got)
	}
	if got := bigBinomial(5, 6); got.Sign() != 0 {
		t.Errorf("bigBinomial(5,6) = %v, want 0", got)
	}
	if got := bigBinomial(-2, 1); got.Sign() != 0 {
		t.Errorf("bigBinomial(-2,1) = %v, want 0", got)
	}
}

func TestLogBinomialLarge(t *testing.T) {
	// C(10000, 50) computed exactly with big.Int, compared in log space.
	exact := bigBinomial(10000, 50)
	wantLog := bigLog(exact)
	got := LogBinomial(10000, 50)
	if math.Abs(got-wantLog) > 1e-8*math.Abs(wantLog) {
		t.Errorf("LogBinomial(10000,50) = %v, want %v", got, wantLog)
	}
}

// bigLog returns the natural log of a positive big.Int.
func bigLog(x *big.Int) float64 {
	f := new(big.Float).SetInt(x)
	mant := new(big.Float)
	exp := f.MantExp(mant)
	m, _ := mant.Float64()
	return math.Log(m) + float64(exp)*math.Ln2
}

func TestHypergeomPMFInvalid(t *testing.T) {
	if _, err := HypergeomPMF(5, 6, 1); err == nil {
		t.Error("ring > pool: want error")
	}
	if _, err := HypergeomPMF(5, -1, 1); err == nil {
		t.Error("negative ring: want error")
	}
}

func TestHypergeomPMFImpossibleOutcomes(t *testing.T) {
	tests := []struct {
		name          string
		pool, ring, u int
	}{
		{name: "negative overlap", pool: 10, ring: 3, u: -1},
		{name: "overlap beyond ring", pool: 10, ring: 3, u: 4},
		{name: "overlap below forced min", pool: 4, ring: 3, u: 1}, // 2K−P = 2 forces u ≥ 2
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			p, err := HypergeomPMF(tt.pool, tt.ring, tt.u)
			if err != nil {
				t.Fatal(err)
			}
			if p != 0 {
				t.Errorf("PMF(%d,%d,%d) = %v, want 0", tt.pool, tt.ring, tt.u, p)
			}
		})
	}
}

func TestHypergeomPMFSumsToOne(t *testing.T) {
	tests := []struct{ pool, ring int }{
		{pool: 10, ring: 3},
		{pool: 100, ring: 10},
		{pool: 10000, ring: 50},
		{pool: 7, ring: 7},
		{pool: 5, ring: 0},
		{pool: 9, ring: 6}, // 2K > P regime
	}
	for _, tt := range tests {
		sum := 0.0
		for u := 0; u <= tt.ring; u++ {
			p, err := HypergeomPMF(tt.pool, tt.ring, u)
			if err != nil {
				t.Fatal(err)
			}
			sum += p
		}
		if math.Abs(sum-1) > 1e-9 {
			t.Errorf("PMF over pool=%d ring=%d sums to %v", tt.pool, tt.ring, sum)
		}
	}
}

func TestHypergeomPMFExactSmall(t *testing.T) {
	// pool=6, ring=3: P[X=u] = C(3,u)C(3,3-u)/C(6,3), C(6,3)=20.
	want := []float64{1.0 / 20, 9.0 / 20, 9.0 / 20, 1.0 / 20}
	for u, w := range want {
		got, err := HypergeomPMF(6, 3, u)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(got-w) > 1e-12 {
			t.Errorf("PMF(6,3,%d) = %v, want %v", u, got, w)
		}
	}
}

func TestHypergeomTailBasics(t *testing.T) {
	// q <= 0 is certain.
	for _, q := range []int{0, -3} {
		got, err := HypergeomTail(100, 10, q)
		if err != nil {
			t.Fatal(err)
		}
		if got != 1 {
			t.Errorf("Tail(q=%d) = %v, want 1", q, got)
		}
	}
	// q > ring is impossible.
	got, err := HypergeomTail(100, 10, 11)
	if err != nil {
		t.Fatal(err)
	}
	if got != 0 {
		t.Errorf("Tail(q=11) = %v, want 0", got)
	}
	if _, err := HypergeomTail(5, 9, 1); err == nil {
		t.Error("ring > pool: want error")
	}
}

func TestHypergeomTailMatchesDirectSum(t *testing.T) {
	tests := []struct{ pool, ring, q int }{
		{pool: 10000, ring: 35, q: 2},
		{pool: 10000, ring: 60, q: 3},
		{pool: 10000, ring: 88, q: 2},
		{pool: 1000, ring: 40, q: 1},
		{pool: 50, ring: 10, q: 4},
		{pool: 9, ring: 6, q: 3},
	}
	for _, tt := range tests {
		want := 0.0
		for u := tt.q; u <= tt.ring; u++ {
			p, err := HypergeomPMF(tt.pool, tt.ring, u)
			if err != nil {
				t.Fatal(err)
			}
			want += p
		}
		got, err := HypergeomTail(tt.pool, tt.ring, tt.q)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(got-want) > 1e-12+1e-9*want {
			t.Errorf("Tail(%d,%d,%d) = %v, want %v", tt.pool, tt.ring, tt.q, got, want)
		}
	}
}

func TestHypergeomTailForcedOverlap(t *testing.T) {
	// pool=4, ring=3: overlap is at least 2, so P[X ≥ 2] = 1.
	got, err := HypergeomTail(4, 3, 2)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got-1) > 1e-12 {
		t.Errorf("Tail(4,3,2) = %v, want 1", got)
	}
}

func TestHypergeomTailAsymptotic(t *testing.T) {
	// Lemma 2 of the paper: s(K,P,q) ~ (K²/P)^q / q! when K=ω(1), K²/P=o(1).
	const pool = 1 << 22
	for _, tt := range []struct {
		ring, q int
	}{
		{ring: 200, q: 1},
		{ring: 200, q: 2},
		{ring: 200, q: 3},
	} {
		got, err := HypergeomTail(pool, tt.ring, tt.q)
		if err != nil {
			t.Fatal(err)
		}
		approx := math.Pow(float64(tt.ring)*float64(tt.ring)/pool, float64(tt.q)) / Factorial(tt.q)
		if math.Abs(got-approx) > 0.05*approx {
			t.Errorf("Tail(P=%d,K=%d,q=%d) = %v, asymptotic %v (should be within 5%%)",
				pool, tt.ring, tt.q, got, approx)
		}
	}
}

func TestHypergeomMean(t *testing.T) {
	if got := HypergeomMean2(10000, 50, 50); math.Abs(got-0.25) > 1e-12 {
		t.Errorf("HypergeomMean2 = %v, want 0.25", got)
	}
	if got := HypergeomMean2(0, 5, 5); got != 0 {
		t.Errorf("HypergeomMean zero pool = %v", got)
	}
}

func TestLogChoose2(t *testing.T) {
	if got := logChoose2(1000); math.Abs(got-math.Log(499500)) > 1e-12 {
		t.Errorf("logChoose2(1000) = %v", got)
	}
	if got := logChoose2(1); !math.IsInf(got, -1) {
		t.Errorf("logChoose2(1) = %v, want -Inf", got)
	}
}

func TestQuickTailMonotoneInQ(t *testing.T) {
	// P[X ≥ q] is non-increasing in q and always within [0,1].
	f := func(poolRaw, ringRaw uint16) bool {
		pool := 2 + int(poolRaw)%2000
		ring := int(ringRaw) % (pool + 1)
		prev := 1.0
		for q := 0; q <= ring+1; q++ {
			got, err := HypergeomTail(pool, ring, q)
			if err != nil {
				return false
			}
			if got < 0 || got > 1 || got > prev+1e-12 {
				return false
			}
			prev = got
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestQuickPMFAgainstBigExact(t *testing.T) {
	// Validate the log-space pmf against exact rational arithmetic.
	f := func(poolRaw, ringRaw, uRaw uint8) bool {
		pool := 1 + int(poolRaw)%200
		ring := int(ringRaw) % (pool + 1)
		u := int(uRaw) % (ring + 1)
		got, err := HypergeomPMF(pool, ring, u)
		if err != nil {
			return false
		}
		num := new(big.Int).Mul(bigBinomial(ring, u), bigBinomial(pool-ring, ring-u))
		den := bigBinomial(pool, ring)
		want, _ := new(big.Rat).SetFrac(num, den).Float64()
		return math.Abs(got-want) <= 1e-9*want+1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func BenchmarkHypergeomTailPaperScale(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := HypergeomTail(10000, 58, 2); err != nil {
			b.Fatal(err)
		}
	}
}

// bigBinomial returns C(n, k) exactly, the reference for the log-space
// LogBinomial. Out-of-range k yields zero.
func bigBinomial(n, k int) *big.Int {
	if k < 0 || k > n || n < 0 {
		return big.NewInt(0)
	}
	return new(big.Int).Binomial(int64(n), int64(k))
}

// logChoose2 returns ln C(n,2) = ln(n(n−1)/2), −Inf for n < 2.
func logChoose2(n int) float64 {
	if n < 2 {
		return math.Inf(-1)
	}
	return math.Log(float64(n)) + math.Log(float64(n-1)) - math.Ln2
}
