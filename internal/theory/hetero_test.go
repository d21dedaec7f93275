package theory

import (
	"math"
	"testing"

	"github.com/secure-wsn/qcomposite/internal/combin"
	"github.com/secure-wsn/qcomposite/internal/keys"
)

// TestHeteroKeyShareProbReducesToUniform pins the unequal-ring tail against
// the paper's s(K, P, q) when both rings are equal.
func TestHeteroKeyShareProbReducesToUniform(t *testing.T) {
	for _, tc := range []struct{ pool, ring, q int }{
		{10000, 41, 2}, {10000, 78, 3}, {500, 40, 1}, {100, 10, 5},
	} {
		want, err := KeyShareProb(tc.pool, tc.ring, tc.q)
		if err != nil {
			t.Fatal(err)
		}
		got, err := HeteroKeyShareProb(tc.pool, tc.ring, tc.ring, tc.q)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(got-want) > 1e-15 {
			t.Errorf("s(%d,%d,%d): hetero %v, uniform %v", tc.ring, tc.pool, tc.q, got, want)
		}
	}
}

// TestHeteroKeyShareProbAgainstExactSum cross-checks the unequal-ring tail
// against a direct binomial PMF summation at small sizes.
func TestHeteroKeyShareProbAgainstExactSum(t *testing.T) {
	const pool, r1, r2, q = 60, 8, 20, 2
	want := 0.0
	binom := func(n, k int) float64 { return math.Exp(combin.LogBinomial(n, k)) }
	denom := binom(pool, r2)
	for u := q; u <= r1; u++ {
		want += binom(r1, u) * binom(pool-r1, r2-u) / denom
	}
	got, err := HeteroKeyShareProb(pool, r1, r2, q)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got-want) > 1e-12 {
		t.Errorf("tail = %v, direct sum %v", got, want)
	}
	// Symmetry in the two ring sizes.
	swapped, err := HeteroKeyShareProb(pool, r2, r1, q)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got-swapped) > 1e-12 {
		t.Errorf("tail not symmetric: %v vs %v", got, swapped)
	}
}

// TestHeteroKeyShareProbMonotone checks monotonicity in either ring size —
// the property the threshold binary search relies on.
func TestHeteroKeyShareProbMonotone(t *testing.T) {
	const pool, q = 2000, 2
	prev := -1.0
	for ring := q; ring <= 200; ring += 7 {
		s, err := HeteroKeyShareProb(pool, ring, 50, q)
		if err != nil {
			t.Fatal(err)
		}
		if s < prev {
			t.Fatalf("s decreased at ring %d: %v < %v", ring, s, prev)
		}
		prev = s
	}
}

func twoClasses(mu1 float64, k1, k2 int) []keys.Class {
	return []keys.Class{{Mu: mu1, RingSize: k1}, {Mu: 1 - mu1, RingSize: k2}}
}

// TestHeteroMeanEdgeProbs checks λ_i against a hand computation and the
// single-class reduction t = p·s of eq. (5).
func TestHeteroMeanEdgeProbs(t *testing.T) {
	const pool, q = 5000, 1
	classes := twoClasses(0.4, 20, 60)
	pOn := uniformOnProb(2, 0.5)
	lambda, err := HeteroMeanEdgeProbs(pool, q, classes, pOn)
	if err != nil {
		t.Fatal(err)
	}
	s11, _ := HeteroKeyShareProb(pool, 20, 20, q)
	s12, _ := HeteroKeyShareProb(pool, 20, 60, q)
	s22, _ := HeteroKeyShareProb(pool, 60, 60, q)
	want0 := 0.5 * (0.4*s11 + 0.6*s12)
	want1 := 0.5 * (0.4*s12 + 0.6*s22)
	if math.Abs(lambda[0]-want0) > 1e-15 || math.Abs(lambda[1]-want1) > 1e-15 {
		t.Errorf("lambda = %v, want [%v %v]", lambda, want0, want1)
	}
	if lambda[0] >= lambda[1] {
		t.Errorf("smaller-ring class should have smaller lambda: %v", lambda)
	}

	// Single class: λ must equal the uniform edge probability t(K,P,q,p).
	single, err := HeteroMeanEdgeProbs(pool, q, []keys.Class{{Mu: 1, RingSize: 40}}, uniformOnProb(1, 0.3))
	if err != nil {
		t.Fatal(err)
	}
	tUniform, err := EdgeProb(pool, 40, q, 0.3)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(single[0]-tUniform) > 1e-15 {
		t.Errorf("single-class lambda %v != uniform edge prob %v", single[0], tUniform)
	}
}

// TestHeteroBetaRoundTrip checks the scaling inversion and the limit's
// endpoints.
func TestHeteroBetaRoundTrip(t *testing.T) {
	const n = 1500
	for _, beta := range []float64{-3, -0.5, 0, 1.2, 4} {
		lambda := heteroLambdaForBeta(n, beta)
		back, err := HeteroBeta(n, lambda)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(back-beta) > 1e-9 {
			t.Errorf("beta round trip: %v -> %v", beta, back)
		}
	}
	if got := HeteroConnProbLimit(math.Inf(1)); got != 1 {
		t.Errorf("limit(+inf) = %v", got)
	}
	if got := HeteroConnProbLimit(math.Inf(-1)); got != 0 {
		t.Errorf("limit(-inf) = %v", got)
	}
	if got := HeteroConnProbLimit(0); math.Abs(got-math.Exp(-1)) > 1e-15 {
		t.Errorf("limit(0) = %v, want e^{-1}", got)
	}
}

// TestHeteroThresholdRingSize verifies the design rule: the returned ring
// size crosses ln n / n and its predecessor does not.
func TestHeteroThresholdRingSize(t *testing.T) {
	const (
		n    = 2000
		pool = 10000
		q    = 1
	)
	classes := twoClasses(0.5, 10, 80)
	pOn := uniformOnProb(2, 0.5)
	kStar, err := HeteroThresholdRingSize(n, pool, q, classes, pOn, 0)
	if err != nil {
		t.Fatal(err)
	}
	target := math.Log(float64(n)) / float64(n)
	at := func(ring int) float64 {
		cs := twoClasses(0.5, ring, 80)
		l, err := HeteroMinLambda(pool, q, cs, pOn)
		if err != nil {
			t.Fatal(err)
		}
		return l
	}
	if at(kStar) <= target {
		t.Errorf("K*=%d does not cross the threshold", kStar)
	}
	if kStar > q && at(kStar-1) > target {
		t.Errorf("K*-1=%d already crosses the threshold", kStar-1)
	}

	// Single-class reduction: must agree with the paper's eq. (9) K*.
	uniform, err := ThresholdRingSize(n, pool, 2, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	hetero, err := HeteroThresholdRingSize(n, pool, 2,
		[]keys.Class{{Mu: 1, RingSize: 2}}, uniformOnProb(1, 0.5), 0)
	if err != nil {
		t.Fatal(err)
	}
	if hetero != uniform {
		t.Errorf("single-class hetero K* = %d, uniform K* = %d", hetero, uniform)
	}
}

// TestHeteroValidation covers the error paths of the heterogeneous
// formulas.
func TestHeteroValidation(t *testing.T) {
	classes := twoClasses(0.5, 10, 20)
	if _, err := HeteroMeanEdgeProbs(100, 1, nil, nil); err == nil {
		t.Error("empty classes: want error")
	}
	if _, err := HeteroMeanEdgeProbs(100, 1, classes, uniformOnProb(3, 0.5)); err == nil {
		t.Error("matrix size mismatch: want error")
	}
	asym := uniformOnProb(2, 0.5)
	asym[0][1] = 0.9
	if _, err := HeteroMeanEdgeProbs(100, 1, classes, asym); err == nil {
		t.Error("asymmetric matrix: want error")
	}
	// Ragged matrix must error, not panic (regression).
	ragged := [][]float64{{0.5, 0.5}, {0.5}}
	if _, err := HeteroMeanEdgeProbs(100, 1, classes, ragged); err == nil {
		t.Error("ragged matrix: want error")
	}
	bad := uniformOnProb(2, 1.5)
	if _, err := HeteroMeanEdgeProbs(100, 1, classes, bad); err == nil {
		t.Error("probability out of range: want error")
	}
	if _, err := HeteroBeta(1, 0.5); err == nil {
		t.Error("n < 2: want error")
	}
	if _, err := HeteroThresholdRingSize(1000, 100, 1, classes, uniformOnProb(2, 0.5), 5); err == nil {
		t.Error("class index out of range: want error")
	}
	// Unreachable threshold: vanishing channel probability.
	if _, err := HeteroThresholdRingSize(1000, 100, 1, classes, uniformOnProb(2, 0), 0); err == nil {
		t.Error("unreachable threshold: want error")
	}
}

// uniformOnProb returns the classes×classes on-probability matrix with every
// entry p: the uniform on/off channel written in class form.
func uniformOnProb(classes int, p float64) [][]float64 {
	m := make([][]float64, classes)
	for i := range m {
		m[i] = make([]float64, classes)
		for j := range m[i] {
			m[i][j] = p
		}
	}
	return m
}

// heteroLambdaForBeta is the forward direction of the scaling HeteroBeta
// inverts: λ_min = (ln n + β)/n.
func heteroLambdaForBeta(n int, beta float64) float64 {
	return (math.Log(float64(n)) + beta) / float64(n)
}
