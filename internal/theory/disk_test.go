package theory

import (
	"math"
	"testing"

	"github.com/secure-wsn/qcomposite/internal/keys"
)

func TestDiskOnProb(t *testing.T) {
	if _, err := DiskOnProb(-0.1); err == nil {
		t.Error("negative radius: want error")
	}
	if _, err := DiskOnProb(math.NaN()); err == nil {
		t.Error("NaN radius: want error")
	}
	if _, err := DiskOnProb(math.Inf(1)); err == nil {
		t.Error("infinite radius: want error")
	}
	if p, err := DiskOnProb(0); err != nil || p != 0 {
		t.Errorf("DiskOnProb(0) = %v, %v, want 0", p, err)
	}
	if p, err := DiskOnProb(0.1); err != nil || math.Abs(p-math.Pi*0.01) > 1e-15 {
		t.Errorf("DiskOnProb(0.1) = %v, %v, want π/100", p, err)
	}
	// Beyond r = √2⁄2 the ball covers the whole torus.
	if p, err := DiskOnProb(2); err != nil || p != 1 {
		t.Errorf("DiskOnProb(2) = %v, %v, want 1", p, err)
	}
}

// TestDiskOnProbClippedRegime pins the exact torus marginal for r > ½: the
// clipped-ball area is continuous at both regime boundaries, strictly
// increasing, and matches the closed-form segment subtraction.
func TestDiskOnProbClippedRegime(t *testing.T) {
	at := func(r float64) float64 {
		t.Helper()
		p, err := DiskOnProb(r)
		if err != nil {
			t.Fatalf("DiskOnProb(%v): %v", r, err)
		}
		return p
	}
	// Continuity at r = ½ (π·r² regime ends) and r = √2⁄2 (full cover).
	if got, want := at(0.5), math.Pi/4; math.Abs(got-want) > 1e-12 {
		t.Errorf("DiskOnProb(0.5) = %v, want π/4", got)
	}
	if got := at(math.Sqrt2/2 - 1e-9); math.Abs(got-1) > 1e-6 {
		t.Errorf("DiskOnProb just below √2⁄2 = %v, want → 1", got)
	}
	// Interior of the clipped regime: π·r² − 4 segments, and strictly less
	// than the naive π·r² (the old min(1, π·r²) overstated this regime).
	r := 0.6
	seg := r*r*math.Acos(0.5/r) - 0.5*math.Sqrt(r*r-0.25)
	if got, want := at(r), math.Pi*r*r-4*seg; math.Abs(got-want) > 1e-12 {
		t.Errorf("DiskOnProb(0.6) = %v, want clipped area %v", got, want)
	}
	if at(r) >= math.Pi*r*r {
		t.Errorf("clipped marginal %v not below naive π·r² = %v", at(r), math.Pi*r*r)
	}
	// Monotone across the whole range.
	prev := -1.0
	for rr := 0.0; rr < 0.75; rr += 0.01 {
		p := at(rr)
		if p < prev {
			t.Fatalf("DiskOnProb not monotone at r=%v: %v < %v", rr, p, prev)
		}
		prev = p
	}
}

// TestDiskRadiusForOnProbRoundTrip pins the inverse on both regimes.
func TestDiskRadiusForOnProbRoundTrip(t *testing.T) {
	for _, p := range []float64{0, 0.1, math.Pi / 4, 0.9, 0.999, 1} {
		r, err := DiskRadiusForOnProb(p)
		if err != nil {
			t.Fatalf("DiskRadiusForOnProb(%v): %v", p, err)
		}
		back, err := DiskOnProb(r)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(back-p) > 1e-9 {
			t.Errorf("round trip p=%v: radius %v maps back to %v", p, r, back)
		}
	}
	if _, err := DiskRadiusForOnProb(-0.1); err == nil {
		t.Error("negative marginal: want error")
	}
	if _, err := DiskRadiusForOnProb(1.5); err == nil {
		t.Error("marginal above 1: want error")
	}
}

// TestDiskEdgeProbMatchesOnOffEquivalent pins the comparison device: the
// disk-equivalent edge probability is exactly the eq. (5) edge probability
// at p = π·r².
func TestDiskEdgeProbMatchesOnOffEquivalent(t *testing.T) {
	const (
		pool = 10000
		ring = 41
		q    = 2
	)
	for _, r := range []float64{0, 0.05, 0.2, 0.4} {
		got, err := DiskEdgeProb(pool, ring, q, r)
		if err != nil {
			t.Fatalf("radius %v: %v", r, err)
		}
		p, err := DiskOnProb(r)
		if err != nil {
			t.Fatal(err)
		}
		want, err := EdgeProb(pool, ring, q, p)
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Errorf("radius %v: DiskEdgeProb = %v, EdgeProb(π·r²) = %v", r, got, want)
		}
	}
}

// TestDiskKConnProbabilityEndpoints checks the overlay behaves as a zero–one
// transition in the radius: a vanishing radius predicts disconnection, a
// generous one predicts k-connectivity.
func TestDiskKConnProbabilityEndpoints(t *testing.T) {
	const (
		n    = 1000
		pool = 10000
		ring = 41
		q    = 2
	)
	lo, err := DiskKConnProbability(n, pool, ring, q, 0.01, 1)
	if err != nil {
		t.Fatal(err)
	}
	hi, err := DiskKConnProbability(n, pool, 60, q, 0.45, 1)
	if err != nil {
		t.Fatal(err)
	}
	if lo > 1e-6 {
		t.Errorf("tiny radius: predicted P[connected] = %v, want ≈ 0", lo)
	}
	if hi < 0.99 {
		t.Errorf("large radius: predicted P[connected] = %v, want ≈ 1", hi)
	}
	if _, err := DiskKConnProbability(n, pool, ring, q, -1, 1); err == nil {
		t.Error("negative radius: want error")
	}
}

// TestHeteroKConnBetaReducesToHeteroBeta pins the k = 1 identity and the
// (k−1)·ln ln n shift at higher levels.
func TestHeteroKConnBetaReducesToHeteroBeta(t *testing.T) {
	const n = 500
	lambda := 0.016
	b1, err := HeteroKConnBeta(n, lambda, 1)
	if err != nil {
		t.Fatal(err)
	}
	want, err := HeteroBeta(n, lambda)
	if err != nil {
		t.Fatal(err)
	}
	if b1 != want {
		t.Errorf("k=1: HeteroKConnBeta = %v, HeteroBeta = %v", b1, want)
	}
	b2, err := HeteroKConnBeta(n, lambda, 2)
	if err != nil {
		t.Fatal(err)
	}
	shift := math.Log(math.Log(float64(n)))
	if math.Abs((b1-b2)-shift) > 1e-12 {
		t.Errorf("k=2 shift = %v, want ln ln n = %v", b1-b2, shift)
	}
	if _, err := HeteroKConnBeta(n, lambda, 0); err == nil {
		t.Error("k=0: want error")
	}
	if _, err := HeteroKConnBeta(2, lambda, 2); err == nil {
		t.Error("n=2 at k=2: want error (ln ln n undefined)")
	}
}

// TestHeteroKConnProbLimit pins the limit's endpoints, its k = 1 identity
// with HeteroConnProbLimit, and monotonicity in k at fixed β (higher k is a
// stronger property).
func TestHeteroKConnProbLimit(t *testing.T) {
	if _, err := HeteroKConnProbLimit(0, 0); err == nil {
		t.Error("k=0: want error")
	}
	for _, k := range []int{1, 2, 3} {
		if p, err := HeteroKConnProbLimit(math.Inf(1), k); err != nil || p != 1 {
			t.Errorf("β=+∞, k=%d: %v, %v, want 1", k, p, err)
		}
		if p, err := HeteroKConnProbLimit(math.Inf(-1), k); err != nil || p != 0 {
			t.Errorf("β=−∞, k=%d: %v, %v, want 0", k, p, err)
		}
	}
	p1, err := HeteroKConnProbLimit(1.3, 1)
	if err != nil {
		t.Fatal(err)
	}
	if want := HeteroConnProbLimit(1.3); p1 != want {
		t.Errorf("k=1 limit %v != HeteroConnProbLimit %v", p1, want)
	}
	// At fixed β the (k−1)! division RAISES the limit for larger k; the
	// strength ordering lives in β's (k−1)·ln ln n shift, pinned below via
	// the composed probability.
	classes := []keys.Class{{Mu: 0.4, RingSize: 20}, {Mu: 0.6, RingSize: 80}}
	pOn := uniformOnProb(2, 0.6)
	var prev float64 = 1
	for k := 1; k <= 3; k++ {
		p, err := HeteroKConnProbability(800, 5000, 1, classes, pOn, k)
		if err != nil {
			t.Fatal(err)
		}
		if p < 0 || p > 1 {
			t.Errorf("k=%d probability %v outside [0,1]", k, p)
		}
		if p > prev+1e-12 {
			t.Errorf("k=%d probability %v exceeds k=%d probability %v (k-connectivity is monotone)", k, p, k-1, prev)
		}
		prev = p
	}
}
