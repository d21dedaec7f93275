// Package combin provides the combinatorial and special-function kernel used
// by the analytical results of the paper: log-gamma based binomial
// coefficients, the hypergeometric distribution (the law of |S_i ∩ S_j| for
// two random key rings, eq. (4) of the paper), and factorials.
//
// All floating-point computations are carried out in log space so that the
// huge binomials arising from realistic pool sizes (P ~ 10^4..10^6) never
// overflow.
package combin

import (
	"fmt"
	"math"
)

// LogFactorial returns ln(n!) computed via the log-gamma function.
// It panics for negative n (programmer error).
func LogFactorial(n int) float64 {
	if n < 0 {
		panic(fmt.Sprintf("combin: LogFactorial of negative %d", n))
	}
	lg, _ := math.Lgamma(float64(n) + 1)
	return lg
}

// Factorial returns n! as a float64, +Inf on overflow (n > 170).
func Factorial(n int) float64 {
	return math.Exp(LogFactorial(n))
}

// LogBinomial returns ln C(n, k). It returns -Inf when the coefficient is
// zero (k < 0 or k > n), matching the convention C(n,k) = 0 there.
// n must be non-negative.
func LogBinomial(n, k int) float64 {
	if n < 0 {
		panic(fmt.Sprintf("combin: LogBinomial with negative n = %d", n))
	}
	if k < 0 || k > n {
		return math.Inf(-1)
	}
	return LogFactorial(n) - LogFactorial(k) - LogFactorial(n-k)
}

// HypergeomLogPMF returns ln P[X = u] where X is the size of the overlap
// between two independent uniform K-subsets of a P-element universe:
//
//	P[X = u] = C(K,u)·C(P−K, K−u) / C(P,K)
//
// This is eq. (4) of the paper. It returns -Inf when the outcome u is
// impossible. It reports an error for invalid parameters (K < 0, P < K).
func HypergeomLogPMF(pool, ring, u int) (float64, error) {
	return HypergeomLogPMF2(pool, ring, ring, u)
}

// HypergeomLogPMF2 generalises HypergeomLogPMF to rings of unequal sizes —
// the overlap law of the heterogeneous key predistribution scheme, where a
// class-i and a class-j sensor draw K_i- and K_j-subsets of the same pool:
//
//	P[X = u] = C(K₁,u)·C(P−K₁, K₂−u) / C(P,K₂)
func HypergeomLogPMF2(pool, ring1, ring2, u int) (float64, error) {
	if ring1 < 0 || ring2 < 0 || pool < ring1 || pool < ring2 {
		return 0, fmt.Errorf("combin: invalid hypergeometric parameters pool=%d rings=%d,%d", pool, ring1, ring2)
	}
	if u < 0 || u > ring1 || u > ring2 || ring2-u > pool-ring1 {
		return math.Inf(-1), nil
	}
	return LogBinomial(ring1, u) +
		LogBinomial(pool-ring1, ring2-u) -
		LogBinomial(pool, ring2), nil
}

// HypergeomPMF returns P[X = u] for the overlap distribution of eq. (4).
func HypergeomPMF(pool, ring, u int) (float64, error) {
	lp, err := HypergeomLogPMF(pool, ring, u)
	if err != nil {
		return 0, err
	}
	return math.Exp(lp), nil
}

// HypergeomPMF2 returns P[X = u] for the unequal-ring overlap distribution.
func HypergeomPMF2(pool, ring1, ring2, u int) (float64, error) {
	lp, err := HypergeomLogPMF2(pool, ring1, ring2, u)
	if err != nil {
		return 0, err
	}
	return math.Exp(lp), nil
}

// HypergeomTail returns P[X ≥ q] — the probability that two independent
// uniform K-subsets of a P-element pool share at least q elements. This is
// exactly s(K, P, q) from eqs. (3)–(4) of the paper.
//
// Numerics: the mean overlap is K²/P. In the dense regime (mean ≥ q) the
// tail is computed as 1 − P[X < q], a sum of at most q accurately evaluated
// terms, which keeps the result monotone in K to near machine precision even
// when s ≈ 1. In the sparse regime (mean < q) — the one the paper's
// conditions enforce — the tail is summed directly from u = q upward, where
// the pmf decays super-geometrically, stopping once further terms cannot
// move the sum at double precision.
func HypergeomTail(pool, ring, q int) (float64, error) {
	return HypergeomTail2(pool, ring, ring, q)
}

// HypergeomTail2 generalises HypergeomTail to rings of unequal sizes: the
// probability that a K₁-subset and an independent K₂-subset of a P-element
// pool share at least q elements — s(K₁, K₂, P, q) of the heterogeneous
// scheme (Eletreby–Yağan). The same dense/sparse regime split as
// HypergeomTail keeps both ends accurate.
func HypergeomTail2(pool, ring1, ring2, q int) (float64, error) {
	if ring1 < 0 || ring2 < 0 || pool < ring1 || pool < ring2 {
		return 0, fmt.Errorf("combin: invalid hypergeometric parameters pool=%d rings=%d,%d", pool, ring1, ring2)
	}
	if q <= 0 {
		return 1, nil
	}
	maxOverlap := ring1
	if ring2 < maxOverlap {
		maxOverlap = ring2
	}
	if q > maxOverlap {
		// The overlap can never exceed the smaller ring.
		return 0, nil
	}
	lo := 0
	if min := ring1 + ring2 - pool; lo < min {
		lo = min // overlap cannot be smaller than K₁+K₂−P
	}
	if HypergeomMean2(pool, ring1, ring2) >= float64(q) {
		// Dense regime: complement of the short head sum.
		head := 0.0
		for u := lo; u < q; u++ {
			p, err := HypergeomPMF2(pool, ring1, ring2, u)
			if err != nil {
				return 0, err
			}
			head += p
		}
		s := 1 - head
		if s < 0 {
			s = 0
		}
		return s, nil
	}
	// Sparse regime: direct tail sum with early exit past the mode.
	sum := 0.0
	for u := q; u <= maxOverlap; u++ {
		p, err := HypergeomPMF2(pool, ring1, ring2, u)
		if err != nil {
			return 0, err
		}
		sum += p
		if p > 0 && p < sum*1e-18 {
			break
		}
	}
	if sum > 1 {
		sum = 1 // guard against accumulated rounding slightly above 1
	}
	return sum, nil
}

// HypergeomMean2 returns E[X] = K₁·K₂/P for the unequal-ring overlap.
func HypergeomMean2(pool, ring1, ring2 int) float64 {
	if pool <= 0 {
		return 0
	}
	return float64(ring1) * float64(ring2) / float64(pool)
}
