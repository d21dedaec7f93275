// Package theory implements the paper's analytical results in closed form:
//
//   - the exact link probabilities of the q-composite scheme under on/off
//     channels — s(K,P,q) from eqs. (3)–(4) and t = p·s from eq. (5);
//   - their asymptotic forms (Lemma 2);
//   - the deviation sequence α_n defined through eq. (6) and the asymptotic
//     k-connectivity probability exp(−e^{−α}/(k−1)!) of Theorem 1 (which is
//     also Lemma 7's Erdős–Rényi law and Lemma 8's minimum-degree law);
//   - the Poisson law for the number of fixed-degree nodes (Lemma 9);
//   - the design rules: the paper's eq. (9) connectivity threshold K*, and
//     the inverse problem "smallest key ring K achieving a target
//     k-connectivity probability";
//   - the coupling parameters x_n, y_n, z_n of Lemmas 3–6.
//
// Everything is deterministic, allocation-free, and validated in tests
// against the paper's published numbers (K* = 35, 41, 52, 60, 67, 78 for the
// six curves of Figure 1).
package theory

import (
	"fmt"
	"math"

	"github.com/secure-wsn/qcomposite/internal/combin"
)

// KeyShareProb returns s(K, P, q): the probability that two sensors with
// independent uniform K-subsets of a P-key pool share at least q keys
// (eqs. (3)–(4)). It errors when K < 0 or K > P.
func KeyShareProb(pool, ring, q int) (float64, error) {
	s, err := combin.HypergeomTail(pool, ring, q)
	if err != nil {
		return 0, fmt.Errorf("theory: key share probability: %w", err)
	}
	return s, nil
}

// KeyShareProbAsymptotic returns the Lemma 2 approximation
// s(K,P,q) ≈ (K²/P)^q / q!, accurate when K = ω(1) and K²/P = o(1).
func KeyShareProbAsymptotic(pool, ring, q int) float64 {
	if pool <= 0 || q < 0 {
		return 0
	}
	ratio := float64(ring) * float64(ring) / float64(pool)
	return math.Pow(ratio, float64(q)) / combin.Factorial(q)
}

// EdgeProb returns t(K, P, q, p) = p · s(K, P, q): the probability that two
// distinct sensors have a secure, usable link in G_{n,q} (eq. (5)). The
// channel-on probability p must lie in [0, 1].
func EdgeProb(pool, ring, q int, pOn float64) (float64, error) {
	if pOn < 0 || pOn > 1 {
		return 0, fmt.Errorf("theory: channel-on probability %v outside [0,1]", pOn)
	}
	s, err := KeyShareProb(pool, ring, q)
	if err != nil {
		return 0, err
	}
	return pOn * s, nil
}

// Alpha inverts eq. (6): given the edge probability t and target level k it
// returns α_n = n·t − ln n − (k−1)·ln ln n. It requires n ≥ 3 (so that
// ln ln n is defined) and k ≥ 1.
func Alpha(n int, t float64, k int) (float64, error) {
	if n < 3 {
		return 0, fmt.Errorf("theory: alpha needs n ≥ 3, got %d", n)
	}
	if k < 1 {
		return 0, fmt.Errorf("theory: alpha needs k ≥ 1, got %d", k)
	}
	logN := math.Log(float64(n))
	return float64(n)*t - logN - float64(k-1)*math.Log(logN), nil
}

// EdgeProbForAlpha is the forward direction of eq. (6):
// t = (ln n + (k−1) ln ln n + α)/n.
func EdgeProbForAlpha(n int, alpha float64, k int) (float64, error) {
	if n < 3 {
		return 0, fmt.Errorf("theory: edge probability needs n ≥ 3, got %d", n)
	}
	if k < 1 {
		return 0, fmt.Errorf("theory: edge probability needs k ≥ 1, got %d", k)
	}
	logN := math.Log(float64(n))
	return (logN + float64(k-1)*math.Log(logN) + alpha) / float64(n), nil
}

// KConnProbLimit returns the Theorem 1 limit exp(−e^{−α}/(k−1)!) for the
// probability of k-connectivity (eq. (7)). α = ±Inf give the zero–one law
// endpoints 0 and 1 (eqs. (8b)–(8c)). k must be ≥ 1.
//
// The same expression is the k-connectivity law of Erdős–Rényi graphs
// (Lemma 7) and the minimum-degree law of G_{n,q} (Lemma 8).
func KConnProbLimit(alpha float64, k int) (float64, error) {
	if k < 1 {
		return 0, fmt.Errorf("theory: k-connectivity limit needs k ≥ 1, got %d", k)
	}
	if math.IsInf(alpha, 1) {
		return 1, nil
	}
	if math.IsInf(alpha, -1) {
		return 0, nil
	}
	return math.Exp(-math.Exp(-alpha) / combin.Factorial(k-1)), nil
}

// KConnProbability composes eqs. (5)–(7): the asymptotic probability that
// G_{n,q}(n, K, P, p) is k-connected for the given finite parameters.
func KConnProbability(n, pool, ring, q int, pOn float64, k int) (float64, error) {
	t, err := EdgeProb(pool, ring, q, pOn)
	if err != nil {
		return 0, err
	}
	alpha, err := Alpha(n, t, k)
	if err != nil {
		return 0, err
	}
	return KConnProbLimit(alpha, k)
}

// MinDegreeProbLimit returns Lemma 8's limit for
// P[minimum degree ≥ k] — identical to the k-connectivity limit.
func MinDegreeProbLimit(alpha float64, k int) (float64, error) {
	return KConnProbLimit(alpha, k)
}

// PoissonNodeCountMean returns λ_{n,h} = n·(h!)^{−1}·(n·t)^h·e^{−n·t}, the
// asymptotic Poisson mean for the number of degree-h nodes in G_{n,q}
// (Lemma 9). h must be ≥ 0.
func PoissonNodeCountMean(n int, t float64, h int) (float64, error) {
	if h < 0 {
		return 0, fmt.Errorf("theory: degree h must be ≥ 0, got %d", h)
	}
	nt := float64(n) * t
	// Work in logs to survive large n·t.
	logLambda := math.Log(float64(n)) - combin.LogFactorial(h) +
		float64(h)*math.Log(nt) - nt
	return math.Exp(logLambda), nil
}

// ExpectedDegree returns (n−1)·t, the mean node degree of G_{n,q}.
func ExpectedDegree(n int, t float64) float64 {
	if n < 1 {
		return 0
	}
	return float64(n-1) * t
}

// ThresholdRingSize returns the paper's eq. (9) design rule: the minimum
// integer K* with t(K*, P, q, p) > ln n / n, i.e. the smallest key ring
// size that puts the secure WSN above the connectivity threshold.
// It errors when no K ≤ P satisfies the inequality.
func ThresholdRingSize(n, pool, q int, pOn float64) (int, error) {
	if n < 2 {
		return 0, fmt.Errorf("theory: threshold needs n ≥ 2, got %d", n)
	}
	target := math.Log(float64(n)) / float64(n)
	k, err := minRingSizeForEdgeProb(pool, q, pOn, target, true)
	if err != nil {
		return 0, fmt.Errorf("theory: connectivity threshold: %w", err)
	}
	return k, nil
}

// ThresholdRingSizeAsymptotic solves eq. (9) with s replaced by its Lemma 2
// asymptotic (K²/P)^q/q!: the smallest K with p·(K²/P)^q/q! > ln n / n.
//
// The paper's published K* values (35, 41, 52, 60, 67, 78 for Figure 1)
// track this asymptotic computation — it reproduces the q = 2 row exactly
// and the q = 3 row within +1 — whereas evaluating the exact sum of eq. (5)
// as the text prescribes yields slightly larger thresholds (see
// ThresholdRingSize and EXPERIMENTS.md): at K ≈ 35–88 and P = 10⁴ the
// quantity K²/P is 0.1–0.6, not yet "small", and the asymptotic
// overestimates s.
func ThresholdRingSizeAsymptotic(n, pool, q int, pOn float64) (int, error) {
	if n < 2 {
		return 0, fmt.Errorf("theory: threshold needs n ≥ 2, got %d", n)
	}
	if pool < 1 {
		return 0, fmt.Errorf("theory: pool size %d must be positive", pool)
	}
	if pOn <= 0 {
		return 0, fmt.Errorf("theory: channel-on probability %v must be positive", pOn)
	}
	if q < 1 {
		return 0, fmt.Errorf("theory: q must be ≥ 1, got %d", q)
	}
	target := math.Log(float64(n)) / float64(n)
	// Invert p·(K²/P)^q/q! > target in closed form, then fix up rounding.
	k2 := float64(pool) * math.Pow(target*combin.Factorial(q)/pOn, 1/float64(q))
	k := int(math.Floor(math.Sqrt(k2)))
	for ; k <= pool+1; k++ {
		if pOn*KeyShareProbAsymptotic(pool, k, q) > target {
			return k, nil
		}
	}
	return 0, fmt.Errorf("theory: no asymptotic threshold ring size up to pool %d", pool)
}

// RingSizeForEdgeProb returns the minimum K with t(K,P,q,p) ≥ target.
func RingSizeForEdgeProb(pool, q int, pOn, target float64) (int, error) {
	return minRingSizeForEdgeProb(pool, q, pOn, target, false)
}

// minRingSizeForEdgeProb binary-searches the smallest K whose edge
// probability exceeds (strict=true) or reaches (strict=false) the target.
// t(K, P, q, p) is non-decreasing in K, which makes the search valid; the
// monotonicity is itself verified by property tests.
func minRingSizeForEdgeProb(pool, q int, pOn, target float64, strict bool) (int, error) {
	if pool < 1 {
		return 0, fmt.Errorf("pool size %d must be positive", pool)
	}
	if pOn <= 0 {
		return 0, fmt.Errorf("channel-on probability %v must be positive", pOn)
	}
	ok := func(k int) (bool, error) {
		t, err := EdgeProb(pool, k, q, pOn)
		if err != nil {
			return false, err
		}
		if strict {
			return t > target, nil
		}
		return t >= target, nil
	}
	hit, err := ok(pool)
	if err != nil {
		return 0, err
	}
	if !hit {
		return 0, fmt.Errorf("no ring size up to pool %d reaches edge probability %v", pool, target)
	}
	lo, hi := 0, pool // invariant: !ok(lo), ok(hi)
	if hit0, err := ok(0); err != nil {
		return 0, err
	} else if hit0 {
		return 0, nil
	}
	for hi-lo > 1 {
		mid := (lo + hi) / 2
		hitMid, err := ok(mid)
		if err != nil {
			return 0, err
		}
		if hitMid {
			hi = mid
		} else {
			lo = mid
		}
	}
	return hi, nil
}

// PoolSizeForKeyShareProb returns the largest pool size P with
// s(K, P, q) ≥ target — the dual design rule used when comparing schemes at
// matched link probability (Chan et al.'s resilience methodology: to compare
// q = 1, 2, 3 fairly, each scheme's pool is sized so all have the same
// probability of two sensors sharing enough keys). s(K, P, q) is
// non-increasing in P, which makes the binary search valid.
func PoolSizeForKeyShareProb(ring, q int, target float64) (int, error) {
	if q < 1 || ring < q {
		return 0, fmt.Errorf("theory: invalid scheme parameters ring=%d q=%d", ring, q)
	}
	if target <= 0 || target > 1 {
		return 0, fmt.Errorf("theory: target share probability %v must be in (0,1]", target)
	}
	ok := func(pool int) (bool, error) {
		s, err := KeyShareProb(pool, ring, q)
		if err != nil {
			return false, err
		}
		return s >= target, nil
	}
	// At P = ring the overlap is full: s = 1 ≥ target. Grow an upper bound
	// where the target fails, giving up past 2^40 (or, where int is 32 bits,
	// before doubling would overflow it).
	const maxPoolBound = min(1<<40, math.MaxInt/2)
	hi := ring * 2
	for {
		hit, err := ok(hi)
		if err != nil {
			return 0, err
		}
		if !hit {
			break
		}
		if hi > maxPoolBound {
			return 0, fmt.Errorf("theory: pool size for target %v diverges", target)
		}
		hi *= 2
	}
	lo := ring // invariant: ok(lo), !ok(hi)
	for hi-lo > 1 {
		mid := lo + (hi-lo)/2
		hit, err := ok(mid)
		if err != nil {
			return 0, err
		}
		if hit {
			lo = mid
		} else {
			hi = mid
		}
	}
	return lo, nil
}

// AlphaForTarget inverts the Theorem 1 limit: the α* with
// exp(−e^{−α*}/(k−1)!) = target, i.e. α* = −ln(−(k−1)!·ln target).
// target must lie strictly in (0, 1).
func AlphaForTarget(k int, target float64) (float64, error) {
	if k < 1 {
		return 0, fmt.Errorf("theory: alpha target needs k ≥ 1, got %d", k)
	}
	if target <= 0 || target >= 1 {
		return 0, fmt.Errorf("theory: target probability %v must be in (0,1)", target)
	}
	return -math.Log(-combin.Factorial(k-1) * math.Log(target)), nil
}

// DesignRingSize returns the smallest key ring size K whose asymptotic
// k-connectivity probability (Theorem 1 applied at finite n) reaches the
// target — the "precise design guideline" the paper motivates: sensors have
// little memory, so K should be as small as the theory allows.
func DesignRingSize(n, pool, q int, pOn float64, k int, target float64) (int, error) {
	alphaStar, err := AlphaForTarget(k, target)
	if err != nil {
		return 0, err
	}
	tStar, err := EdgeProbForAlpha(n, alphaStar, k)
	if err != nil {
		return 0, err
	}
	ring, err := RingSizeForEdgeProb(pool, q, pOn, tStar)
	if err != nil {
		return 0, fmt.Errorf("theory: design ring size: %w", err)
	}
	return ring, nil
}

// CouplingX returns x_n = (K/P)·(1 − sqrt(3·ln n / K)), the binomial
// q-intersection probability of Lemma 5 (eq. (66)) under which
// H_q(n, x_n, P) ⊑ G_q(n, K, P) holds w.h.p. Negative values (K too small
// for the coupling regime) are clamped to 0.
func CouplingX(n, pool, ring int) float64 {
	if pool <= 0 || ring <= 0 || n < 2 {
		return 0
	}
	x := float64(ring) / float64(pool) *
		(1 - math.Sqrt(3*math.Log(float64(n))/float64(ring)))
	if x < 0 {
		return 0
	}
	return x
}

// CouplingY returns the Lemma 6 (eq. (72)) Erdős–Rényi edge probability
// y_n = (P·x²)^q / q! under which G(n, y_n) ⊑ H_q(n, x, P) holds w.h.p.
func CouplingY(pool int, x float64, q int) float64 {
	if pool <= 0 || x <= 0 || q < 1 {
		return 0
	}
	return math.Pow(float64(pool)*x*x, float64(q)) / combin.Factorial(q)
}

// CouplingZ returns z_n = y_n·p, the Erdős–Rényi edge probability of
// Lemma 3 (eq. (58)): G(n, z_n) ⊑ G_{n,q}(n, K, P, p) w.h.p.
func CouplingZ(n, pool, ring, q int, pOn float64) float64 {
	return CouplingY(pool, CouplingX(n, pool, ring), q) * pOn
}
