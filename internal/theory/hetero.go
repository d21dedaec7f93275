package theory

import (
	"fmt"
	"math"

	"github.com/secure-wsn/qcomposite/internal/combin"
	"github.com/secure-wsn/qcomposite/internal/keys"
)

// Heterogeneous connectivity theory, after Eletreby and Yağan:
//
//   - "Connectivity of wireless sensor networks secured by heterogeneous key
//     predistribution under an on/off channel model" (arXiv:1604.00460):
//     sensors belong to class i with probability μ_i and draw K_i keys; the
//     class-pair secure-link probabilities are t_ij = α·s(K_i, K_j, P, q)
//     and the connectivity threshold is driven by λ_min, the smallest
//     per-class mean edge probability — scale λ_min = (ln n + β_n)/n and the
//     network is connected w.h.p. iff β_n → ∞ (Theorem 1's zero–one law).
//   - "Secure connectivity of heterogeneous wireless sensor networks under a
//     heterogeneous on/off channel model" (arXiv:1908.09826): the channel-on
//     probability becomes the class-pair matrix α_ij; the same scaling holds
//     with t_ij = α_ij·s_ij.
//
// The functions below compute those quantities exactly for finite
// parameters; the exp(−e^{−β}) limit is the Poisson law for isolated
// minimal-class sensors, whose ±∞ endpoints recover the zero–one law.

// HeteroKeyShareProb returns s(K₁, K₂, P, q): the probability that two
// sensors drawing independent uniform K₁- and K₂-subsets of a P-key pool
// share at least q keys — the unequal-ring generalisation of eqs. (3)–(4).
func HeteroKeyShareProb(pool, ring1, ring2, q int) (float64, error) {
	s, err := combin.HypergeomTail2(pool, ring1, ring2, q)
	if err != nil {
		return 0, fmt.Errorf("theory: heterogeneous key share probability: %w", err)
	}
	return s, nil
}

// validateHetero checks the shared preconditions of the heterogeneous
// formulas: a non-empty class list and a square symmetric on-probability
// matrix over the same classes with entries in [0, 1]. It mirrors
// channel.HeterOnOff.Validate (the matrix is that channel model), which
// theory cannot import — keep the two in sync.
func validateHetero(classes []keys.Class, pOn [][]float64) error {
	if len(classes) == 0 {
		return fmt.Errorf("theory: heterogeneous model needs at least one class")
	}
	if len(pOn) != len(classes) {
		return fmt.Errorf("theory: on-probability matrix has %d rows for %d classes", len(pOn), len(classes))
	}
	// Row lengths first: the symmetry check below reads across rows, so a
	// ragged matrix must fail here, not panic there.
	for i, row := range pOn {
		if len(row) != len(classes) {
			return fmt.Errorf("theory: on-probability matrix row %d has %d entries, want %d", i, len(row), len(classes))
		}
	}
	for i, row := range pOn {
		for j, p := range row {
			if math.IsNaN(p) || p < 0 || p > 1 {
				return fmt.Errorf("theory: on probability [%d][%d]=%v outside [0,1]", i, j, p)
			}
			if pOn[j][i] != p {
				return fmt.Errorf("theory: on-probability matrix asymmetric at (%d,%d)", i, j)
			}
		}
	}
	return nil
}

// HeteroEdgeProbs returns the class-pair secure-link probability matrix
// t_ij = α_ij · s(K_i, K_j, P, q): the probability that a class-i and a
// class-j sensor have a secure, usable link.
func HeteroEdgeProbs(pool, q int, classes []keys.Class, pOn [][]float64) ([][]float64, error) {
	if err := validateHetero(classes, pOn); err != nil {
		return nil, err
	}
	t := make([][]float64, len(classes))
	for i := range classes {
		t[i] = make([]float64, len(classes))
	}
	for i := range classes {
		for j := i; j < len(classes); j++ {
			s, err := HeteroKeyShareProb(pool, classes[i].RingSize, classes[j].RingSize, q)
			if err != nil {
				return nil, err
			}
			t[i][j] = pOn[i][j] * s
			t[j][i] = t[i][j]
		}
	}
	return t, nil
}

// HeteroMeanEdgeProbs returns λ_i = Σ_j μ_j·t_ij: the mean edge probability
// of a class-i sensor toward a uniformly random peer. The smallest entry
// drives the connectivity threshold (the minimal class is the bottleneck of
// Eletreby–Yağan Theorem 1).
func HeteroMeanEdgeProbs(pool, q int, classes []keys.Class, pOn [][]float64) ([]float64, error) {
	t, err := HeteroEdgeProbs(pool, q, classes, pOn)
	if err != nil {
		return nil, err
	}
	lambda := make([]float64, len(classes))
	for i := range classes {
		for j, c := range classes {
			lambda[i] += c.Mu * t[i][j]
		}
	}
	return lambda, nil
}

// HeteroMinLambda returns min_i λ_i, the scaling quantity of the
// heterogeneous zero–one law.
func HeteroMinLambda(pool, q int, classes []keys.Class, pOn [][]float64) (float64, error) {
	lambda, err := HeteroMeanEdgeProbs(pool, q, classes, pOn)
	if err != nil {
		return 0, err
	}
	min := lambda[0]
	for _, l := range lambda[1:] {
		if l < min {
			min = l
		}
	}
	return min, nil
}

// HeteroBeta inverts the Theorem 1 scaling λ_min = (ln n + β_n)/n:
// β_n = n·λ_min − ln n. It requires n ≥ 2.
func HeteroBeta(n int, lambdaMin float64) (float64, error) {
	if n < 2 {
		return 0, fmt.Errorf("theory: heterogeneous beta needs n ≥ 2, got %d", n)
	}
	return float64(n)*lambdaMin - math.Log(float64(n)), nil
}

// HeteroConnProbLimit returns exp(−e^{−β}), the Poisson limit for the
// probability that no minimal-class sensor is isolated. Its β → ±∞
// endpoints 0 and 1 are exactly the zero–one law of Eletreby–Yağan
// Theorem 1; at finite β it is the smooth transition curve the simulations
// trace (the heterogeneous analogue of eq. (7) at k = 1).
func HeteroConnProbLimit(beta float64) float64 {
	if math.IsInf(beta, 1) {
		return 1
	}
	if math.IsInf(beta, -1) {
		return 0
	}
	return math.Exp(-math.Exp(-beta))
}

// HeteroKConnBeta inverts the k-connectivity scaling of the heterogeneous
// model (Eletreby–Yağan, arXiv:1604.00460 §IV): with
// λ_min = (ln n + (k−1)·ln ln n + β_n)/n, it returns
// β_n = n·λ_min − ln n − (k−1)·ln ln n. k = 1 recovers HeteroBeta. It
// requires n ≥ 3 (so ln ln n is defined; n ≥ 2 suffices at k = 1) and
// k ≥ 1.
func HeteroKConnBeta(n int, lambdaMin float64, k int) (float64, error) {
	if k < 1 {
		return 0, fmt.Errorf("theory: heterogeneous k-connectivity beta needs k ≥ 1, got %d", k)
	}
	if k == 1 {
		return HeteroBeta(n, lambdaMin)
	}
	if n < 3 {
		return 0, fmt.Errorf("theory: heterogeneous k-connectivity beta needs n ≥ 3, got %d", n)
	}
	logN := math.Log(float64(n))
	return float64(n)*lambdaMin - logN - float64(k-1)*math.Log(logN), nil
}

// HeteroKConnProbLimit returns exp(−e^{−β}/(k−1)!), the k-connectivity
// analogue of HeteroConnProbLimit: the Poisson limit for the probability
// that no minimal-class sensor has degree below k, whose β → ±∞ endpoints
// are the heterogeneous zero–one law at level k (the §IV generalisation of
// Theorem 1; at k = 1 it is exactly HeteroConnProbLimit). k must be ≥ 1.
func HeteroKConnProbLimit(beta float64, k int) (float64, error) {
	if k < 1 {
		return 0, fmt.Errorf("theory: heterogeneous k-connectivity limit needs k ≥ 1, got %d", k)
	}
	if math.IsInf(beta, 1) {
		return 1, nil
	}
	if math.IsInf(beta, -1) {
		return 0, nil
	}
	return math.Exp(-math.Exp(-beta) / combin.Factorial(k-1)), nil
}

// HeteroKConnProbability composes the finite-parameter k-connectivity
// pipeline: class-pair edge probabilities → minimal mean λ → level-k
// deviation β → the asymptotic k-connectivity probability. It is the theory
// overlay of the heterogeneous k-connectivity cross sweep (cmd/hetero
// -kconn).
func HeteroKConnProbability(n, pool, q int, classes []keys.Class, pOn [][]float64, k int) (float64, error) {
	lambdaMin, err := HeteroMinLambda(pool, q, classes, pOn)
	if err != nil {
		return 0, err
	}
	beta, err := HeteroKConnBeta(n, lambdaMin, k)
	if err != nil {
		return 0, err
	}
	return HeteroKConnProbLimit(beta, k)
}

// HeteroConnProbability composes the finite-parameter pipeline: class-pair
// edge probabilities → minimal mean λ → deviation β → the asymptotic
// connectivity probability.
func HeteroConnProbability(n, pool, q int, classes []keys.Class, pOn [][]float64) (float64, error) {
	lambdaMin, err := HeteroMinLambda(pool, q, classes, pOn)
	if err != nil {
		return 0, err
	}
	beta, err := HeteroBeta(n, lambdaMin)
	if err != nil {
		return 0, err
	}
	return HeteroConnProbLimit(beta), nil
}

// HeteroThresholdRingSize is the connectivity-threshold design rule for the
// heterogeneous scheme: the smallest ring size for class idx such that the
// mixture's minimal mean edge probability λ_min exceeds ln n / n (the
// heterogeneous analogue of the paper's eq. (9); growing any class's ring
// cannot decrease λ_min, which makes the binary search valid). It errors
// when no ring size up to the pool reaches the threshold.
func HeteroThresholdRingSize(n, pool, q int, classes []keys.Class, pOn [][]float64, idx int) (int, error) {
	if n < 2 {
		return 0, fmt.Errorf("theory: threshold needs n ≥ 2, got %d", n)
	}
	if q < 1 {
		return 0, fmt.Errorf("theory: q must be ≥ 1, got %d", q)
	}
	if idx < 0 || idx >= len(classes) {
		return 0, fmt.Errorf("theory: class index %d out of range [0,%d)", idx, len(classes))
	}
	if err := validateHetero(classes, pOn); err != nil {
		return 0, err
	}
	target := math.Log(float64(n)) / float64(n)
	trial := append([]keys.Class(nil), classes...)
	ok := func(ring int) (bool, error) {
		trial[idx].RingSize = ring
		lambdaMin, err := HeteroMinLambda(pool, q, trial, pOn)
		if err != nil {
			return false, err
		}
		return lambdaMin > target, nil
	}
	hit, err := ok(pool)
	if err != nil {
		return 0, err
	}
	if !hit {
		return 0, fmt.Errorf("theory: no class-%d ring size up to pool %d crosses the connectivity threshold", idx, pool)
	}
	lo, hi := q-1, pool // invariant: !ok(lo) — overlap below q never links — and ok(hi)
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
