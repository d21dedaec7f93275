// Package stats provides the statistical toolkit for the experiments:
// proportion estimates with Wilson confidence intervals, summary statistics,
// the Poisson distribution used by Lemma 9's degree law, goodness-of-fit
// measures (total-variation distance, Pearson chi-square), and histograms.
package stats

import (
	"encoding/json"
	"fmt"
	"math"

	"github.com/secure-wsn/qcomposite/internal/combin"
)

// Proportion is an estimated Bernoulli success probability with its trial
// counts, e.g. "fraction of sampled graphs that were 2-connected".
type Proportion struct {
	Successes int
	Trials    int
}

// Estimate returns successes/trials (0 when no trials have run).
func (p Proportion) Estimate() float64 {
	if p.Trials == 0 {
		return 0
	}
	return float64(p.Successes) / float64(p.Trials)
}

// WilsonInterval returns the Wilson score interval at the given z (e.g.
// z = 1.96 for 95% confidence). Unlike the Wald interval it behaves at the
// 0/1 boundaries, which the connectivity curves constantly touch.
func (p Proportion) WilsonInterval(z float64) (lo, hi float64) {
	if p.Trials == 0 {
		return 0, 1
	}
	n := float64(p.Trials)
	phat := p.Estimate()
	z2 := z * z
	denom := 1 + z2/n
	center := (phat + z2/(2*n)) / denom
	half := z / denom * math.Sqrt(phat*(1-phat)/n+z2/(4*n*n))
	lo, hi = center-half, center+half
	if lo < 0 {
		lo = 0
	}
	if hi > 1 {
		hi = 1
	}
	return lo, hi
}

// String renders the proportion with its 95% Wilson interval.
func (p Proportion) String() string {
	lo, hi := p.WilsonInterval(1.96)
	return fmt.Sprintf("%.4f [%.4f, %.4f] (%d/%d)", p.Estimate(), lo, hi, p.Successes, p.Trials)
}

// Summary accumulates streaming mean/variance via Welford's algorithm.
// The zero value is ready to use.
type Summary struct {
	n    int
	mean float64
	m2   float64
	min  float64
	max  float64
}

// Add folds a new observation into the summary.
func (s *Summary) Add(x float64) {
	s.n++
	if s.n == 1 {
		s.min, s.max = x, x
	} else {
		if x < s.min {
			s.min = x
		}
		if x > s.max {
			s.max = x
		}
	}
	delta := x - s.mean
	s.mean += delta / float64(s.n)
	s.m2 += delta * (x - s.mean)
}

// jsonFloat is a float64 that always survives a JSON round trip: finite
// values encode as ordinary JSON numbers (Go emits the shortest decimal that
// parses back to the same bits), and the non-finite values JSON numbers
// cannot carry — a Welford accumulator can overflow to +Inf on extreme
// observations — fall back to quoted "NaN"/"+Inf"/"-Inf".
type jsonFloat float64

func (f jsonFloat) MarshalJSON() ([]byte, error) {
	v := float64(f)
	switch {
	case math.IsNaN(v):
		return []byte(`"NaN"`), nil
	case math.IsInf(v, 1):
		return []byte(`"+Inf"`), nil
	case math.IsInf(v, -1):
		return []byte(`"-Inf"`), nil
	}
	return json.Marshal(v)
}

func (f *jsonFloat) UnmarshalJSON(data []byte) error {
	var s string
	if err := json.Unmarshal(data, &s); err == nil {
		switch s {
		case "NaN":
			*f = jsonFloat(math.NaN())
		case "+Inf":
			*f = jsonFloat(math.Inf(1))
		case "-Inf":
			*f = jsonFloat(math.Inf(-1))
		default:
			return fmt.Errorf("stats: %q is not a float", s)
		}
		return nil
	}
	var v float64
	if err := json.Unmarshal(data, &v); err != nil {
		return err
	}
	*f = jsonFloat(v)
	return nil
}

// summaryJSON is the serialized form of a Summary: the exact accumulator
// state, so a round-tripped Summary reports bit-identical statistics.
type summaryJSON struct {
	N    int       `json:"n"`
	Mean jsonFloat `json:"mean"`
	M2   jsonFloat `json:"m2"`
	Min  jsonFloat `json:"min"`
	Max  jsonFloat `json:"max"`
}

// MarshalJSON serializes the full accumulator state. It exists for
// checkpoint journals (experiment sweeps persist completed points and must
// restore them bit-identically), not for presentation — use the accessor
// methods for reporting.
func (s *Summary) MarshalJSON() ([]byte, error) {
	return json.Marshal(summaryJSON{
		N:    s.n,
		Mean: jsonFloat(s.mean),
		M2:   jsonFloat(s.m2),
		Min:  jsonFloat(s.min),
		Max:  jsonFloat(s.max),
	})
}

// UnmarshalJSON restores the exact accumulator state written by MarshalJSON.
func (s *Summary) UnmarshalJSON(data []byte) error {
	var j summaryJSON
	if err := json.Unmarshal(data, &j); err != nil {
		return err
	}
	if j.N < 0 {
		return fmt.Errorf("stats: summary with negative observation count %d", j.N)
	}
	s.n = j.N
	s.mean, s.m2 = float64(j.Mean), float64(j.M2)
	s.min, s.max = float64(j.Min), float64(j.Max)
	return nil
}

// N returns the observation count.
func (s *Summary) N() int { return s.n }

// Mean returns the sample mean (0 before any observation).
func (s *Summary) Mean() float64 { return s.mean }

// Variance returns the unbiased sample variance (0 for fewer than two
// observations).
func (s *Summary) Variance() float64 {
	if s.n < 2 {
		return 0
	}
	return s.m2 / float64(s.n-1)
}

// StdDev returns the sample standard deviation.
func (s *Summary) StdDev() float64 { return math.Sqrt(s.Variance()) }

// Max returns the largest observation (0 before any observation).
func (s *Summary) Max() float64 { return s.max }

// StdErr returns the standard error of the mean.
func (s *Summary) StdErr() float64 {
	if s.n == 0 {
		return 0
	}
	return s.StdDev() / math.Sqrt(float64(s.n))
}

// PoissonPMF returns P[X = k] for X ~ Poisson(lambda), in log space for
// stability at large lambda. k < 0 or lambda < 0 yield 0.
func PoissonPMF(lambda float64, k int) float64 {
	if k < 0 || lambda < 0 {
		return 0
	}
	if lambda == 0 {
		if k == 0 {
			return 1
		}
		return 0
	}
	return math.Exp(float64(k)*math.Log(lambda) - lambda - combin.LogFactorial(k))
}

// TotalVariation returns the total-variation distance ½·Σ|p_i − q_i|
// between two distributions given as aligned probability slices; shorter
// slices are implicitly zero-padded.
func TotalVariation(p, q []float64) float64 {
	n := len(p)
	if len(q) > n {
		n = len(q)
	}
	sum := 0.0
	for i := 0; i < n; i++ {
		var pi, qi float64
		if i < len(p) {
			pi = p[i]
		}
		if i < len(q) {
			qi = q[i]
		}
		sum += math.Abs(pi - qi)
	}
	return sum / 2
}

// ChiSquare returns Pearson's X² statistic Σ (obs−exp)²/exp over cells with
// positive expectation, along with the number of such cells. Cells with
// exp ≤ 0 and obs = 0 are skipped; exp ≤ 0 with obs > 0 contributes +Inf.
func ChiSquare(observed []float64, expected []float64) (statistic float64, cells int) {
	n := len(observed)
	if len(expected) > n {
		n = len(expected)
	}
	for i := 0; i < n; i++ {
		var obs, exp float64
		if i < len(observed) {
			obs = observed[i]
		}
		if i < len(expected) {
			exp = expected[i]
		}
		if exp <= 0 {
			if obs > 0 {
				return math.Inf(1), cells + 1
			}
			continue
		}
		d := obs - exp
		statistic += d * d / exp
		cells++
	}
	return statistic, cells
}

// Histogram counts integer observations into a dense [0, max] slice.
type Histogram struct {
	counts []int
	total  int
}

// Add records one observation of value v ≥ 0 (negatives are clamped to 0).
func (h *Histogram) Add(v int) {
	if v < 0 {
		v = 0
	}
	for len(h.counts) <= v {
		h.counts = append(h.counts, 0)
	}
	h.counts[v]++
	h.total++
}

// Normalized returns the empirical probability mass function.
func (h *Histogram) Normalized() []float64 {
	out := make([]float64, len(h.counts))
	if h.total == 0 {
		return out
	}
	for i, c := range h.counts {
		out[i] = float64(c) / float64(h.total)
	}
	return out
}
