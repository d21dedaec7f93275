package keys

import (
	"fmt"
	"math"
	"strings"

	"github.com/secure-wsn/qcomposite/internal/rng"
)

// classStreamID is the rng.StreamSeed sub-stream identifier under which a
// heterogeneous assignment draws its class labels. Labels live on their own
// derived stream (seeded from one draw of the main generator) so that the
// ring draws that follow see the same stream positions regardless of how
// many classes the mixture has.
const classStreamID = 0x636c617373 // "class"

// muSumTolerance is the allowed deviation of a class mixture's Σμ from 1.
const muSumTolerance = 1e-9

// Heterogeneous is the heterogeneous key predistribution scheme of Eletreby
// and Yağan (arXiv:1604.00460): each sensor independently belongs to class i
// with probability μ_i and draws a uniform K_i-subset of the common P-key
// pool. Two sensors can secure a link iff they share at least q keys, as in
// the q-composite scheme; q = 1 recovers the heterogeneous
// Eschenauer–Gligor scheme the paper analyses.
//
// A single-class Heterogeneous scheme is the uniform scheme: it consumes
// randomness exactly as QComposite does, so its deployments are
// byte-identical to the equivalent QComposite deployments (pinned by tests).
type Heterogeneous struct {
	pool    int
	q       int
	classes []Class
}

var _ Scheme = (*Heterogeneous)(nil)

// NewHeterogeneous validates the class mixture — 1 ≤ q ≤ K_i ≤ P for every
// class, 0 < μ_i, Σμ_i = 1 (within 1e-9), at most MaxClasses classes — and
// returns the scheme. The class order given here is the class-index order of
// assignment labels.
func NewHeterogeneous(pool, q int, classes []Class) (*Heterogeneous, error) {
	if len(classes) == 0 {
		return nil, fmt.Errorf("keys: heterogeneous scheme needs at least one class")
	}
	if len(classes) > MaxClasses {
		return nil, fmt.Errorf("keys: %d classes exceed the maximum %d", len(classes), MaxClasses)
	}
	if q < 1 {
		return nil, fmt.Errorf("keys: overlap requirement q=%d must be ≥ 1", q)
	}
	muSum := 0.0
	for i, c := range classes {
		switch {
		case math.IsNaN(c.Mu) || c.Mu <= 0 || c.Mu > 1:
			return nil, fmt.Errorf("keys: class %d mixing probability %v outside (0,1]", i, c.Mu)
		case c.RingSize < q:
			return nil, fmt.Errorf("keys: class %d ring size %d below overlap requirement q=%d", i, c.RingSize, q)
		case pool < c.RingSize:
			return nil, fmt.Errorf("keys: pool size %d below class %d ring size %d", pool, i, c.RingSize)
		}
		muSum += c.Mu
	}
	if math.Abs(muSum-1) > muSumTolerance {
		return nil, fmt.Errorf("keys: class mixing probabilities sum to %v, want 1", muSum)
	}
	return &Heterogeneous{pool: pool, q: q, classes: append([]Class(nil), classes...)}, nil
}

// Name implements Scheme.
func (s *Heterogeneous) Name() string {
	var b strings.Builder
	fmt.Fprintf(&b, "heterogeneous(q=%d;", s.q)
	for i, c := range s.classes {
		if i > 0 {
			b.WriteString(",")
		}
		fmt.Fprintf(&b, " %g×K=%d", c.Mu, c.RingSize)
	}
	b.WriteString(")")
	return b.String()
}

// PoolSize implements Scheme.
func (s *Heterogeneous) PoolSize() int { return s.pool }

// RequiredOverlap implements Scheme.
func (s *Heterogeneous) RequiredOverlap() int { return s.q }

// Classes implements Scheme.
func (s *Heterogeneous) Classes() []Class {
	return append([]Class(nil), s.classes...)
}

// AssignInto implements Scheme: it draws per-sensor class labels from
// a dedicated rng.StreamSeed sub-stream (seeded by one draw of r), then one
// uniform K_{class}-subset per sensor from r. With a single class no label
// draw happens at all, which keeps the main stream aligned with QComposite's
// and makes 1-class deployments byte-identical to the uniform scheme.
func (s *Heterogeneous) AssignInto(r *rng.Rand, n int, a *RingArena) (Assignment, error) {
	if n < 0 {
		return Assignment{}, fmt.Errorf("keys: negative sensor count %d", n)
	}
	sampler, err := a.ensureSampler(s.pool)
	if err != nil {
		return Assignment{}, err
	}

	var labels []uint8
	totalIDs := n * s.classes[0].RingSize
	if len(s.classes) > 1 {
		labelRand := rng.New(rng.StreamSeed(r.Uint64(), classStreamID))
		if cap(a.labels) < n {
			a.labels = make([]uint8, n)
		}
		labels = a.labels[:n]
		totalIDs = 0
		for v := range labels {
			labels[v] = s.sampleClass(labelRand)
			totalIDs += s.classes[labels[v]].RingSize
		}
	}

	a.reserve(n, totalIDs, s.pool)
	for v := 0; v < n; v++ {
		size := s.classes[0].RingSize
		if labels != nil {
			size = s.classes[labels[v]].RingSize
		}
		if err := a.appendRing(r, sampler, size); err != nil {
			return Assignment{}, fmt.Errorf("keys: assign sensor %d: %w", v, err)
		}
	}
	return Assignment{Rings: a.rings, Labels: labels}, nil
}

// sampleClass draws one class index from the mixture by inverting the
// cumulative distribution; accumulated rounding in the partial sums is
// absorbed by the final class, so every draw lands on a valid label.
func (s *Heterogeneous) sampleClass(r *rng.Rand) uint8 {
	u := r.Float64()
	cum := 0.0
	for i, c := range s.classes[:len(s.classes)-1] {
		cum += c.Mu
		if u < cum {
			return uint8(i)
		}
	}
	return uint8(len(s.classes) - 1)
}
