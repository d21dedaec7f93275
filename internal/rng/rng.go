// Package rng provides the deterministic pseudo-random number generation
// substrate for the library: a xoshiro256++ generator seeded through
// SplitMix64, independent derived streams for parallel Monte Carlo trials,
// and the distribution samplers the random-graph generators need (uniform
// integers and floats, Bernoulli, binomial, batched geometric skips, and
// k-subset sampling without replacement). A GeometricSource buffers raw
// uniforms; a skip is a lookup in a per-p table first and a guarded
// logarithm second, exact either way. A SubsetSampler draws k-subsets in
// draw order, which is how key rings are assigned.
//
// Every randomized API in this repository takes an explicit *Rand so that
// experiments are reproducible bit-for-bit from a single seed, regardless of
// goroutine scheduling (the style guide's "avoid mutable globals" applied to
// randomness).
package rng

import (
	"fmt"
	"math"
	"math/bits"
	"slices"
)

// Rand is a xoshiro256++ pseudo-random number generator. It is NOT safe for
// concurrent use; derive one stream per goroutine with NewStream.
type Rand struct {
	s0, s1, s2, s3 uint64
}

// splitMix64 advances the SplitMix64 state and returns the next output.
// It is the recommended seeding procedure for xoshiro generators.
func splitMix64(state *uint64) uint64 {
	*state += 0x9e3779b97f4a7c15
	z := *state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// New returns a generator seeded from the given seed. Any seed (including 0)
// yields a well-mixed non-degenerate state.
func New(seed uint64) *Rand {
	r := &Rand{}
	r.Reseed(seed)
	return r
}

// Reseed resets r to exactly the state New(seed) would construct, without
// allocating. It lets long-lived trial loops (a reused wsn.Deployer, the
// montecarlo worker loop) replace the per-trial New/NewStream — the last
// steady-state allocation of a Monte Carlo trial.
func (r *Rand) Reseed(seed uint64) {
	st := seed
	r.s0 = splitMix64(&st)
	r.s1 = splitMix64(&st)
	r.s2 = splitMix64(&st)
	r.s3 = splitMix64(&st)
}

// ReseedStream resets r to exactly the state NewStream(seed, id) would
// construct, without allocating.
func (r *Rand) ReseedStream(seed, id uint64) {
	r.Reseed(StreamSeed(seed, id))
}

// StreamSeed returns the derived seed of the sub-stream identified by
// (seed, id) — the value NewStream seeds its generator with. Exposed so that
// higher layers (e.g. parameter sweeps) can assign deterministic per-unit
// base seeds that are themselves fed to seed-taking APIs.
func StreamSeed(seed, id uint64) uint64 {
	// Mix the id through SplitMix64 before combining so that consecutive ids
	// land far apart in seed space.
	st := id
	mixed := splitMix64(&st)
	return seed ^ mixed ^ 0xd1b54a32d192ed03*id
}

// NewStream returns a generator for the sub-stream identified by (seed, id).
// Distinct ids yield statistically independent streams; this is how parallel
// Monte Carlo trials obtain per-trial reproducible randomness.
func NewStream(seed, id uint64) *Rand {
	return New(StreamSeed(seed, id))
}

// Uint64 returns the next 64 uniformly distributed bits.
func (r *Rand) Uint64() uint64 {
	result := bits.RotateLeft64(r.s0+r.s3, 23) + r.s0
	t := r.s1 << 17
	r.s2 ^= r.s0
	r.s3 ^= r.s1
	r.s1 ^= r.s2
	r.s0 ^= r.s3
	r.s2 ^= t
	r.s3 = bits.RotateLeft64(r.s3, 45)
	return result
}

// Intn returns a uniform integer in [0, n). It panics if n <= 0 (programmer
// error, mirroring math/rand).
func (r *Rand) Intn(n int) int {
	if n <= 0 {
		panic(fmt.Sprintf("rng: Intn with non-positive n = %d", n))
	}
	return int(r.uint64n(uint64(n)))
}

// uint64n returns a uniform value in [0, n) using Lemire's multiply-shift
// rejection method (unbiased).
func (r *Rand) uint64n(n uint64) uint64 {
	hi, lo := bits.Mul64(r.Uint64(), n)
	if lo < n {
		threshold := -n % n
		for lo < threshold {
			hi, lo = bits.Mul64(r.Uint64(), n)
		}
	}
	return hi
}

// Float64 returns a uniform float in [0, 1) with 53 bits of precision.
func (r *Rand) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// FillFloat64 fills dst with independent uniform floats in [0, 1),
// consuming exactly len(dst) generator words in index order — the batch
// form of calling Float64 per element, for hot paths (e.g. geometric-graph
// position draws) that want the conversion loop kept tight.
func (r *Rand) FillFloat64(dst []float64) {
	for i := range dst {
		dst[i] = float64(r.Uint64()>>11) / (1 << 53)
	}
}

// Bernoulli returns true with probability p. Probabilities outside [0,1] are
// clamped (p<=0 never, p>=1 always).
func (r *Rand) Bernoulli(p float64) bool {
	if p <= 0 {
		return false
	}
	if p >= 1 {
		return true
	}
	return r.Float64() < p
}

// Binomial returns a sample from Binomial(n, p).
//
// For small n·p it uses the waiting-time (geometric skip) method, which runs
// in O(np) expected time; otherwise it falls back to summing Bernoulli
// trials in blocks via the inverse-transform on the count of successes in
// chunks. n must be non-negative.
func (r *Rand) Binomial(n int, p float64) int {
	if n < 0 {
		panic(fmt.Sprintf("rng: Binomial with negative n = %d", n))
	}
	if p <= 0 || n == 0 {
		return 0
	}
	if p >= 1 {
		return n
	}
	if p > 0.5 {
		return n - r.Binomial(n, 1-p)
	}
	// Waiting-time method: successive geometric gaps between successes.
	// Expected iterations = np + 1.
	count := 0
	i := 0
	lnq := math.Log1p(-p)
	for {
		// Geometric(p) gap: number of failures before next success. The gap
		// is compared as a float BEFORE the int conversion: for tiny p the
		// quotient can exceed MaxInt, and an out-of-range float→int
		// conversion is implementation-specific (MinInt on amd64), which
		// used to wrap i negative and overcount.
		gap := math.Floor(math.Log(1-r.Float64()) / lnq)
		if gap >= float64(n-i) {
			return count
		}
		i += int(gap) + 1
		count++
	}
}

// Shuffle permutes the first n elements using the provided swap function,
// mirroring math/rand.Shuffle.
func (r *Rand) Shuffle(n int, swap func(i, j int)) {
	for i := n - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		swap(i, j)
	}
}

// SubsetSampler draws uniform k-subsets of [0, n) in O(k) time per draw with
// no per-draw allocation, using a partial Fisher–Yates shuffle over a
// persistent identity array that is rolled back after each draw.
//
// It is the hot path for key-ring assignment: each of n sensors draws K keys
// from a pool of P, so per-draw O(P) work would dominate graph sampling. A
// draw comes out in the order drawn; no consumer of a key ring needs it
// sorted.
//
// A SubsetSampler is not safe for concurrent use.
type SubsetSampler struct {
	perm []int32
	// swapped records the positions touched by the last draw for rollback.
	swapped []int32
}

// NewSubsetSampler returns a sampler over the universe [0, n).
func NewSubsetSampler(n int) (*SubsetSampler, error) {
	if n <= 0 {
		return nil, fmt.Errorf("rng: subset sampler universe must be positive, got %d", n)
	}
	if n > math.MaxInt32 {
		return nil, fmt.Errorf("rng: subset sampler universe %d exceeds int32 range", n)
	}
	perm := make([]int32, n)
	for i := range perm {
		perm[i] = int32(i)
	}
	return &SubsetSampler{perm: perm}, nil
}

// Universe returns the size of the sampling universe.
func (s *SubsetSampler) Universe() int { return len(s.perm) }

// AppendSample appends a uniform random k-subset of [0, n) to dst and returns
// the extended slice. The returned elements are in the (random) order drawn,
// not sorted. k must be in [0, n].
func (s *SubsetSampler) AppendSample(r *Rand, k int, dst []int32) ([]int32, error) {
	n := len(s.perm)
	if k < 0 || k > n {
		return nil, fmt.Errorf("rng: subset size %d out of range [0, %d]", k, n)
	}
	swapped := s.swappedBuf(k)
	perm := s.perm
	start := len(dst)
	dst = slices.Grow(dst, k)[:start+k]
	out := dst[start:]
	// Step a local copy of the generator so its state stays in registers;
	// the bounded draw is uint64n written out, since a call would pin the
	// copy to memory.
	g := *r
	for i := range swapped {
		bound := uint64(n - i)
		hi, lo := bits.Mul64(g.Uint64(), bound)
		if lo < bound {
			threshold := -bound % bound
			for lo < threshold {
				hi, lo = bits.Mul64(g.Uint64(), bound)
			}
		}
		j := i + int(hi)
		x := perm[j]
		perm[j] = perm[i]
		perm[i] = x
		swapped[i] = int32(j)
		out[i] = x
	}
	*r = g
	s.rollback(swapped)
	return dst, nil
}

// swappedBuf returns the rollback log resized to k entries.
func (s *SubsetSampler) swappedBuf(k int) []int32 {
	if cap(s.swapped) < k {
		s.swapped = make([]int32, k)
	}
	return s.swapped[:k]
}

// rollback undoes a draw's swaps in reverse order, restoring the exact
// permutation the draw started from. The array always remains a permutation
// of [0, n), so the uniformity of subsequent draws is unaffected.
func (s *SubsetSampler) rollback(swapped []int32) {
	for i := len(swapped) - 1; i >= 0; i-- {
		j := swapped[i]
		s.perm[i], s.perm[j] = s.perm[j], s.perm[i]
	}
}
