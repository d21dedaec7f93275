package rng

import (
	"math"
	"slices"
	"testing"
	"testing/quick"
)

func TestDeterminism(t *testing.T) {
	a, b := New(42), New(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("generators with the same seed diverged at step %d", i)
		}
	}
}

func TestSeedsDiffer(t *testing.T) {
	a, b := New(1), New(2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Errorf("generators with different seeds matched %d/100 outputs", same)
	}
}

func TestZeroSeedNotDegenerate(t *testing.T) {
	r := New(0)
	var zeros int
	for i := 0; i < 100; i++ {
		if r.Uint64() == 0 {
			zeros++
		}
	}
	if zeros > 1 {
		t.Errorf("seed-0 generator produced %d zero outputs out of 100", zeros)
	}
}

func TestNewStreamIndependence(t *testing.T) {
	a, b := NewStream(7, 0), NewStream(7, 1)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Errorf("streams 0 and 1 matched %d/100 outputs", same)
	}
	// Same (seed, id) must reproduce.
	c, d := NewStream(7, 5), NewStream(7, 5)
	for i := 0; i < 100; i++ {
		if c.Uint64() != d.Uint64() {
			t.Fatal("identical streams diverged")
		}
	}
}

// TestReseedMatchesNew pins the zero-allocation reseeding contract: a
// reseeded generator is byte-identical to a freshly constructed one — state
// and output stream — for Reseed vs New and ReseedStream vs NewStream, even
// when the reseeded generator arrives in an arbitrary mid-stream state.
func TestReseedMatchesNew(t *testing.T) {
	reused := New(999)
	for _, seed := range []uint64{0, 1, 42, 1<<63 + 7} {
		reused.Uint64() // desync: Reseed must not depend on prior state
		reused.Reseed(seed)
		fresh := New(seed)
		if *reused != *fresh {
			t.Fatalf("Reseed(%d) state %+v differs from New state %+v", seed, *reused, *fresh)
		}
		for i := 0; i < 100; i++ {
			if got, want := reused.Uint64(), fresh.Uint64(); got != want {
				t.Fatalf("Reseed(%d) output %d: %d, want %d", seed, i, got, want)
			}
		}
		for _, id := range []uint64{0, 3, 1 << 40} {
			reused.ReseedStream(seed, id)
			stream := NewStream(seed, id)
			if *reused != *stream {
				t.Fatalf("ReseedStream(%d,%d) state differs from NewStream", seed, id)
			}
			for i := 0; i < 100; i++ {
				if got, want := reused.Uint64(), stream.Uint64(); got != want {
					t.Fatalf("ReseedStream(%d,%d) output %d: %d, want %d", seed, id, i, got, want)
				}
			}
		}
	}
}

// TestReseedAllocFree gates the point of Reseed: no allocation per reseed.
func TestReseedAllocFree(t *testing.T) {
	var r Rand
	seed := uint64(0)
	if avg := testing.AllocsPerRun(100, func() {
		seed++
		r.ReseedStream(seed, seed*3)
		r.Uint64()
	}); avg != 0 {
		t.Errorf("ReseedStream allocates %.1f allocs/run, want 0", avg)
	}
}

func TestFloat64Range(t *testing.T) {
	r := New(3)
	for i := 0; i < 10000; i++ {
		f := r.Float64()
		if f < 0 || f >= 1 {
			t.Fatalf("Float64() = %v out of [0,1)", f)
		}
	}
}

func TestFloat64Mean(t *testing.T) {
	r := New(4)
	const n = 200000
	sum := 0.0
	for i := 0; i < n; i++ {
		sum += r.Float64()
	}
	mean := sum / n
	if math.Abs(mean-0.5) > 0.005 {
		t.Errorf("Float64 mean = %v, want ~0.5", mean)
	}
}

func TestIntnUniform(t *testing.T) {
	r := New(5)
	const buckets, n = 10, 100000
	counts := make([]int, buckets)
	for i := 0; i < n; i++ {
		counts[r.Intn(buckets)]++
	}
	want := float64(n) / buckets
	for b, c := range counts {
		if math.Abs(float64(c)-want) > 5*math.Sqrt(want) {
			t.Errorf("bucket %d count = %d, want ~%v", b, c, want)
		}
	}
}

func TestIntnPanicsOnNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Intn(0) did not panic")
		}
	}()
	New(1).Intn(0)
}

func TestBernoulliEdges(t *testing.T) {
	r := New(6)
	for i := 0; i < 100; i++ {
		if r.Bernoulli(0) {
			t.Fatal("Bernoulli(0) returned true")
		}
		if !r.Bernoulli(1) {
			t.Fatal("Bernoulli(1) returned false")
		}
		if r.Bernoulli(-0.5) {
			t.Fatal("Bernoulli(-0.5) returned true")
		}
		if !r.Bernoulli(1.5) {
			t.Fatal("Bernoulli(1.5) returned false")
		}
	}
}

func TestBernoulliFrequency(t *testing.T) {
	r := New(7)
	const n = 100000
	for _, p := range []float64{0.1, 0.5, 0.9} {
		hits := 0
		for i := 0; i < n; i++ {
			if r.Bernoulli(p) {
				hits++
			}
		}
		got := float64(hits) / n
		if math.Abs(got-p) > 0.01 {
			t.Errorf("Bernoulli(%v) frequency = %v", p, got)
		}
	}
}

func TestBinomialMoments(t *testing.T) {
	tests := []struct {
		n int
		p float64
	}{
		{n: 100, p: 0.05},
		{n: 100, p: 0.5},
		{n: 100, p: 0.95},
		{n: 10000, p: 0.01},
	}
	r := New(8)
	for _, tt := range tests {
		const trials = 20000
		sum, sumSq := 0.0, 0.0
		for i := 0; i < trials; i++ {
			x := float64(r.Binomial(tt.n, tt.p))
			sum += x
			sumSq += x * x
		}
		mean := sum / trials
		wantMean := float64(tt.n) * tt.p
		variance := sumSq/trials - mean*mean
		wantVar := float64(tt.n) * tt.p * (1 - tt.p)
		// 5-sigma tolerance on the mean estimate.
		tol := 5 * math.Sqrt(wantVar/trials)
		if math.Abs(mean-wantMean) > tol {
			t.Errorf("Binomial(%d,%v) mean = %v, want %v ± %v", tt.n, tt.p, mean, wantMean, tol)
		}
		if math.Abs(variance-wantVar) > 0.15*wantVar+1 {
			t.Errorf("Binomial(%d,%v) var = %v, want ~%v", tt.n, tt.p, variance, wantVar)
		}
	}
}

func TestBinomialEdges(t *testing.T) {
	r := New(9)
	if got := r.Binomial(0, 0.5); got != 0 {
		t.Errorf("Binomial(0, .5) = %d", got)
	}
	if got := r.Binomial(10, 0); got != 0 {
		t.Errorf("Binomial(10, 0) = %d", got)
	}
	if got := r.Binomial(10, 1); got != 10 {
		t.Errorf("Binomial(10, 1) = %d", got)
	}
	for i := 0; i < 1000; i++ {
		x := r.Binomial(5, 0.3)
		if x < 0 || x > 5 {
			t.Fatalf("Binomial(5, .3) = %d out of range", x)
		}
	}
}

func TestPoissonMoments(t *testing.T) {
	r := New(10)
	for _, lambda := range []float64{0.5, 5, 29, 30, 100, 500} {
		const trials = 20000
		sum := 0.0
		for i := 0; i < trials; i++ {
			sum += float64(r.poisson(lambda))
		}
		mean := sum / trials
		tol := 5 * math.Sqrt(lambda/trials)
		if math.Abs(mean-lambda) > tol {
			t.Errorf("Poisson(%v) mean = %v, want %v ± %v", lambda, mean, lambda, tol)
		}
	}
	if got := r.poisson(0); got != 0 {
		t.Errorf("Poisson(0) = %d", got)
	}
	if got := r.poisson(-1); got != 0 {
		t.Errorf("Poisson(-1) = %d", got)
	}
}

func TestGeometricMean(t *testing.T) {
	r := New(11)
	for _, p := range []float64{0.1, 0.5, 0.9} {
		const trials = 50000
		sum := 0.0
		for i := 0; i < trials; i++ {
			g := r.geometric(p)
			if g < 0 {
				t.Fatalf("Geometric(%v) = %d < 0", p, g)
			}
			sum += float64(g)
		}
		mean := sum / trials
		want := (1 - p) / p
		if math.Abs(mean-want) > 0.05*want+0.01 {
			t.Errorf("Geometric(%v) mean = %v, want %v", p, mean, want)
		}
	}
	if got := r.geometric(1); got != 0 {
		t.Errorf("Geometric(1) = %d", got)
	}
}

func TestPermIsPermutation(t *testing.T) {
	r := New(12)
	for _, n := range []int{0, 1, 2, 17, 100} {
		p := r.perm(n)
		if len(p) != n {
			t.Fatalf("Perm(%d) length = %d", n, len(p))
		}
		seen := make([]bool, n)
		for _, v := range p {
			if v < 0 || v >= n || seen[v] {
				t.Fatalf("Perm(%d) = %v is not a permutation", n, p)
			}
			seen[v] = true
		}
	}
}

func TestPermUniformFirstElement(t *testing.T) {
	r := New(13)
	const n, trials = 5, 50000
	counts := make([]int, n)
	for i := 0; i < trials; i++ {
		counts[r.perm(n)[0]]++
	}
	want := float64(trials) / n
	for v, c := range counts {
		if math.Abs(float64(c)-want) > 5*math.Sqrt(want) {
			t.Errorf("Perm first element %d count = %d, want ~%v", v, c, want)
		}
	}
}

func TestShuffleMatchesPermContract(t *testing.T) {
	r := New(21)
	vals := []int{0, 1, 2, 3, 4, 5, 6, 7}
	r.Shuffle(len(vals), func(i, j int) { vals[i], vals[j] = vals[j], vals[i] })
	seen := make([]bool, len(vals))
	for _, v := range vals {
		if v < 0 || v >= len(seen) || seen[v] {
			t.Fatalf("Shuffle result %v not a permutation", vals)
		}
		seen[v] = true
	}
}

func TestSubsetSamplerErrors(t *testing.T) {
	if _, err := NewSubsetSampler(0); err == nil {
		t.Error("NewSubsetSampler(0): want error")
	}
	if _, err := NewSubsetSampler(-3); err == nil {
		t.Error("NewSubsetSampler(-3): want error")
	}
	s, err := NewSubsetSampler(10)
	if err != nil {
		t.Fatal(err)
	}
	r := New(14)
	if _, err := s.AppendSample(r, 11, nil); err == nil {
		t.Error("AppendSample(k>n): want error")
	}
	if _, err := s.AppendSample(r, -1, nil); err == nil {
		t.Error("AppendSample(k<0): want error")
	}
}

func TestSubsetSamplerValidSubsets(t *testing.T) {
	const n, k = 50, 7
	s, err := NewSubsetSampler(n)
	if err != nil {
		t.Fatal(err)
	}
	if got := s.Universe(); got != n {
		t.Fatalf("Universe() = %d, want %d", got, n)
	}
	r := New(15)
	var buf []int32
	for trial := 0; trial < 2000; trial++ {
		buf, err = s.AppendSample(r, k, buf[:0])
		if err != nil {
			t.Fatal(err)
		}
		if len(buf) != k {
			t.Fatalf("sample size = %d, want %d", len(buf), k)
		}
		seen := map[int32]bool{}
		for _, v := range buf {
			if v < 0 || v >= n {
				t.Fatalf("sample element %d out of range", v)
			}
			if seen[v] {
				t.Fatalf("duplicate element %d in sample %v", v, buf)
			}
			seen[v] = true
		}
	}
}

func TestSubsetSamplerUniformMembership(t *testing.T) {
	// Every element must appear with frequency k/n.
	const n, k, trials = 20, 5, 40000
	s, err := NewSubsetSampler(n)
	if err != nil {
		t.Fatal(err)
	}
	r := New(16)
	counts := make([]int, n)
	var buf []int32
	for trial := 0; trial < trials; trial++ {
		buf, err = s.AppendSample(r, k, buf[:0])
		if err != nil {
			t.Fatal(err)
		}
		for _, v := range buf {
			counts[v]++
		}
	}
	want := float64(trials) * k / n
	for v, c := range counts {
		if math.Abs(float64(c)-want) > 6*math.Sqrt(want) {
			t.Errorf("element %d appeared %d times, want ~%v", v, c, want)
		}
	}
}

func TestSubsetSamplerFullDraw(t *testing.T) {
	const n = 8
	s, err := NewSubsetSampler(n)
	if err != nil {
		t.Fatal(err)
	}
	r := New(17)
	buf, err := s.AppendSample(r, n, nil)
	if err != nil {
		t.Fatal(err)
	}
	seen := make([]bool, n)
	for _, v := range buf {
		seen[v] = true
	}
	for i, ok := range seen {
		if !ok {
			t.Fatalf("full draw missing element %d: %v", i, buf)
		}
	}
	// Zero-size draws are fine too.
	buf, err = s.AppendSample(r, 0, buf[:0])
	if err != nil || len(buf) != 0 {
		t.Fatalf("zero draw = %v, err %v", buf, err)
	}
}

// checkDraw draws a k-subset with AppendSample and fails unless it equals a
// reference partial Fisher–Yates written with Intn over a fresh identity
// array: the same elements in the same order, the generator left at the
// same position and dst's prefix kept. A rejected k (outside [0, n]) must
// fail the draw. Because the reference starts from the identity, a sampler
// that did not roll its permutation back fails the next draw.
func checkDraw(t *testing.T, s *SubsetSampler, r *Rand, k int) {
	t.Helper()
	n := s.Universe()
	ref := *r
	prefix := []int32{-7, 3}
	got, err := s.AppendSample(r, k, slices.Clone(prefix))
	if (err != nil) != (k < 0 || k > n) {
		t.Fatalf("n=%d k=%d: err %v", n, k, err)
	}
	if err != nil {
		return
	}
	perm := make([]int32, n)
	for i := range perm {
		perm[i] = int32(i)
	}
	want := slices.Clone(prefix)
	for i := 0; i < k; i++ {
		j := i + ref.Intn(n-i)
		perm[i], perm[j] = perm[j], perm[i]
		want = append(want, perm[i])
	}
	if !slices.Equal(got, want) {
		t.Fatalf("n=%d k=%d: draw %v, want %v", n, k, got, want)
	}
	if next, refNext := r.Uint64(), ref.Uint64(); next != refNext {
		t.Fatalf("n=%d k=%d: generators diverged after the draw (%#x vs %#x)", n, k, next, refNext)
	}
}

// TestAppendSampleMatchesReference pins the subset draw to the reference
// at k = 0, 1, n/2 and n, across word-sized universes, and across repeated
// and rejected draws on one sampler.
func TestAppendSampleMatchesReference(t *testing.T) {
	r := New(20)
	for _, n := range []int{1, 2, 63, 64, 65, 4096, 10000} {
		s, err := NewSubsetSampler(n)
		if err != nil {
			t.Fatal(err)
		}
		for _, k := range []int{0, 1, n / 2, n, n + 1, -1, 1, n} {
			for rep := 0; rep < 3; rep++ {
				checkDraw(t, s, r, k)
			}
		}
	}
}

// FuzzSampleMatchesReference checks the subset draw against the reference
// over arbitrary universes (up to 2¹⁷), subset sizes (including the
// rejected k = n + 1), seeds and runs of repeated draws on one sampler. The
// draw inlines the bounded-integer rejection step that Intn calls, so
// universes that are not powers of two exercise the rejection path.
func FuzzSampleMatchesReference(f *testing.F) {
	f.Add(uint32(512), uint32(32), uint64(1), uint8(3))
	f.Add(uint32(4096), uint32(4096), uint64(2), uint8(1))
	f.Add(uint32(10000), uint32(88), uint64(3), uint8(5))
	f.Add(uint32(1), uint32(2), uint64(4), uint8(2))
	f.Fuzz(func(t *testing.T, nRaw, kRaw uint32, seed uint64, repeats uint8) {
		n := int(nRaw%(1<<17)) + 1
		k := int(kRaw % uint32(n+2))
		s, err := NewSubsetSampler(n)
		if err != nil {
			t.Fatal(err)
		}
		r := New(seed)
		for rep := 0; rep <= int(repeats%8); rep++ {
			checkDraw(t, s, r, k)
		}
	})
}

func TestQuickBinomialRange(t *testing.T) {
	r := New(18)
	f := func(nRaw uint8, pRaw uint16) bool {
		n := int(nRaw)
		p := float64(pRaw) / math.MaxUint16
		x := r.Binomial(n, p)
		return x >= 0 && x <= n
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestQuickSubsetRollback(t *testing.T) {
	// After any sequence of draws the sampler's internal permutation must
	// still contain every element exactly once (rollback correctness).
	r := New(19)
	s, err := NewSubsetSampler(30)
	if err != nil {
		t.Fatal(err)
	}
	f := func(kRaw uint8) bool {
		k := int(kRaw) % 31
		buf, err := s.AppendSample(r, k, nil)
		if err != nil || len(buf) != k {
			return false
		}
		seen := make([]bool, 30)
		for _, v := range s.perm {
			if v < 0 || v >= 30 || seen[v] {
				return false
			}
			seen[v] = true
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func BenchmarkUint64(b *testing.B) {
	r := New(1)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = r.Uint64()
	}
}

func BenchmarkSubsetSampleK50(b *testing.B) {
	s, err := NewSubsetSampler(10000)
	if err != nil {
		b.Fatal(err)
	}
	r := New(2)
	buf := make([]int32, 0, 50)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf, _ = s.AppendSample(r, 50, buf[:0])
	}
}

// perm returns a uniformly random permutation of [0, n).
func (r *Rand) perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	for i := n - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		p[i], p[j] = p[j], p[i]
	}
	return p
}

// poisson returns a sample from Poisson(lambda). Non-positive lambda returns
// zero. For large lambda it splits recursively (the sum of independent
// Poisson(λ/2) variates is exactly Poisson(λ)), keeping Knuth's product
// method numerically safe.
func (r *Rand) poisson(lambda float64) int {
	if lambda <= 0 {
		return 0
	}
	const knuthLimit = 30
	n := 0
	for lambda > knuthLimit {
		half := lambda / 2
		n += r.poissonKnuth(half)
		lambda -= half
	}
	return n + r.poissonKnuth(lambda)
}

func (r *Rand) poissonKnuth(lambda float64) int {
	l := math.Exp(-lambda)
	k := 0
	p := 1.0
	for {
		p *= r.Float64()
		if p <= l {
			return k
		}
		k++
	}
}
