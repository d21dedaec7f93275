package keys

import (
	"fmt"
	"math"
	"slices"
	"testing"

	"github.com/secure-wsn/qcomposite/internal/rng"
)

// TestNewRingKeepsNegativeIDs is the regression test for the dedup sentinel
// bug: the loop used to seed its "previous" tracker with the in-band value
// −1, silently dropping a legitimate −1 key ID.
func TestNewRingKeepsNegativeIDs(t *testing.T) {
	r := NewRing([]ID{-1, 3})
	if r.Len() != 2 {
		t.Fatalf("NewRing([-1, 3]).Len() = %d, want 2 (ID -1 dropped by sentinel?)", r.Len())
	}
	if !r.Contains(-1) || !r.Contains(3) {
		t.Errorf("ring %v missing members", r.IDs())
	}
	// Duplicates of the former sentinel value still collapse.
	r = NewRing([]ID{-1, -1, -5, 3, -5})
	want := []ID{-5, -1, 3}
	got := r.IDs()
	if len(got) != len(want) {
		t.Fatalf("IDs = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("IDs = %v, want %v", got, want)
		}
	}
}

// TestIntersectorResetRejectsOutOfPool pins that Reset refuses a ring ID
// outside [0, pool) on every strategy. The sparse (merge and row) path used
// to accept it: two rings holding key 1500 at pool 1000 reset cleanly and
// then reported a shared key the pool cannot contain.
func TestIntersectorResetRejectsOutOfPool(t *testing.T) {
	cases := []struct {
		name  string
		rings []Ring
	}{
		{"sparse/above", []Ring{NewRing([]ID{3, 1500}), NewRing([]ID{7, 1500})}},
		{"sparse/negative", []Ring{NewRing([]ID{-2, 40}), NewRing([]ID{-2, 41})}},
		{"dense/above", []Ring{NewRing([]ID{1, 2, 3, 4, 5, 6, 7, 1500}), NewRing([]ID{1, 2, 3, 4, 5, 6, 7, 8})}},
	}
	for _, tc := range cases {
		ix, err := NewIntersector(1000)
		if err != nil {
			t.Fatal(err)
		}
		if err := ix.Reset(tc.rings); err == nil {
			t.Errorf("%s: Reset accepted a key outside the pool", tc.name)
		}
	}
	// The same Intersector accepts in-pool rings again afterwards.
	ix, err := NewIntersector(1000)
	if err != nil {
		t.Fatal(err)
	}
	if err := ix.Reset(cases[0].rings); err == nil {
		t.Fatal("Reset accepted a key outside the pool")
	}
	good := []Ring{NewRing([]ID{3, 999}), NewRing([]ID{7, 999})}
	if err := ix.Reset(good); err != nil {
		t.Fatal(err)
	}
	if !ix.HasAtLeast(0, 1, 1) || ix.HasAtLeast(0, 1, 2) {
		t.Error("in-pool rings after a rejected Reset answer wrongly")
	}
}

// randomRings draws n rings of the given size from a pool, via the public
// scheme so the rings are realistic assignments.
func randomRings(t *testing.T, r *rng.Rand, pool, ring, n int) []Ring {
	t.Helper()
	s, err := NewQComposite(pool, ring, 1)
	if err != nil {
		t.Fatal(err)
	}
	asg, err := s.AssignInto(r, n, new(RingArena))
	if err != nil {
		t.Fatal(err)
	}
	return asg.Rings
}

// TestIntersectorMatchesMerge is the property test for the density-adaptive
// path: across dense and sparse pool/ring ratios, the Intersector must agree
// exactly with the merge oracle on count, membership and (ascending) order,
// whichever strategy it selects.
func TestIntersectorMatchesMerge(t *testing.T) {
	r := rng.New(7)
	cases := []struct {
		pool, ring int
		wantDense  bool
	}{
		{pool: 64, ring: 16, wantDense: true},    // pool ≪ denseRingFactor·K
		{pool: 2048, ring: 16, wantDense: true},  // boundary: pool = 128·K
		{pool: 2049, ring: 16, wantDense: false}, // just past the boundary
		{pool: 4096, ring: 8, wantDense: false},  // sparse rings
	}
	for _, tc := range cases {
		const n = 24
		rings := randomRings(t, r, tc.pool, tc.ring, n)
		ix, err := NewIntersector(tc.pool)
		if err != nil {
			t.Fatal(err)
		}
		// Reset twice: the second pass exercises bitset reuse after Clear.
		for pass := 0; pass < 2; pass++ {
			if err := ix.Reset(rings); err != nil {
				t.Fatal(err)
			}
			if ix.Dense() != tc.wantDense {
				t.Errorf("pool=%d ring=%d: Dense() = %v, want %v",
					tc.pool, tc.ring, ix.Dense(), tc.wantDense)
			}
			for u := int32(0); u < n; u++ {
				for v := u + 1; v < n; v++ {
					wantShared := mergeShared(rings[u], rings[v])
					if got := ix.SharedCount(u, v); got != len(wantShared) {
						t.Fatalf("pool=%d: SharedCount(%d,%d) = %d, want %d",
							tc.pool, u, v, got, len(wantShared))
					}
					gotShared := ix.AppendShared(u, v, nil)
					if len(gotShared) != len(wantShared) {
						t.Fatalf("pool=%d: AppendShared(%d,%d) = %v, want %v",
							tc.pool, u, v, gotShared, wantShared)
					}
					for i := range wantShared {
						if gotShared[i] != wantShared[i] {
							t.Fatalf("pool=%d: AppendShared(%d,%d) = %v, want %v",
								tc.pool, u, v, gotShared, wantShared)
						}
					}
					for q := 0; q <= len(wantShared)+1; q++ {
						if got := ix.HasAtLeast(u, v, q); got != (len(wantShared) >= q) {
							t.Fatalf("pool=%d: HasAtLeast(%d,%d,%d) = %v with %d shared",
								tc.pool, u, v, q, got, len(wantShared))
						}
					}
				}
			}
		}
	}
}

// TestAssignIntoMatchesAssign pins the determinism contract of the arena
// path: for equal generator seeds, AssignInto into a reused arena must
// produce exactly the rings it does into a fresh one.
func TestAssignIntoMatchesAssign(t *testing.T) {
	s, err := NewQComposite(500, 40, 2)
	if err != nil {
		t.Fatal(err)
	}
	const n = 60
	wantAsg, err := s.AssignInto(rng.New(99), n, new(RingArena))
	if err != nil {
		t.Fatal(err)
	}
	want := wantAsg.Rings
	var arena RingArena
	for pass := 0; pass < 3; pass++ {
		gotAsg, err := s.AssignInto(rng.New(99), n, &arena)
		if err != nil {
			t.Fatal(err)
		}
		got := gotAsg.Rings
		if len(got) != len(want) {
			t.Fatalf("pass %d: %d rings, want %d", pass, len(got), len(want))
		}
		for v := range want {
			w, g := want[v].IDs(), got[v].IDs()
			if len(w) != len(g) {
				t.Fatalf("pass %d: ring %d has %d keys, want %d", pass, v, len(g), len(w))
			}
			for i := range w {
				if w[i] != g[i] {
					t.Fatalf("pass %d: ring %d = %v, want %v", pass, v, g, w)
				}
			}
		}
	}
}

// FuzzNewRing fuzzes the sort/dedup invariants over arbitrary ID sets,
// negative values included.
func FuzzNewRing(f *testing.F) {
	f.Add([]byte{0, 1, 2, 3})
	f.Add([]byte{255, 255, 255, 255, 0, 0, 0, 3})
	f.Fuzz(func(t *testing.T, data []byte) {
		ids := make([]ID, 0, len(data)/4)
		for i := 0; i+3 < len(data); i += 4 {
			ids = append(ids, ID(uint32(data[i])|uint32(data[i+1])<<8|
				uint32(data[i+2])<<16|uint32(data[i+3])<<24))
		}
		ring := NewRing(ids)
		got := ring.IDs()
		for i := 1; i < len(got); i++ {
			if got[i-1] >= got[i] {
				t.Fatalf("IDs not strictly ascending: %v", got)
			}
		}
		seen := map[ID]bool{}
		for _, k := range ids {
			seen[k] = true
			if !ring.Contains(k) {
				t.Fatalf("ring dropped ID %d (input %v, got %v)", k, ids, got)
			}
		}
		if len(got) != len(seen) {
			t.Fatalf("ring has %d keys, want %d distinct", len(got), len(seen))
		}
	})
}

// pair is one intersection query.
type pair struct{ u, v int32 }

// uMajorPairs lists each pair u < v with probability p, u-major ascending:
// the order the on/off skip samplers and CSR ForEachEdge produce.
func uMajorPairs(r *rng.Rand, n int, p float64) []pair {
	var ps []pair
	for u := int32(0); int(u) < n; u++ {
		for v := u + 1; int(v) < n; v++ {
			if r.Bernoulli(p) {
				ps = append(ps, pair{u, v})
			}
		}
	}
	return ps
}

// columnMajorPairs is uMajorPairs with the loops swapped: runs share the
// second argument, so rows are built and read through v.
func columnMajorPairs(r *rng.Rand, n int, p float64) []pair {
	var ps []pair
	for v := int32(1); int(v) < n; v++ {
		for u := int32(0); u < v; u++ {
			if r.Bernoulli(p) {
				ps = append(ps, pair{u, v})
			}
		}
	}
	return ps
}

// classBlockPairs lists pairs in the heterogeneous on/off emission order:
// within-class blocks u-major, then each cross-class block row by row.
func classBlockPairs(r *rng.Rand, labels []uint8, classes int, p float64) []pair {
	buckets := make([][]int32, classes)
	for v, c := range labels {
		buckets[c] = append(buckets[c], int32(v))
	}
	var ps []pair
	for i, a := range buckets {
		for x, u := range a {
			for _, v := range a[x+1:] {
				if r.Bernoulli(p) {
					ps = append(ps, pair{u, v})
				}
			}
		}
		for _, b := range buckets[i+1:] {
			for _, u := range a {
				for _, v := range b {
					if r.Bernoulli(p) {
						ps = append(ps, pair{u, v})
					}
				}
			}
		}
	}
	return ps
}

// checkQueries issues the queries in order through checkQuery and returns
// the number of rows built along the way.
func checkQueries(t *testing.T, name string, ix *Intersector, rings []Ring, queries []pair) (rows int) {
	t.Helper()
	for i, p := range queries {
		before := ix.rowU
		checkQuery(t, name, ix, rings, i, p)
		if ix.rowU != before {
			rows++
		}
	}
	return rows
}

// checkQuery issues query i as HasAtLeast (with q cycling through 1..3)
// for even i and as SharedCount for odd i, and checks the answer against
// the merge oracle.
func checkQuery(t *testing.T, name string, ix *Intersector, rings []Ring, i int, p pair) {
	t.Helper()
	want := len(mergeShared(rings[p.u], rings[p.v]))
	if i%2 == 0 {
		q := 1 + i/2%3
		if got := ix.HasAtLeast(p.u, p.v, q); got != (want >= q) {
			t.Fatalf("%s: query %d: HasAtLeast(%d,%d,%d) = %v with %d shared", name, i, p.u, p.v, q, got, want)
		}
	} else if got := ix.SharedCount(p.u, p.v); got != want {
		t.Fatalf("%s: query %d: SharedCount(%d,%d) = %d, want %d", name, i, p.u, p.v, got, want)
	}
}

// TestIntersectorRowsMatchMerge pins the row strategy to the merge oracle
// over every query order the emitters produce — u-major, column-major (the
// v-owns-the-row branch), heterogeneous class blocks — and a shuffled order
// that must (almost) never build rows. Back-to-back Resets with a different
// n, ring size and strategy must not leak a row or key index from the
// previous rings.
func TestIntersectorRowsMatchMerge(t *testing.T) {
	r := rng.New(21)
	const pool, n = 10000, 300
	ix, err := NewIntersector(pool)
	if err != nil {
		t.Fatal(err)
	}
	reset := func(rings []Ring) {
		t.Helper()
		if err := ix.Reset(rings); err != nil {
			t.Fatal(err)
		}
	}

	// Figure-1-shaped rings: sparse, break-even of a few queries.
	rings := randomRings(t, r, pool, 40, n)
	for _, tc := range []struct {
		name    string
		queries []pair
	}{
		{"u-major", uMajorPairs(r, n, 0.5)},
		{"column-major", columnMajorPairs(r, n, 0.5)},
	} {
		reset(rings)
		if ix.Dense() {
			t.Fatal("K = 40, P = 10000 should select the probe strategy")
		}
		if rows := checkQueries(t, tc.name, ix, rings, tc.queries); rows < n/2 {
			t.Errorf("%s: %d rows over %d sensors, want most sensors to own one", tc.name, rows, n)
		}
	}
	shuffled := uMajorPairs(r, n, 0.5)
	r.Shuffle(len(shuffled), func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })
	reset(rings)
	if rows := checkQueries(t, "shuffled", ix, rings, shuffled); rows*20 > len(shuffled) {
		t.Errorf("shuffled: %d rows over %d queries, want runs (and rows) to be rare", rows, len(shuffled))
	}

	// Uneven heterogeneous rings, queried in class-block order.
	het, err := NewHeterogeneous(pool, 2, []Class{{Mu: 0.6, RingSize: 20}, {Mu: 0.4, RingSize: 120}})
	if err != nil {
		t.Fatal(err)
	}
	hasg, err := het.AssignInto(r, n, new(RingArena))
	if err != nil {
		t.Fatal(err)
	}
	reset(hasg.Rings)
	if rows := checkQueries(t, "class blocks", ix, hasg.Rings, classBlockPairs(r, hasg.Labels, 2, 0.5)); rows == 0 {
		t.Error("class blocks: no rows built")
	}

	// Back-to-back Resets: each deployment starts by querying the sensor
	// that owned the previous row, so a stale row or index would answer.
	if ix, err = NewIntersector(3000); err != nil {
		t.Fatal(err)
	}
	for i, st := range []struct {
		keyPool, ring, n int
		dense            bool
	}{
		{3000, 12, 150, false},
		{600, 30, 60, true}, // a fifth of the pool in use, dense
		{3000, 5, 200, false},
		{3000, 12, 150, false},
		{600, 30, 60, true},
	} {
		prev := ix.rowU
		rings := randomRings(t, r, st.keyPool, st.ring, st.n)
		reset(rings)
		if ix.Dense() != st.dense {
			t.Fatalf("stage %d: Dense() = %v, want %v", i, ix.Dense(), st.dense)
		}
		queries := []pair{}
		if prev >= 0 {
			u := prev % int32(st.n)
			for v := int32(0); int(v) < st.n; v++ {
				if v != u {
					queries = append(queries, pair{u, v})
				}
			}
		}
		queries = append(queries, uMajorPairs(r, st.n, 0.5)...)
		if rows := checkQueries(t, fmt.Sprintf("reset stage %d", i), ix, rings, queries); rows == 0 {
			t.Errorf("stage %d: no rows built", i)
		}
	}
}

// checkRows groups consecutive queries sharing their first argument into
// rows and answers each row with one AppendAtLeast call (q cycling through
// 0..3), checking that it appends, after dst's prefix, exactly the
// neighbours the merge oracle finds secure, in row order. A row of at least
// breakEven queries must own the counted row after the call; a shorter one
// must not claim a row. After each row, one per-edge query on a random pair
// checks that per-edge queries interleave with rows. It returns the number
// of counted rows and of rows probed against marks (on sparse rings, or on
// dense rings before their bitmap index is built).
func checkRows(t *testing.T, name string, r *rng.Rand, ix *Intersector, rings []Ring, queries []pair) (counted, probed int) {
	t.Helper()
	var vs, want, dst []int32
	for i := 0; i < len(queries); {
		u, j := queries[i].u, i
		for j < len(queries) && queries[j].u == u {
			j++
		}
		q := i % 4
		vs, want = vs[:0], append(want[:0], -1)
		for _, p := range queries[i:j] {
			vs = append(vs, p.v)
			if len(mergeShared(rings[u], rings[p.v])) >= q {
				want = append(want, p.v)
			}
		}
		before := ix.rowU
		dst = ix.AppendAtLeast(u, vs, q, append(dst[:0], -1))
		if !slices.Equal(dst, want) {
			t.Fatalf("%s: AppendAtLeast(%d, %v, %d) = %v, want %v", name, u, vs, q, dst[1:], want[1:])
		}
		switch {
		case q == 0:
		case j-i >= ix.breakEven:
			if ix.rowU != u {
				t.Fatalf("%s: row %d of %d queries (break-even %d) not claimed", name, u, j-i, ix.breakEven)
			}
			counted++
		case ix.rowU != before:
			t.Fatalf("%s: row %d of %d queries (break-even %d) claimed a row", name, u, j-i, ix.breakEven)
		case ix.rowU != u && !ix.built:
			probed++
		}
		a, b := int32(r.Intn(len(rings))), int32(r.Intn(len(rings)))
		checkQuery(t, name, ix, rings, 0, pair{a, b})
		i = j
	}
	return counted, probed
}

// shuffledRows lists rows in a random sensor order, each a random subset
// of the other sensors on both sides of u, in random order, and now and
// then u itself: row shapes no emitter produces, which every strategy must
// still answer exactly.
func shuffledRows(r *rng.Rand, n int, p float64) []pair {
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	r.Shuffle(n, func(i, j int) { order[i], order[j] = order[j], order[i] })
	var ps []pair
	for _, u := range order {
		start := len(ps)
		for v := 0; v < n; v++ {
			if (v != u || r.Bernoulli(0.1)) && r.Bernoulli(p) {
				ps = append(ps, pair{int32(u), int32(v)})
			}
		}
		row := ps[start:]
		r.Shuffle(len(row), func(i, j int) { row[i], row[j] = row[j], row[i] })
	}
	return ps
}

// TestIntersectorRowQueries pins the row call to the merge oracle: u-major
// rows (on/off draws), rows that revisit a sensor and reach below it
// (heterogeneous class blocks), rows in arbitrary orders, sparse rings
// that count most rows, sparse rings whose break-even leaves short rows to
// the probe, and dense rings whose break-even leaves short rows to the
// probe until their probes have paid for the bitmap index, and to the
// bitmap from then on.
func TestIntersectorRowQueries(t *testing.T) {
	r := rng.New(47)
	const pool, n = 10000, 300
	ix, err := NewIntersector(pool)
	if err != nil {
		t.Fatal(err)
	}
	rings := randomRings(t, r, pool, 40, n)
	if err := ix.Reset(rings); err != nil {
		t.Fatal(err)
	}
	if counted, _ := checkRows(t, "u-major", r, ix, rings, uMajorPairs(r, n, 0.3)); counted < n/2 {
		t.Errorf("u-major: %d counted rows over %d sensors, want most", counted, n)
	}
	checkRows(t, "shuffled rows", r, ix, rings, shuffledRows(r, n, 0.3))

	het, err := NewHeterogeneous(pool, 2, []Class{{Mu: 0.6, RingSize: 20}, {Mu: 0.4, RingSize: 120}})
	if err != nil {
		t.Fatal(err)
	}
	hasg, err := het.AssignInto(r, n, new(RingArena))
	if err != nil {
		t.Fatal(err)
	}
	if err := ix.Reset(hasg.Rings); err != nil {
		t.Fatal(err)
	}
	if counted, _ := checkRows(t, "class blocks", r, ix, hasg.Rings, classBlockPairs(r, hasg.Labels, 2, 0.5)); counted == 0 {
		t.Error("class blocks: no row counted")
	}

	// Sparse rings over many sensors: a break-even of 5, so the short rows
	// of a thin draw are probed.
	probe, err := NewIntersector(3000)
	if err != nil {
		t.Fatal(err)
	}
	const nProbe = 3000
	rings = randomRings(t, r, 3000, 20, nProbe)
	if err := probe.Reset(rings); err != nil || probe.Dense() || probe.breakEven != 5 {
		t.Fatalf("K = 20, P = 3000, n = %d: Reset %v, Dense() = %v, break-even %d; want the probe strategy at 5",
			nProbe, err, probe.Dense(), probe.breakEven)
	}
	for _, tc := range []struct {
		name    string
		queries []pair
	}{
		{"probed u-major", uMajorPairs(r, nProbe, 0.001)},
		{"probed shuffled rows", shuffledRows(r, nProbe, 0.001)},
	} {
		counted, probed := checkRows(t, tc.name, r, probe, rings, tc.queries)
		if counted == 0 || probed < nProbe/3 {
			t.Errorf("%s: %d counted and %d probed rows, want both, mostly probed", tc.name, counted, probed)
		}
	}

	dense, err := NewIntersector(600)
	if err != nil {
		t.Fatal(err)
	}
	rings = randomRings(t, r, 600, 30, n)
	if err := dense.Reset(rings); err != nil || !dense.Dense() || dense.built {
		t.Fatalf("K = 30, P = 600: Reset %v, Dense() = %v, index built %v; want the dense strategy, unbuilt",
			err, dense.Dense(), dense.built)
	}
	// The short rows of a thin draw, and the per-edge queries between them,
	// are probed until they have paid for the index, then ANDed.
	if _, probed := checkRows(t, "dense", r, dense, rings, uMajorPairs(r, n, 0.05)); probed == 0 || !dense.built {
		t.Errorf("dense: %d probed rows, index built %v; want probes, then the index", probed, dense.built)
	}
	checkRows(t, "dense shuffled rows", r, dense, rings, shuffledRows(r, n, 0.05))
	// Those direct queries paid for the index, so the next rings build it
	// at their first direct query; one query pays for nothing, so the
	// rings after those rent again.
	for i, wantBuilt := range []bool{true, false} {
		if err := dense.Reset(rings); err != nil || dense.built {
			t.Fatalf("dense reset %d: %v, index built %v", i, err, dense.built)
		}
		checkQuery(t, "dense reset", dense, rings, 1, pair{0, 1})
		if dense.built != wantBuilt {
			t.Fatalf("dense reset %d: index built %v after one direct query, want %v", i, dense.built, wantBuilt)
		}
	}
	if counted, _ := checkRows(t, "dense-complete", r, dense, rings, uMajorPairs(r, n, 1)); counted == 0 {
		t.Error("dense-complete: no row counted")
	}
}

// TestIntersectorProbeAcrossResets pins that no mark outlives its rings:
// one arena is assigned again and again, overwriting the rings the
// previous Reset saw, and each deployment first asks about the sensor the
// previous one marked last — in a short row holding the sensor itself at
// q = K, or per edge against itself, by turns. Its ring shares all K keys with
// itself; marks left from the overwritten ring, or cleared by re-reading
// it, would share almost none.
func TestIntersectorProbeAcrossResets(t *testing.T) {
	const pool, ring, n = 3000, 20, 3000
	s, err := NewQComposite(pool, ring, 1)
	if err != nil {
		t.Fatal(err)
	}
	ix, err := NewIntersector(pool)
	if err != nil {
		t.Fatal(err)
	}
	var arena RingArena
	r := rng.New(48)
	for round := 0; round < 6; round++ {
		prev := ix.markedU
		asg, err := s.AssignInto(r, n, &arena)
		if err != nil {
			t.Fatal(err)
		}
		if err := ix.Reset(asg.Rings); err != nil {
			t.Fatal(err)
		}
		switch {
		case prev < 0:
		case round%2 == 0:
			vs := []int32{(prev + 1) % n, prev, (prev + 7) % n}
			want := []int32{}
			for _, v := range vs {
				if len(mergeShared(asg.Rings[prev], asg.Rings[v])) >= ring {
					want = append(want, v)
				}
			}
			if got := ix.AppendAtLeast(prev, vs, ring, nil); !slices.Equal(got, want) {
				t.Fatalf("round %d: AppendAtLeast(%d, %v, %d) = %v, want %v", round, prev, vs, ring, got, want)
			}
			if ix.rowU == prev {
				t.Fatalf("round %d: a row of %d claimed a row at break-even %d", round, len(vs), ix.breakEven)
			}
		default:
			if got := ix.SharedCount(prev, prev); got != ring {
				t.Fatalf("round %d: SharedCount(%d,%d) = %d, want %d", round, prev, prev, got, ring)
			}
		}
		_, probed := checkRows(t, fmt.Sprintf("round %d", round), r, ix, asg.Rings, uMajorPairs(r, n, 0.001))
		if probed == 0 || ix.markedU < 0 {
			t.Fatalf("round %d: %d rows probed, marks on %d", round, probed, ix.markedU)
		}
	}
}

// halfUse records, for one row owner, whether it was claimed by a query
// naming it as first argument, which halves later queries read, and how
// many times each half was counted.
type halfUse struct {
	byFirst          bool
	needHi, needLo   int // 1 once a query reads the half
	countHi, countLo int
}

// checkHalves issues the queries like checkQueries and records, per row
// owner, the halves its queries read and the halves it counted.
func checkHalves(t *testing.T, name string, ix *Intersector, rings []Ring, queries []pair) map[int32]*halfUse {
	t.Helper()
	owners := map[int32]*halfUse{}
	for i, p := range queries {
		before, hi, lo := ix.rowU, ix.hiU >= 0, ix.loU >= 0
		checkQuery(t, name, ix, rings, i, p)
		o := ix.rowU
		if o != p.u && o != p.v {
			continue // served by the merge
		}
		if o != before {
			owners[o] = &halfUse{byFirst: o == p.u}
			hi, lo = false, false
		}
		use := owners[o]
		switch w := p.u ^ p.v ^ o; {
		case w > o:
			use.needHi = 1
		case w < o:
			use.needLo = 1
		}
		if !hi && ix.hiU >= 0 {
			use.countHi++
		}
		if !lo && ix.loU >= 0 {
			use.countLo++
		}
	}
	return owners
}

// TestIntersectorRowHalves pins the lazy halves: every owner counts a half
// exactly once if some query reads it and never otherwise. u-major queries
// read only upper halves of the rows they claim; orders that visit both
// sides of a sensor — whole columns, or whole rows in descending order —
// count both halves of most owners.
func TestIntersectorRowHalves(t *testing.T) {
	r := rng.New(33)
	const pool, n = 10000, 300
	rings := randomRings(t, r, pool, 40, n)
	ix, err := NewIntersector(pool)
	if err != nil {
		t.Fatal(err)
	}
	var column, descending []pair
	for v := int32(0); v < n; v++ {
		for u := int32(0); u < n; u++ {
			if u != v {
				column = append(column, pair{u, v})
			}
		}
	}
	for u := int32(n - 1); u >= 0; u-- {
		for v := int32(n - 1); v >= 0; v-- {
			if v != u {
				descending = append(descending, pair{u, v})
			}
		}
	}
	for _, tc := range []struct {
		name    string
		queries []pair
		uMajor  bool
	}{
		{"u-major", uMajorPairs(r, n, 0.5), true},
		{"column", column, false},
		{"descending", descending, false},
	} {
		if err := ix.Reset(rings); err != nil {
			t.Fatal(err)
		}
		owners := checkHalves(t, tc.name, ix, rings, tc.queries)
		both, byFirst := 0, 0
		for o, use := range owners {
			if use.countHi != use.needHi || use.countLo != use.needLo {
				t.Errorf("%s: owner %d counted halves (upper %d, lower %d), read (upper %d, lower %d)",
					tc.name, o, use.countHi, use.countLo, use.needHi, use.needLo)
			}
			if use.countHi == 1 && use.countLo == 1 {
				both++
			}
			if use.byFirst {
				byFirst++
				// A u-major run on its first argument only asks about w > u.
				if tc.uMajor && use.countLo != 0 {
					t.Errorf("%s: owner %d claimed as first argument counted its lower half", tc.name, o)
				}
			}
		}
		if tc.uMajor && byFirst < n/2 {
			t.Errorf("%s: %d rows claimed on the first argument, want most sensors", tc.name, byFirst)
		}
		if !tc.uMajor && both < n/2 {
			t.Errorf("%s: %d owners counted both halves, want most sensors", tc.name, both)
		}
	}
}

// TestIntersectorSelfQueries pins u == v on every strategy, both as the
// first query of a run (merge or bitmap) and on a row owner, where it
// answers Len without counting a half.
func TestIntersectorSelfQueries(t *testing.T) {
	r := rng.New(34)
	for _, tc := range []struct{ pool, ring int }{{10000, 40}, {600, 30}} {
		const n = 40
		rings := randomRings(t, r, tc.pool, tc.ring, n)
		ix, err := NewIntersector(tc.pool)
		if err != nil {
			t.Fatal(err)
		}
		check := func(stage string, u int32) {
			t.Helper()
			k := rings[u].Len()
			if got := ix.SharedCount(u, u); got != k {
				t.Fatalf("pool=%d %s: SharedCount(%d,%d) = %d, want %d", tc.pool, stage, u, u, got, k)
			}
			for _, q := range []int{0, k, k + 1} {
				if got := ix.HasAtLeast(u, u, q); got != (k >= q) {
					t.Fatalf("pool=%d %s: HasAtLeast(%d,%d,%d) = %v with Len %d", tc.pool, stage, u, u, q, got, k)
				}
			}
		}
		for u := int32(0); u < n; u++ {
			for q := range 2 {
				if err := ix.Reset(rings); err != nil {
					t.Fatal(err)
				}
				if q == 0 {
					check("first query", u)
					continue
				}
				// Claim u's row, then ask about u itself.
				for w := int32(0); ix.rowU != u && w < n; w++ {
					if w != u {
						ix.SharedCount(u, w)
					}
				}
				if ix.rowU != u {
					continue // dense break-even is out of reach at n = 40
				}
				hi, lo := ix.hiU, ix.loU
				check("row owner", u)
				if ix.rowU != u || ix.hiU != hi || ix.loU != lo {
					t.Fatalf("pool=%d: self queries on owner %d changed the row", tc.pool, u)
				}
			}
		}
	}
}

// TestIntersectorFullOverlapRows pins the branch-free counted row at its
// bound: with P = K every ring holds the whole pool, every pair shares
// every key, and a row counted on both halves touches all n sensors. The
// rows are claimed directly (at a stride of one word the break-even is 4n
// queries). Each Reset grows n, so the row counters must grow with the
// rings.
func TestIntersectorFullOverlapRows(t *testing.T) {
	const pool = 8
	ix, err := NewIntersector(pool)
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range []int{3, 40, 41, 200} {
		rings := randomRings(t, rng.New(uint64(n)), pool, pool, n)
		if err := ix.Reset(rings); err != nil {
			t.Fatal(err)
		}
		all := make([]int32, n)
		for v := range all {
			all[v] = int32(v)
		}
		for _, u := range []int32{0, int32(n / 2), int32(n - 1)} {
			ix.claimRow(u)
			got := ix.AppendAtLeast(u, all, pool, nil)
			if !slices.Equal(got, all) || ix.rowU != u {
				t.Fatalf("n = %d: AppendAtLeast(%d, all, %d) = %v on row owner %d, want every sensor on row %d",
					n, u, pool, got, ix.rowU, u)
			}
			if want := 1 + min(1, int(u))*int(u) + min(1, n-1-int(u))*(n-1-int(u)); ix.nTouched != want {
				t.Fatalf("n = %d, u = %d: %d sensors touched, want %d", n, u, ix.nTouched, want)
			}
			for w := int32(0); int(w) < n; w++ {
				if got := ix.SharedCount(u, w); got != pool {
					t.Fatalf("n = %d: SharedCount(%d,%d) = %d, want %d", n, u, w, got, pool)
				}
			}
			if ix.nTouched != n {
				t.Fatalf("n = %d, u = %d: %d sensors touched after both halves, want %d", n, u, ix.nTouched, n)
			}
		}
	}
}

// TestIntersectorResetFromMatchesReset pins ResetFrom's provenance rule: it
// trusts exactly the arena's last draw, and an Intersector reset on those
// rings answers every query as one reset by Reset on hand-built copies —
// in draw order or sorted — whichever strategy the rings select. Rings the
// arena did not draw last, or headers written over its assignment, are
// checked like Reset's, so an out-of-pool ID among them is an error.
func TestIntersectorResetFromMatchesReset(t *testing.T) {
	r := rng.New(49)
	must := func(s Scheme, err error) Scheme {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	for _, tc := range []struct {
		name   string
		scheme Scheme
		dense  bool
	}{
		{"sparse", must(NewQComposite(10000, 40, 2)), false},
		{"dense", must(NewQComposite(600, 30, 2)), true},
		{"heterogeneous", must(NewHeterogeneous(4000, 2, []Class{{Mu: 0.5, RingSize: 20}, {Mu: 0.5, RingSize: 60}})), false},
	} {
		const n = 200
		var arena RingArena
		asg, err := tc.scheme.AssignInto(r, n, &arena)
		if err != nil {
			t.Fatal(err)
		}
		if !arena.drew(asg.Rings, tc.scheme.PoolSize()) || arena.drew(asg.Rings, tc.scheme.PoolSize()-1) {
			t.Fatalf("%s: the arena's own draw not trusted at its pool, or trusted at a smaller one", tc.name)
		}
		copies := make([]Ring, n)
		sorted := make([]Ring, n)
		for v, ring := range asg.Rings {
			copies[v] = Ring{ids: slices.Clone(ring.ids)}
			sorted[v] = NewRing(ring.ids)
		}
		if arena.drew(copies, tc.scheme.PoolSize()) || arena.drew(asg.Rings[1:], tc.scheme.PoolSize()) {
			t.Fatalf("%s: copies, or a suffix of the draw, trusted as the draw", tc.name)
		}
		queries := append(uMajorPairs(r, n, 0.05), shuffledRows(r, n, 0.02)...)
		queries = append(queries, uMajorPairs(r, n, 0.5)...)
		var answers [3][]int32
		for i, reset := range []func(ix *Intersector) error{
			func(ix *Intersector) error { return ix.ResetFrom(&arena, asg.Rings) },
			func(ix *Intersector) error { return ix.Reset(copies) },
			func(ix *Intersector) error { return ix.ResetFrom(&arena, sorted) },
		} {
			ix, err := NewIntersector(tc.scheme.PoolSize())
			if err != nil {
				t.Fatal(err)
			}
			if err := reset(ix); err != nil || ix.Dense() != tc.dense {
				t.Fatalf("%s: reset %d: %v, Dense() = %v, want %v", tc.name, i, err, ix.Dense(), tc.dense)
			}
			var dst []int32
			for j := 0; j < len(queries); {
				u, k := queries[j].u, j
				vs := []int32{}
				for ; k < len(queries) && queries[k].u == u; k++ {
					vs = append(vs, queries[k].v)
				}
				if j%3 == 0 {
					for _, v := range vs {
						answers[i] = append(answers[i], int32(ix.SharedCount(u, v)))
					}
				} else {
					dst = ix.AppendAtLeast(u, vs, 2, dst[:0])
					answers[i] = append(append(answers[i], -1), dst...)
				}
				j = k
			}
		}
		if !slices.Equal(answers[0], answers[1]) || !slices.Equal(answers[0], answers[2]) {
			t.Errorf("%s: ResetFrom on the arena's rings and Reset on copies answer differently", tc.name)
		}

		// Headers written over the draw, as a wrapper scheme might: the
		// arena's IDs are untouched, but the rings are no longer its draw.
		asg.Rings[1] = NewRing([]ID{3, ID(tc.scheme.PoolSize())})
		if arena.drew(asg.Rings, tc.scheme.PoolSize()) {
			t.Fatalf("%s: an overwritten header trusted as the draw", tc.name)
		}
		ix, err := NewIntersector(tc.scheme.PoolSize())
		if err != nil {
			t.Fatal(err)
		}
		if err := ix.ResetFrom(&arena, asg.Rings); err == nil {
			t.Errorf("%s: ResetFrom accepted an out-of-pool ID written over the draw", tc.name)
		}
	}
}

// FuzzIntersectorQueries decodes arbitrary bytes into rings over a small
// pool, each holding distinct keys in the order given, plus a query
// sequence — fresh pairs, runs on the first or second argument, whole rows
// of arbitrary neighbours, and Resets to a prefix of the rings, each either
// leaving the dense index to be built when probes have paid for it or
// building it at once — and checks every answer, per edge or per row,
// against the merge oracle. On dense rings, direct queries thus come both
// before and after the index is built.
func FuzzIntersectorQueries(f *testing.F) {
	f.Add([]byte{199, 5, 3, 1, 2, 3, 3, 2, 3, 4, 2, 1, 9, 0, 4, 0, 1, 65, 2, 65, 3, 65, 4, 129, 0, 129, 1, 192, 2, 0, 1})
	f.Add([]byte{40, 3, 10, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 10, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 0, 7, 2, 1, 65, 0, 66, 1, 67, 2})
	f.Add([]byte{255, 8, 1, 200, 0, 2, 0, 255, 1, 7, 1, 9, 3, 1, 2, 3, 1, 4, 0, 1, 0, 2, 64, 3, 64, 4, 64, 5, 128, 6, 128, 7, 195, 3, 1, 2})
	// Self queries (u == v) and second-argument runs with v < u, on a row
	// owner and as a run's first query.
	f.Add([]byte{49, 3, 5, 1, 2, 3, 4, 5, 5, 3, 4, 5, 6, 7, 4, 1, 3, 5, 7, 3, 2, 4, 6, 0, 0, 4, 0, 2, 1, 66, 0, 68, 1, 65, 2, 70, 3, 64, 2, 128, 3, 130, 1, 132, 0, 129, 2})
	f.Add([]byte{49, 3, 5, 1, 2, 3, 4, 5, 5, 3, 4, 5, 6, 7, 4, 1, 3, 5, 7, 3, 2, 4, 6, 3, 2, 66, 1, 67, 0, 65, 3, 68, 3, 6, 1, 129, 0, 130, 2, 131, 3})
	// Dense rings (pool 49) probed per edge and per row until the index
	// pays, then a Reset that builds it at once (b = 0x80) and more of both.
	f.Add([]byte{48, 5, 4, 9, 2, 7, 1, 4, 7, 9, 3, 1, 3, 5, 3, 2, 1, 4, 3, 4, 9, 1, 2, 3, 0, 1, 2, 2, 3, 1, 2, 4, 3, 1, 4, 3, 1, 2, 3, 0, 3, 1, 4, 1, 2, 3, 4, 2, 1, 2, 3, 4, 0, 3, 1, 4, 192, 128, 0, 1, 1, 2, 2, 4, 3, 4, 1, 2, 3, 4, 0, 1})
	// Rings out of order and whole rows: dense (pool 49), then sparse.
	f.Add([]byte{48, 5, 4, 9, 2, 7, 1, 4, 7, 9, 3, 1, 3, 5, 3, 2, 1, 4, 3, 4, 9, 1, 2, 3, 0, 4, 1, 2, 3, 4, 7, 1, 3, 2, 0, 4, 0, 3, 4, 1, 2, 3})
	f.Add([]byte{250, 6, 3, 200, 7, 90, 3, 90, 7, 1, 2, 7, 200, 3, 3, 200, 90, 7, 0, 1, 9, 3, 0, 5, 1, 2, 3, 4, 5, 7, 2, 4, 0, 1, 3, 4, 5, 15, 5, 4, 1, 2, 3, 4, 5, 195, 4, 3, 0, 3, 1, 2, 3})
	f.Fuzz(func(t *testing.T, data []byte) {
		next := func() (byte, bool) {
			if len(data) == 0 {
				return 0, false
			}
			b := data[0]
			data = data[1:]
			return b, true
		}
		pb, ok1 := next()
		nb, ok2 := next()
		if !ok1 || !ok2 {
			return
		}
		pool, n := 1+int(pb), 1+int(nb)%24
		rings := make([]Ring, n)
		for i := range rings {
			l, _ := next()
			ids := make([]ID, 0, l%12)
			for range l % 12 {
				b, _ := next()
				if k := ID(int(b) % pool); !slices.Contains(ids, k) {
					ids = append(ids, k)
				}
			}
			rings[i] = Ring{ids: ids}
		}
		ix, err := NewIntersector(pool)
		if err != nil {
			t.Fatal(err)
		}
		live := rings
		if err := ix.Reset(live); err != nil {
			t.Fatal(err)
		}
		var u, v int32
		var vs, got, want []int32
		for {
			a, ok1 := next()
			b, ok2 := next()
			if !ok1 || !ok2 {
				return
			}
			m := int32(len(live))
			switch a >> 6 {
			case 0:
				u, v = int32(a)%m, int32(b)%m
			case 1:
				v = int32(b) % m
			case 2:
				u = int32(b) % m
			case 3:
				live = rings[:1+int(b)%n]
				if err := ix.Reset(live); err != nil {
					t.Fatal(err)
				}
				if ix.built {
					t.Fatal("Reset built the dense index")
				}
				if b&0x80 != 0 && ix.dense {
					ix.buildFlat()
				}
				u, v = 0, 0
				continue
			}
			q := int(a>>2) % 4
			switch a & 3 {
			case 0, 2:
				want := len(mergeShared(live[u], live[v]))
				if got := ix.HasAtLeast(u, v, q); got != (want >= q) {
					t.Fatalf("HasAtLeast(%d,%d,%d) = %v with %d shared", u, v, q, got, want)
				}
			case 1:
				want := len(mergeShared(live[u], live[v]))
				if got := ix.SharedCount(u, v); got != want {
					t.Fatalf("SharedCount(%d,%d) = %d, want %d", u, v, got, want)
				}
			case 3:
				// A row: v and up to 15 more neighbours from the data.
				l, _ := next()
				vs, want = append(vs[:0], v), want[:0]
				for range l % 16 {
					w, _ := next()
					vs = append(vs, int32(w)%m)
				}
				for _, w := range vs {
					if len(mergeShared(live[u], live[w])) >= q {
						want = append(want, w)
					}
				}
				got = ix.AppendAtLeast(u, vs, q, got[:0])
				if !slices.Equal(got, want) {
					t.Fatalf("AppendAtLeast(%d, %v, %d) = %v, want %v", u, vs, q, got, want)
				}
			}
		}
	})
}

// BenchmarkIntersectorHasAtLeast measures the hot predicate of discovery
// in two configurations, each with the query order its workload produces:
//
//   - ladder: the streaming ladder (P = 512, K = 32, q = 2: dense, stride 8 —
//     one cache line per ring) over n = 100000 rings with sequential u and
//     uniform random v, the latency-bound load the flat-arena layout exists
//     for. Runs never reach the row break-even (≈ 25000 queries).
//   - fig1: a Figure-1 point (P = 10000, K = 40, q = 2: merge, break-even 2)
//     over n = 1000 rings with the u-major queries of an on/off draw at
//     p = 0.5, so nearly every query is a row-counter read.
func BenchmarkIntersectorHasAtLeast(b *testing.B) {
	const q = 2
	b.Run("ladder", func(b *testing.B) {
		const n = 100_000
		ix := benchIntersector(b, 512, 32, n, true)
		r := rng.New(12)
		hits := 0
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			u := int32(i % n)
			v := int32(r.Uint64() % n)
			if ix.HasAtLeast(u, v, q) {
				hits++
			}
		}
		b.ReportMetric(float64(hits)/float64(b.N), "hit/op")
	})
	b.Run("fig1", func(b *testing.B) {
		ix := benchIntersector(b, 10000, 40, 1000, false)
		ps := uMajorPairs(rng.New(12), 1000, 0.5)
		hits := 0
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			p := ps[i%len(ps)]
			if ix.HasAtLeast(p.u, p.v, q) {
				hits++
			}
		}
		b.ReportMetric(float64(hits)/float64(b.N), "hit/op")
	})
}

// benchIntersector returns an Intersector reset to n q-composite rings of
// the given size, checking that it selected the expected strategy.
func benchIntersector(b *testing.B, pool, ring, n int, dense bool) *Intersector {
	b.Helper()
	s, err := NewQComposite(pool, ring, 2)
	if err != nil {
		b.Fatal(err)
	}
	asg, err := s.AssignInto(rng.New(11), n, new(RingArena))
	if err != nil {
		b.Fatal(err)
	}
	ix, err := NewIntersector(pool)
	if err != nil {
		b.Fatal(err)
	}
	if err := ix.Reset(asg.Rings); err != nil {
		b.Fatal(err)
	}
	if ix.Dense() != dense {
		b.Fatalf("P = %d, K = %d: Dense() = %v, want %v", pool, ring, ix.Dense(), dense)
	}
	return ix
}

// benchRow is one row of BenchmarkIntersectorRow: a sensor and its
// neighbours.
type benchRow struct {
	u  int32
	vs []int32
}

// BenchmarkIntersectorRow measures AppendAtLeast over the rows of one
// deployment, Reset included, reported per query, at four shapes:
//
//   - plateau: dense rows (n = 5000, P = 512, K = 32, q = 2) of a u-major
//     on/off draw at the plateau's p = 8·ln n/(0.594·n), about 57
//     neighbours a row, far below the break-even of 625, so the bitmap
//     index is built once the first few dozen rows have paid for it;
//   - fig1: counted rows (n = 1000, P = 10⁴, K = 60, q = 2) of a u-major
//     draw at p = 0.5, break-even 2;
//   - sweepd: a sweepd job's point (n = 400, P = 4000, K = 60, q = 2) at
//     p = 0.5: dense rings, yet with a break-even of 3 nearly every row is
//     counted and the bitmap index is never built;
//   - probed: short sparse rows (n = 5000, P = 10⁴, K = 60, q = 2) of four
//     random neighbours each, below the break-even of 8.
func BenchmarkIntersectorRow(b *testing.B) {
	uMajorRows := func(r *rng.Rand, n int, p float64) []benchRow {
		var rows []benchRow
		for u := int32(0); int(u) < n; u++ {
			row := benchRow{u: u}
			for v := u + 1; int(v) < n; v++ {
				if r.Bernoulli(p) {
					row.vs = append(row.vs, v)
				}
			}
			if len(row.vs) > 0 {
				rows = append(rows, row)
			}
		}
		return rows
	}
	for _, sh := range []struct {
		name          string
		n, pool, ring int
		dense         bool
		rows          func(r *rng.Rand, n int) []benchRow
	}{
		{"plateau", 5000, 512, 32, true, func(r *rng.Rand, n int) []benchRow {
			return uMajorRows(r, n, 8*math.Log(float64(n))/(0.594*float64(n)))
		}},
		{"fig1", 1000, 10000, 60, false, func(r *rng.Rand, n int) []benchRow { return uMajorRows(r, n, 0.5) }},
		{"sweepd", 400, 4000, 60, true, func(r *rng.Rand, n int) []benchRow { return uMajorRows(r, n, 0.5) }},
		{"probed", 5000, 10000, 60, false, func(r *rng.Rand, n int) []benchRow {
			rows := make([]benchRow, n)
			for u := range rows {
				rows[u].u = int32(u)
				for range 4 {
					rows[u].vs = append(rows[u].vs, int32(r.Intn(n)))
				}
			}
			return rows
		}},
	} {
		b.Run(sh.name, func(b *testing.B) {
			const q = 2
			s, err := NewQComposite(sh.pool, sh.ring, q)
			if err != nil {
				b.Fatal(err)
			}
			var arena RingArena
			asg, err := s.AssignInto(rng.New(11), sh.n, &arena)
			if err != nil {
				b.Fatal(err)
			}
			ix, err := NewIntersector(sh.pool)
			if err != nil {
				b.Fatal(err)
			}
			rows := sh.rows(rng.New(12), sh.n)
			queries := 0
			for _, row := range rows {
				queries += len(row.vs)
			}
			var dst []int32
			secure := 0
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := ix.ResetFrom(&arena, asg.Rings); err != nil {
					b.Fatal(err)
				}
				secure = 0
				for _, row := range rows {
					dst = ix.AppendAtLeast(row.u, row.vs, q, dst[:0])
					secure += len(dst)
				}
			}
			if ix.Dense() != sh.dense {
				b.Fatalf("Dense() = %v, want %v", ix.Dense(), sh.dense)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*queries), "ns/query")
			b.ReportMetric(float64(secure)/float64(queries), "secure/query")
		})
	}
}
