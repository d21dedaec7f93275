package graphalgo

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"github.com/secure-wsn/qcomposite/internal/graph"
)

// TestQuickIsKConnectedAgainstReferences pins the growing-fan procedure
// against the vertex-split Dinic reference on random G(n ≤ 33, p) at
// k = 3…6, and against brute-force κ for n ≤ 10. One Workspace serves every
// case. Both verdicts must occur often, so neither side can pass by always
// answering the same.
func TestQuickIsKConnectedAgainstReferences(t *testing.T) {
	ws := NewWorkspace()
	verdicts := map[bool]int{}
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 2 + r.Intn(32)
		k := 3 + r.Intn(4)
		g := gnp(t, r, n, 0.2+0.75*r.Float64())
		got := IsKConnectedW(ws, g, k)
		verdicts[got]++
		if want := evenKConnected(g, k); got != want {
			t.Logf("n=%d m=%d k=%d: IsKConnectedW = %v, Even's reference = %v", n, g.M(), k, got, want)
			return false
		}
		if n <= 10 {
			if want := bruteVertexConnectivity(g) >= k; got != want {
				t.Logf("n=%d m=%d k=%d: IsKConnectedW = %v, brute κ ≥ k = %v", n, g.M(), k, got, want)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
	if verdicts[true] < 200 || verdicts[false] < 200 {
		t.Errorf("verdict mix %v: want ≥ 200 of each", verdicts)
	}
}

// TestIsKConnectedWorkspaceReuse alternates growing and shrinking graphs and
// levels k on one Workspace, so stale flow pointers, visit stamps or sink
// marks would change a verdict. Between queries every flow pointer must be
// back at −1. Finally it replays a query right after both stamp generations
// wrap: the replay reuses the first run's stamp values, which must read as
// stale.
func TestIsKConnectedWorkspaceReuse(t *testing.T) {
	ws := NewWorkspace()
	r := rand.New(rand.NewSource(17))
	sizes := []int{40, 9, 64, 12, 30, 7, 90, 15, 33, 5, 48, 20}
	for i, n := range sizes {
		for rep := 0; rep < 10; rep++ {
			k := 3 + (i+rep)%4
			g := gnp(t, r, n, 0.3+0.65*r.Float64())
			if got, want := IsKConnectedW(ws, g, k), evenKConnected(g, k); got != want {
				t.Fatalf("size %d (n=%d, m=%d, k=%d): IsKConnectedW = %v, Even's reference = %v",
					i, n, g.M(), k, got, want)
			}
			for v, p := range ws.pred {
				if p != -1 {
					t.Fatalf("size %d (n=%d, k=%d): pred[%d] = %d left behind", i, n, k, v, p)
				}
			}
		}
	}

	// Wrap both generations with every stamp at 1, the first generation
	// after the wrap, on a 3-connected graph whose verification runs fan
	// searches: the stamps must read as stale. W = {0, 1, 2} is a triangle,
	// so step 1 takes no sink generation and the growing sink gets 1.
	var g *graph.Undirected
	for g == nil {
		h := gnp(t, r, 30, 0.3)
		ws = NewWorkspace()
		triangle := h.HasEdge(0, 1) && h.HasEdge(0, 2) && h.HasEdge(1, 2)
		if triangle && IsKConnectedW(ws, h, 3) && ws.visGen > 0 {
			g = h
		}
	}
	for i := range ws.vis {
		ws.vis[i] = 1
	}
	for i := range ws.sink {
		ws.sink[i] = 1
	}
	ws.visGen, ws.sinkGen = math.MaxUint32, math.MaxUint32
	if !IsKConnectedW(ws, g, 3) {
		t.Error("after the stamp generations wrapped, a 3-connected graph was rejected")
	}
}

// TestAugmentReroutesThroughUsedVertex pins the residual arcs on a fan
// whose second path must take over the first path's last interior vertex
// w and push the first path's whole middle vertex v out of the flow
// (v_out → v_in, then v_in → a_out) so that a reaches the other sink.
// Each step's flow pointers are checked exactly.
func TestAugmentReroutesThroughUsedVertex(t *testing.T) {
	const s, a, c, v, e, d, w, f, t1, t2 = 0, 1, 2, 3, 4, 5, 6, 7, 8, 9
	g := mustGraph(t, 10, []graph.Edge{
		{U: s, V: a}, {U: s, V: c}, {U: a, V: v}, {U: a, V: e}, {U: c, V: d},
		{U: v, V: w}, {U: d, V: w}, {U: w, V: t1}, {U: e, V: f}, {U: f, V: t2},
	})
	ws := NewWorkspace()
	ws.growFan(g.N())
	gen := ws.nextSink()
	ws.sink[t1], ws.sink[t2] = gen, gen
	wantPred := func(step string, want map[int32]int32) {
		t.Helper()
		for x := int32(0); int(x) < g.N(); x++ {
			p, ok := want[x]
			if !ok {
				p = -1
			}
			if ws.pred[x] != p {
				t.Errorf("%s: pred[%d] = %d, want %d", step, x, ws.pred[x], p)
			}
		}
	}
	if !ws.augment(g, s) {
		t.Fatal("first search found no path")
	}
	wantPred("path 1 (s-a-v-w-t1)", map[int32]int32{a: s, v: a, w: v, t1: w})
	if !ws.augment(g, s) {
		t.Fatal("second search found no path: the v_out → v_in arc is missing")
	}
	wantPred("paths s-c-d-w-t1 and s-a-e-f-t2", map[int32]int32{
		a: s, e: a, f: e, t2: f, c: s, d: c, w: d, t1: w,
	})
	if ws.augment(g, s) {
		t.Error("third search found a path, but s has only two neighbours")
	}
}

// Placements of W = {0, …, k−1} in a planted-separator graph.
const (
	wSplit   = iota // W meets both halves: step 1 must catch the cut
	wOneSide        // W inside one half: the growing sink must catch it
	wWithCut        // W in one half plus a cut vertex
)

// plantedSeparator builds a graph on about n vertices with κ = k−1: two
// halves, each a circulant C_m(1…k) (κ = 2k) plus m/2 random chords,
// joined only through k−1 cut vertices with 2k neighbours in either half.
// Vertex ids are shuffled, except that W = {0, …, k−1} sits as place says.
func plantedSeparator(tb testing.TB, r *rand.Rand, n, k, place int) *graph.Undirected {
	tb.Helper()
	cut := k - 1
	m := (n - cut) / 2
	n = 2*m + cut
	// Positions: half A is [0, m), half B is [m, 2m), the cut is [2m, n).
	var edges []graph.Edge
	for base := 0; base < 2*m; base += m {
		for i := 0; i < m; i++ {
			for d := 1; d <= k; d++ {
				edges = append(edges, graph.Edge{U: int32(base + i), V: int32(base + (i+d)%m)})
			}
		}
		for c := 0; c < m/2; c++ {
			if u, v := base+r.Intn(m), base+r.Intn(m); u != v {
				edges = append(edges, graph.Edge{U: int32(u), V: int32(v)})
			}
		}
	}
	for c := 2 * m; c < n; c++ {
		for base := 0; base < 2*m; base += m {
			for _, i := range r.Perm(m)[:2*k] {
				edges = append(edges, graph.Edge{U: int32(c), V: int32(base + i)})
			}
		}
	}

	var w []int // positions that become vertices 0, …, k−1
	next := 0   // first half-A position not yet in w
	switch place {
	case wSplit:
		w, next = []int{0, m}, 1
	case wWithCut:
		w = []int{2 * m}
	}
	for pos := next; len(w) < k; pos++ {
		w = append(w, pos)
	}
	label := make([]int32, n)
	for i := range label {
		label[i] = -1
	}
	for id, pos := range w {
		label[pos] = int32(id)
	}
	rest := r.Perm(n - k)
	for pos := range label {
		if label[pos] < 0 {
			label[pos] = int32(k + rest[0])
			rest = rest[1:]
		}
	}
	for i, e := range edges {
		edges[i] = graph.Edge{U: label[e.U], V: label[e.V]}
	}
	return mustGraph(tb, n, edges)
}

// TestIsKConnectedPlantedSeparator hides a (k−1)-vertex cut between two
// well-connected halves of n ≈ 1000 vertices with minimum degree ≥ k, so
// the degree check cannot answer. With W split across the cut, step 1
// (pairsLinked) must reject; with W on one side, step 1 passes and the
// growing sink must reject at the first vertex past the cut.
func TestIsKConnectedPlantedSeparator(t *testing.T) {
	ws := NewWorkspace()
	r := rand.New(rand.NewSource(23))
	places := []struct {
		name  string
		place int
	}{{"W split", wSplit}, {"W one side", wOneSide}, {"W with cut vertex", wWithCut}}
	for k := 3; k <= 6; k++ {
		for _, pl := range places {
			g := plantedSeparator(t, r, 1000, k, pl.place)
			if g.MinDegree() < k {
				t.Fatalf("k=%d %s: min degree %d < k", k, pl.name, g.MinDegree())
			}
			if !IsKConnectedW(ws, g, k-1) {
				t.Errorf("k=%d %s: not (k−1)-connected, but κ = k−1 by construction", k, pl.name)
			}
			if IsKConnectedW(ws, g, k) {
				t.Errorf("k=%d %s: reported k-connected across a (k−1)-vertex cut", k, pl.name)
			}
			ws.growFan(g.N())
			linked := ws.pairsLinked(g, k)
			switch {
			case pl.place == wSplit && linked:
				t.Errorf("k=%d %s: step 1 missed the W pair across the cut", k, pl.name)
			case pl.place != wSplit && !linked:
				t.Errorf("k=%d %s: step 1 rejected W inside one side", k, pl.name)
			case pl.place != wSplit && ws.growSink(g, k):
				t.Errorf("k=%d %s: the growing sink crossed the cut", k, pl.name)
			}
		}
	}
}

// TestIsKConnectedWAllocFree gates the k ≥ 3 path at 0 allocs per query on
// a reused Workspace — a passing verification and both kinds of rejection.
func TestIsKConnectedWAllocFree(t *testing.T) {
	r := rand.New(rand.NewSource(29))
	graphs := map[string]*graph.Undirected{
		"3-connected":   plantedSeparator(t, r, 1000, 4, wOneSide),
		"step-1 cut":    plantedSeparator(t, r, 1000, 3, wSplit),
		"sink-side cut": plantedSeparator(t, r, 1000, 3, wOneSide),
	}
	ws := NewWorkspace()
	for name, g := range graphs {
		IsKConnectedW(ws, g, 3) // grow the scratch
		if avg := testing.AllocsPerRun(20, func() { IsKConnectedW(ws, g, 3) }); avg != 0 {
			t.Errorf("%s: IsKConnectedW(ws, g, 3) allocates %.1f allocs/run, want 0", name, avg)
		}
	}
}

// FuzzIsKConnected decodes a small graph and a level from bytes and checks
// IsKConnectedW, through one Workspace reused across inputs, against the
// vertex-split Even's reference. Byte 0 picks n ∈ [1, 24]; byte 1 picks
// k ∈ [0, 7] (low three bits) and whether the graph is the complement of
// the listed edges (bit 3), so dense graphs stay reachable; each further
// byte pair is an edge.
func FuzzIsKConnected(f *testing.F) {
	f.Add([]byte{7, 3, 0, 1, 1, 2, 2, 3, 3, 4, 4, 5, 5, 6, 6, 0})
	f.Add([]byte{10, 8 | 3, 0, 5, 1, 6})
	f.Add([]byte{12, 8 | 4, 0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11})
	f.Add([]byte{20, 8 | 5, 0, 10, 1, 11, 2, 12, 3, 13, 4, 14})
	ws := NewWorkspace()
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 2 {
			return
		}
		n := 1 + int(data[0])%24
		k := int(data[1] & 7)
		listed := make([]bool, n*n)
		for i := 2; i+1 < len(data); i += 2 {
			u, v := int(data[i])%n, int(data[i+1])%n
			listed[u*n+v], listed[v*n+u] = true, true
		}
		complement := data[1]&8 != 0
		var edges []graph.Edge
		for u := 0; u < n; u++ {
			for v := u + 1; v < n; v++ {
				if listed[u*n+v] != complement {
					edges = append(edges, graph.Edge{U: int32(u), V: int32(v)})
				}
			}
		}
		g, err := graph.NewFromEdges(n, edges)
		if err != nil {
			t.Fatal(err)
		}
		if got, want := IsKConnectedW(ws, g, k), evenKConnected(g, k); got != want {
			t.Fatalf("n=%d m=%d k=%d: IsKConnectedW = %v, Even's reference = %v (edges %v)",
				n, g.M(), k, got, want, edges)
		}
	})
}
