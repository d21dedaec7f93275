package graphalgo

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"github.com/secure-wsn/qcomposite/internal/graph"
	"github.com/secure-wsn/qcomposite/internal/rng"
)

func TestTriangleCount(t *testing.T) {
	tests := []struct {
		name string
		g    *graph.Undirected
		want int
	}{
		{name: "triangle", g: cycleGraph(t, 3), want: 1},
		{name: "cycle4", g: cycleGraph(t, 4), want: 0},
		{name: "K4", g: completeGraph(t, 4), want: 4},
		{name: "K5", g: completeGraph(t, 5), want: 10},
		{name: "path", g: pathGraph(t, 6), want: 0},
		{name: "bowtie", g: mustGraph(t, 5, []graph.Edge{
			{U: 0, V: 1}, {U: 1, V: 2}, {U: 2, V: 0},
			{U: 2, V: 3}, {U: 3, V: 4}, {U: 4, V: 2},
		}), want: 2},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := TriangleCount(tt.g); got != tt.want {
				t.Errorf("TriangleCount = %d, want %d", got, tt.want)
			}
		})
	}
}

func TestGlobalClusteringCoefficient(t *testing.T) {
	if got := GlobalClusteringCoefficient(completeGraph(t, 6)); math.Abs(got-1) > 1e-12 {
		t.Errorf("K6 clustering = %v, want 1", got)
	}
	if got := GlobalClusteringCoefficient(pathGraph(t, 5)); got != 0 {
		t.Errorf("path clustering = %v, want 0", got)
	}
	if got := GlobalClusteringCoefficient(mustGraph(t, 3, nil)); got != 0 {
		t.Errorf("edgeless clustering = %v, want 0", got)
	}
	// Bowtie: 2 triangles, wedges = C(2,2)*4 + C(4,2) = 4*1 + 6 = 10.
	bowtie := mustGraph(t, 5, []graph.Edge{
		{U: 0, V: 1}, {U: 1, V: 2}, {U: 2, V: 0},
		{U: 2, V: 3}, {U: 3, V: 4}, {U: 4, V: 2},
	})
	if got, want := GlobalClusteringCoefficient(bowtie), 0.6; math.Abs(got-want) > 1e-12 {
		t.Errorf("bowtie clustering = %v, want %v", got, want)
	}
}

func TestKCore(t *testing.T) {
	// A triangle with a pendant: 2-core is the triangle.
	g := mustGraph(t, 4, []graph.Edge{
		{U: 0, V: 1}, {U: 1, V: 2}, {U: 2, V: 0}, {U: 2, V: 3},
	})
	alive := kCore(g, 2)
	want := []bool{true, true, true, false}
	for v := range want {
		if alive[v] != want[v] {
			t.Errorf("kCore(2)[%d] = %v, want %v", v, alive[v], want[v])
		}
	}
	// 3-core is empty.
	for v, a := range kCore(g, 3) {
		if a {
			t.Errorf("kCore(3)[%d] = true, want false", v)
		}
	}
	// 0-core keeps everything.
	for v, a := range kCore(g, 0) {
		if !a {
			t.Errorf("kCore(0)[%d] = false, want true", v)
		}
	}
}

func TestKCoreCascade(t *testing.T) {
	// Path: peeling for k=2 cascades from both ends and empties the graph.
	g := pathGraph(t, 6)
	for v, a := range kCore(g, 2) {
		if a {
			t.Errorf("path 2-core kept node %d", v)
		}
	}
}

func TestDegeneracy(t *testing.T) {
	tests := []struct {
		name string
		g    *graph.Undirected
		want int
	}{
		{name: "edgeless", g: mustGraph(t, 4, nil), want: 0},
		{name: "path", g: pathGraph(t, 5), want: 1},
		{name: "cycle", g: cycleGraph(t, 8), want: 2},
		{name: "K5", g: completeGraph(t, 5), want: 4},
		{name: "triangle+pendant", g: mustGraph(t, 4, []graph.Edge{
			{U: 0, V: 1}, {U: 1, V: 2}, {U: 2, V: 0}, {U: 2, V: 3},
		}), want: 2},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := degeneracy(tt.g); got != tt.want {
				t.Errorf("Degeneracy = %d, want %d", got, tt.want)
			}
		})
	}
}

func TestQuickKCoreInvariants(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 1 + r.Intn(30)
		g := gnp(nil2t(t), r, n, 0.2)
		k := r.Intn(5)
		alive := kCore(g, k)
		sub, _, err := graph.InducedSubgraph(g, alive)
		if err != nil {
			return false
		}
		// Everyone surviving has degree ≥ k inside the core.
		if sub.N() > 0 && sub.MinDegree() < k {
			return false
		}
		// Maximality: no discarded vertex has ≥ k alive neighbors.
		for v := int32(0); int(v) < n; v++ {
			if alive[v] {
				continue
			}
			cnt := 0
			for _, w := range g.Neighbors(v) {
				if alive[w] {
					cnt++
				}
			}
			if cnt >= k {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}

func TestQuickDegeneracyBoundsKCore(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 1 + r.Intn(25)
		g := gnp(nil2t(t), r, n, 0.3)
		d := degeneracy(g)
		// d-core non-empty, (d+1)-core empty.
		nonEmpty := false
		for _, a := range kCore(g, d) {
			nonEmpty = nonEmpty || a
		}
		if g.M() > 0 && !nonEmpty {
			return false
		}
		for _, a := range kCore(g, d+1) {
			if a {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}

func TestHamiltonianCycleFindsObvious(t *testing.T) {
	r := rng.New(99)
	tests := []struct {
		name string
		g    *graph.Undirected
	}{
		{name: "cycle12", g: cycleGraph(t, 12)},
		{name: "K6", g: completeGraph(t, 6)},
		{name: "hypercube Q3", g: hypercube(t, 3)},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			cyc, ok := HamiltonianCycle(tt.g, r, 50)
			if !ok {
				t.Fatal("no Hamiltonian cycle found")
			}
			validateHamCycle(t, tt.g, cyc)
		})
	}
}

func validateHamCycle(t *testing.T, g *graph.Undirected, cyc []int32) {
	t.Helper()
	if len(cyc) != g.N() {
		t.Fatalf("cycle length = %d, want %d", len(cyc), g.N())
	}
	seen := make([]bool, g.N())
	for i, v := range cyc {
		if seen[v] {
			t.Fatalf("node %d repeated", v)
		}
		seen[v] = true
		next := cyc[(i+1)%len(cyc)]
		if !g.HasEdge(v, next) {
			t.Fatalf("cycle step (%d,%d) is not an edge", v, next)
		}
	}
}

func TestHamiltonianCycleRejectsImpossible(t *testing.T) {
	r := rng.New(100)
	if _, ok := HamiltonianCycle(pathGraph(t, 5), r, 20); ok {
		t.Error("found Hamiltonian cycle in a path")
	}
	star := mustGraph(t, 4, []graph.Edge{{U: 0, V: 1}, {U: 0, V: 2}, {U: 0, V: 3}})
	if _, ok := HamiltonianCycle(star, r, 20); ok {
		t.Error("found Hamiltonian cycle in a star")
	}
	if _, ok := HamiltonianCycle(mustGraph(t, 0, nil), r, 5); ok {
		t.Error("found cycle in empty graph")
	}
	if cyc, ok := HamiltonianCycle(mustGraph(t, 1, nil), r, 5); !ok || len(cyc) != 1 {
		t.Error("single node should be trivially Hamiltonian")
	}
	if _, ok := HamiltonianCycle(completeGraph(t, 2), r, 5); ok {
		t.Error("K2 has no Hamiltonian cycle")
	}
}

func TestHamiltonianCycleDenseRandom(t *testing.T) {
	// Dense G(n,p) far above the Hamiltonicity threshold: the heuristic
	// should succeed.
	r := rand.New(rand.NewSource(5))
	g := gnp(t, r, 40, 0.5)
	cyc, ok := HamiltonianCycle(g, rng.New(101), 200)
	if !ok {
		t.Fatal("heuristic failed on a dense random graph")
	}
	validateHamCycle(t, g, cyc)
}

func BenchmarkTriangleCount(b *testing.B) {
	r := rand.New(rand.NewSource(14))
	g := gnp(b, r, 500, 0.05)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		TriangleCount(g)
	}
}

// kCore returns the maximal induced subgraph in which every node has degree
// at least k, as an alive mask over g's nodes (all false when the k-core is
// empty). Standard iterative peeling in O(n + m).
func kCore(g *graph.Undirected, k int) []bool {
	n := g.N()
	alive := make([]bool, n)
	deg := make([]int, n)
	var queue []int32
	for v := int32(0); int(v) < n; v++ {
		alive[v] = true
		deg[v] = g.Degree(v)
		if deg[v] < k {
			queue = append(queue, v)
			alive[v] = false
		}
	}
	for len(queue) > 0 {
		v := queue[len(queue)-1]
		queue = queue[:len(queue)-1]
		for _, w := range g.Neighbors(v) {
			if !alive[w] {
				continue
			}
			deg[w]--
			if deg[w] < k {
				alive[w] = false
				queue = append(queue, w)
			}
		}
	}
	return alive
}

// degeneracy returns the graph degeneracy: the largest k for which the
// k-core is non-empty (0 for edgeless graphs).
func degeneracy(g *graph.Undirected) int {
	// Peel by repeatedly removing a minimum-degree vertex; the largest
	// minimum degree seen is the degeneracy. Bucket queue gives O(n + m).
	n := g.N()
	if n == 0 {
		return 0
	}
	deg := make([]int, n)
	maxDeg := 0
	for v := int32(0); int(v) < n; v++ {
		deg[v] = g.Degree(v)
		if deg[v] > maxDeg {
			maxDeg = deg[v]
		}
	}
	buckets := make([][]int32, maxDeg+1)
	for v := int32(0); int(v) < n; v++ {
		buckets[deg[v]] = append(buckets[deg[v]], v)
	}
	removed := make([]bool, n)
	degeneracy := 0
	cur := 0
	for remaining := n; remaining > 0; remaining-- {
		// Find the lowest non-empty bucket; cur only needs to back up by one
		// per removal, keeping the scan amortised linear.
		if cur > 0 {
			cur--
		}
		for {
			for cur <= maxDeg && len(buckets[cur]) == 0 {
				cur++
			}
			v := buckets[cur][len(buckets[cur])-1]
			buckets[cur] = buckets[cur][:len(buckets[cur])-1]
			if removed[v] || deg[v] != cur {
				continue // stale entry
			}
			if cur > degeneracy {
				degeneracy = cur
			}
			removed[v] = true
			for _, w := range g.Neighbors(v) {
				if !removed[w] {
					deg[w]--
					buckets[deg[w]] = append(buckets[deg[w]], w)
				}
			}
			break
		}
	}
	return degeneracy
}
