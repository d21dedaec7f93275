package graphalgo

import (
	"math/rand"
	"testing"
	"testing/quick"

	"github.com/secure-wsn/qcomposite/internal/graph"
)

func TestEdgeConnectivityKnown(t *testing.T) {
	tests := []struct {
		name string
		g    *graph.Undirected
		want int
	}{
		{name: "empty", g: mustGraph(t, 0, nil), want: 0},
		{name: "single", g: mustGraph(t, 1, nil), want: 0},
		{name: "disconnected", g: mustGraph(t, 3, []graph.Edge{{U: 0, V: 1}}), want: 0},
		{name: "K2", g: completeGraph(t, 2), want: 1},
		{name: "path5", g: pathGraph(t, 5), want: 1},
		{name: "cycle7", g: cycleGraph(t, 7), want: 2},
		{name: "K5", g: completeGraph(t, 5), want: 4},
		{name: "petersen", g: petersen(t), want: 3},
		{name: "barbell", g: barbell(t), want: 1},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := edgeConnectivity(tt.g); got != tt.want {
				t.Errorf("EdgeConnectivity = %d, want %d", got, tt.want)
			}
		})
	}
}

// barbell is two K4s joined by a single bridge edge.
func barbell(t *testing.T) *graph.Undirected {
	t.Helper()
	var edges []graph.Edge
	for u := int32(0); u < 4; u++ {
		for v := u + 1; v < 4; v++ {
			edges = append(edges, graph.Edge{U: u, V: v})
			edges = append(edges, graph.Edge{U: u + 4, V: v + 4})
		}
	}
	edges = append(edges, graph.Edge{U: 3, V: 4})
	return mustGraph(t, 8, edges)
}

func TestQuickEdgeConnectivityAgainstBrute(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 2 + r.Intn(6)
		g := gnp(nil2t(t), r, n, 0.3+r.Float64()*0.5)
		if g.M() > 10 {
			return true // keep the brute force affordable
		}
		return edgeConnectivity(g) == bruteEdgeConnectivity(nil2t(t), g)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}

// edgeConnectivity returns λ(g), the minimum number of edge removals that
// disconnect g, via the Stoer–Wagner minimum-cut algorithm with unit edge
// weights. It returns 0 for disconnected or trivial graphs.
//
// The implementation is the classic O(n³) array version, ample for the
// experiment sizes where exact λ is needed (Whitney-inequality validation
// and small-network resilience reports).
func edgeConnectivity(g *graph.Undirected) int {
	n := g.N()
	if n < 2 {
		return 0
	}
	if !IsConnected(g) {
		return 0
	}
	// Dense weight matrix; merged vertices accumulate weights.
	w := make([][]int32, n)
	for i := range w {
		w[i] = make([]int32, n)
	}
	g.ForEachEdge(func(u, v int32) bool {
		w[u][v]++
		w[v][u]++
		return true
	})

	active := make([]int32, n) // current super-vertices
	for i := range active {
		active[i] = int32(i)
	}
	best := int32(1<<31 - 1)
	inA := make([]bool, n)
	weightToA := make([]int32, n)

	for len(active) > 1 {
		// Minimum cut phase: maximum adjacency order.
		for _, v := range active {
			inA[v] = false
			weightToA[v] = 0
		}
		var prev, last int32 = -1, -1
		for i := 0; i < len(active); i++ {
			// Select the most tightly connected remaining vertex.
			sel := int32(-1)
			for _, v := range active {
				if !inA[v] && (sel == -1 || weightToA[v] > weightToA[sel]) {
					sel = v
				}
			}
			inA[sel] = true
			prev, last = last, sel
			for _, v := range active {
				if !inA[v] {
					weightToA[v] += w[sel][v]
				}
			}
		}
		// Cut-of-the-phase: last vertex against the rest.
		if weightToA[last] < best {
			best = weightToA[last]
		}
		// Merge last into prev.
		for _, v := range active {
			if v != last && v != prev {
				w[prev][v] += w[last][v]
				w[v][prev] = w[prev][v]
			}
		}
		// Remove last from active.
		for i, v := range active {
			if v == last {
				active = append(active[:i], active[i+1:]...)
				break
			}
		}
	}
	return int(best)
}
