package graphalgo

import (
	"math/rand"
	"testing"
	"testing/quick"

	"github.com/secure-wsn/qcomposite/internal/graph"
)

func TestIsKEdgeConnectedKnown(t *testing.T) {
	tests := []struct {
		name   string
		g      *graph.Undirected
		lambda int
	}{
		{name: "two isolated", g: mustGraph(t, 2, nil), lambda: 0},
		{name: "K2", g: completeGraph(t, 2), lambda: 1},
		{name: "path5", g: pathGraph(t, 5), lambda: 1},
		{name: "cycle6", g: cycleGraph(t, 6), lambda: 2},
		{name: "K5", g: completeGraph(t, 5), lambda: 4},
		{name: "petersen", g: petersen(t), lambda: 3},
		{name: "barbell", g: barbell(t), lambda: 1},
		{name: "K3,3", g: completeBipartite(t, 3, 3), lambda: 3},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			for k := 0; k <= tt.lambda+2; k++ {
				want := k <= tt.lambda
				if got := IsKEdgeConnected(tt.g, k); got != want {
					t.Errorf("IsKEdgeConnected(k=%d) = %v, want %v", k, got, want)
				}
			}
			if got := edgeConnectivityFlow(tt.g); got != tt.lambda {
				t.Errorf("edgeConnectivityFlow = %d, want %d", got, tt.lambda)
			}
		})
	}
}

func TestIsKEdgeConnectedTrivia(t *testing.T) {
	if !IsKEdgeConnected(mustGraph(t, 3, nil), 0) {
		t.Error("0-edge-connectivity must always hold")
	}
	if IsKEdgeConnected(mustGraph(t, 0, nil), 1) {
		t.Error("empty graph is not 1-edge-connected")
	}
	if IsKEdgeConnected(mustGraph(t, 1, nil), 1) {
		t.Error("single vertex is not 1-edge-connected (λ = 0)")
	}
}

func TestQuickEdgeConnectivityFlowMatchesStoerWagner(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 2 + r.Intn(14)
		g := gnp(nil2t(t), r, n, 0.2+r.Float64()*0.6)
		return edgeConnectivityFlow(g) == edgeConnectivity(g)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestQuickEdgeKConnectedConsistentWithLambda(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 2 + r.Intn(12)
		g := gnp(nil2t(t), r, n, 0.3+r.Float64()*0.5)
		lambda := edgeConnectivity(g)
		for k := 0; k <= lambda+2; k++ {
			if IsKEdgeConnected(g, k) != (k <= lambda) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}

func TestQuickVertexImpliesEdgeKConnectivity(t *testing.T) {
	// κ ≥ k ⇒ λ ≥ k (Whitney): vertex k-connectivity implies edge
	// k-connectivity, the ordering the paper's failure model relies on.
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 2 + r.Intn(12)
		g := gnp(nil2t(t), r, n, 0.3+r.Float64()*0.5)
		for k := 1; k <= 4; k++ {
			if IsKConnected(g, k) && !IsKEdgeConnected(g, k) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}

func BenchmarkIsKEdgeConnected3Sparse500(b *testing.B) {
	r := rand.New(rand.NewSource(21))
	g := gnp(b, r, 500, 0.02)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		IsKEdgeConnected(g, 3)
	}
}

// edgeConnectivityFlow computes λ(g) exactly via n−1 uncapped max-flows.
// It and the Stoer–Wagner edgeConnectivity cross-check each other.
func edgeConnectivityFlow(g *graph.Undirected) int {
	n := g.N()
	if n < 2 || !IsConnected(g) {
		return 0
	}
	d := newDinic(n, 2*g.M())
	g.ForEachEdge(func(u, v int32) bool {
		d.addArc(u, v, 1)
		d.addArc(v, u, 1)
		return true
	})
	best := g.MinDegree()
	for v := int32(1); int(v) < n; v++ {
		d.reset()
		if f := int(d.maxFlow(0, v, int32(best))); f < best {
			best = f
		}
	}
	return best
}
