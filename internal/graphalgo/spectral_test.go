package graphalgo

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"github.com/secure-wsn/qcomposite/internal/graph"
)

func TestAlgebraicConnectivityKnownValues(t *testing.T) {
	const iters = 3000
	tests := []struct {
		name string
		mk   func() float64
		want float64
	}{
		{
			name: "path 6: 2(1-cos(pi/6))",
			mk:   func() float64 { return AlgebraicConnectivity(pathGraph(t, 6), iters) },
			want: 2 * (1 - math.Cos(math.Pi/6)),
		},
		{
			name: "cycle 8: 2(1-cos(2pi/8))",
			mk:   func() float64 { return AlgebraicConnectivity(cycleGraph(t, 8), iters) },
			want: 2 * (1 - math.Cos(2*math.Pi/8)),
		},
		{
			name: "K6: n",
			mk:   func() float64 { return AlgebraicConnectivity(completeGraph(t, 6), iters) },
			want: 6,
		},
		{
			name: "K3,3: min side",
			mk:   func() float64 { return AlgebraicConnectivity(completeBipartite(t, 3, 3), iters) },
			want: 3,
		},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			got := tt.mk()
			if math.Abs(got-tt.want) > 0.02*tt.want+0.01 {
				t.Errorf("lambda2 = %v, want %v", got, tt.want)
			}
		})
	}
}

func TestAlgebraicConnectivityDisconnectedIsZero(t *testing.T) {
	// Two disjoint triangles.
	g := mustGraph(t, 6, []graph.Edge{
		{U: 0, V: 1}, {U: 1, V: 2}, {U: 2, V: 0},
		{U: 3, V: 4}, {U: 4, V: 5}, {U: 5, V: 3},
	})
	got := AlgebraicConnectivity(g, 2000)
	if got > 1e-6 {
		t.Errorf("disconnected lambda2 = %v, want ~0", got)
	}
}

func TestAlgebraicConnectivityTrivial(t *testing.T) {
	if got := AlgebraicConnectivity(mustGraph(t, 0, nil), 100); got != 0 {
		t.Errorf("empty graph lambda2 = %v", got)
	}
	if got := AlgebraicConnectivity(mustGraph(t, 1, nil), 100); got != 0 {
		t.Errorf("single node lambda2 = %v", got)
	}
	if got := AlgebraicConnectivity(mustGraph(t, 5, nil), 100); got != 0 {
		t.Errorf("edgeless lambda2 = %v", got)
	}
}

func TestQuickFiedlerBoundsConnectivity(t *testing.T) {
	// Fiedler: λ₂ ≤ κ(G) for non-complete graphs; λ₂ > 0 iff connected.
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 3 + r.Intn(12)
		g := gnp(nil2t(t), r, n, 0.3+r.Float64()*0.4)
		if g.M() == n*(n-1)/2 {
			return true // skip complete graphs (λ₂ = n > κ = n−1)
		}
		lambda2 := AlgebraicConnectivity(g, 2500)
		kappa := vertexConnectivity(g)
		if IsConnected(g) != (lambda2 > 1e-6) {
			return false
		}
		// Power iteration approaches λ₂ from above through c − λ_max(M)?
		// Not monotonically — allow a small numerical tolerance.
		return lambda2 <= float64(kappa)+0.05
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func BenchmarkAlgebraicConnectivity500(b *testing.B) {
	r := rand.New(rand.NewSource(31))
	g := gnp(b, r, 500, 0.02)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		AlgebraicConnectivity(g, 300)
	}
}
