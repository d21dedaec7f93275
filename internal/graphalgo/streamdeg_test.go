package graphalgo

import (
	"testing"

	"github.com/secure-wsn/qcomposite/internal/graph"
	"github.com/secure-wsn/qcomposite/internal/randgraph"
	"github.com/secure-wsn/qcomposite/internal/rng"
)

// TestStreamDegreesMatchesBatch pins the accumulator against the CSR
// ground truth on random graphs across densities and seeds: per-vertex
// degrees, min degree, and the below-k count must all equal what
// graph.Undirected computes, for every k around the degree range.
func TestStreamDegreesMatchesBatch(t *testing.T) {
	var sd StreamDegrees
	for _, p := range []float64{0, 0.02, 0.2, 0.8, 1} {
		for seed := uint64(1); seed <= 4; seed++ {
			const n = 60
			g, err := randgraph.ErdosRenyi(rng.New(seed), n, p)
			if err != nil {
				t.Fatal(err)
			}
			for _, k := range []int{0, 1, 2, 5, n} {
				sd.Reset(n, k)
				g.ForEachEdge(func(u, v int32) bool {
					sd.Add(u, v)
					return true
				})
				wantBelow := 0
				for v := int32(0); v < int32(n); v++ {
					if got, want := sd.Degree(v), g.Degree(v); got != want {
						t.Fatalf("p=%g seed=%d: degree(%d) = %d, want %d", p, seed, v, got, want)
					}
					if g.Degree(v) < k {
						wantBelow++
					}
				}
				if got := sd.BelowK(); got != wantBelow {
					t.Fatalf("p=%g seed=%d k=%d: BelowK = %d, want %d", p, seed, k, got, wantBelow)
				}
				if got, want := sd.AllAtLeastK(), wantBelow == 0; got != want {
					t.Fatalf("p=%g seed=%d k=%d: AllAtLeastK = %v, want %v", p, seed, k, got, want)
				}
				if got, want := sd.MinDegree(), g.MinDegree(); got != want {
					t.Fatalf("p=%g seed=%d: MinDegree = %d, want %d", p, seed, got, want)
				}
			}
		}
	}
}

// TestStreamDegreesMonotoneBelowK checks the early-exit invariant the
// deployer relies on: BelowK never increases as edges stream in, and once
// AllAtLeastK flips true it stays true.
func TestStreamDegreesMonotoneBelowK(t *testing.T) {
	const (
		n = 50
		k = 3
	)
	g, err := randgraph.ErdosRenyi(rng.New(9), n, 0.3)
	if err != nil {
		t.Fatal(err)
	}
	var sd StreamDegrees
	sd.Reset(n, k)
	prev := sd.BelowK()
	if prev != n {
		t.Fatalf("initial BelowK = %d, want %d", prev, n)
	}
	done := false
	g.ForEachEdge(func(u, v int32) bool {
		sd.Add(u, v)
		if b := sd.BelowK(); b > prev {
			t.Fatalf("BelowK rose from %d to %d", prev, b)
		} else {
			prev = b
		}
		if done && !sd.AllAtLeastK() {
			t.Fatal("AllAtLeastK flipped back to false")
		}
		done = done || sd.AllAtLeastK()
		return true
	})
}

// TestStreamDegreesEdgeCases covers the conventions: n = 0 (vacuous, min
// degree 0 like graph.MinDegree), k = 0 (vacuous), self-loops ignored, and
// Reset reuse across different sizes.
func TestStreamDegreesEdgeCases(t *testing.T) {
	var sd StreamDegrees
	sd.Reset(0, 3)
	if !sd.AllAtLeastK() || sd.BelowK() != 0 || sd.MinDegree() != 0 {
		t.Errorf("n=0: AllAtLeastK=%v BelowK=%d MinDegree=%d, want true/0/0",
			sd.AllAtLeastK(), sd.BelowK(), sd.MinDegree())
	}
	sd.Reset(5, 0)
	if !sd.AllAtLeastK() || sd.BelowK() != 0 {
		t.Errorf("k=0: AllAtLeastK=%v BelowK=%d, want true/0", sd.AllAtLeastK(), sd.BelowK())
	}
	sd.Reset(4, 1)
	sd.Add(2, 2) // self-loop: ignored
	if sd.Degree(2) != 0 || sd.BelowK() != 4 {
		t.Errorf("self-loop counted: degree(2)=%d BelowK=%d", sd.Degree(2), sd.BelowK())
	}
	sd.Add(0, 1)
	sd.Add(2, 3)
	if !sd.AllAtLeastK() || sd.MinDegree() != 1 {
		t.Errorf("after matching: AllAtLeastK=%v MinDegree=%d, want true/1", sd.AllAtLeastK(), sd.MinDegree())
	}
	// Shrinking reuse must re-zero the retained prefix.
	sd.Reset(2, 1)
	if sd.Degree(0) != 0 || sd.Degree(1) != 0 || sd.BelowK() != 2 {
		t.Errorf("reuse after shrink: degrees (%d,%d) BelowK=%d, want (0,0)/2",
			sd.Degree(0), sd.Degree(1), sd.BelowK())
	}
}

// TestStreamDegreesAllocFree pins the steady-state allocation behavior the
// 0-allocs/op deployment gate builds on.
func TestStreamDegreesAllocFree(t *testing.T) {
	var sd StreamDegrees
	g, err := randgraph.ErdosRenyi(rng.New(4), 40, 0.25)
	if err != nil {
		t.Fatal(err)
	}
	var edges []graph.Edge
	g.ForEachEdge(func(u, v int32) bool {
		edges = append(edges, graph.Edge{U: u, V: v})
		return true
	})
	if len(edges) == 0 {
		t.Fatal("test draw produced no edges")
	}
	sd.Reset(40, 2) // grow once
	if avg := testing.AllocsPerRun(20, func() {
		sd.Reset(40, 2)
		for _, e := range edges {
			sd.Add(e.U, e.V)
		}
		_ = sd.AllAtLeastK()
		_ = sd.MinDegree()
	}); avg != 0 {
		t.Errorf("steady-state StreamDegrees pass allocates %.1f allocs/run, want 0", avg)
	}
}
