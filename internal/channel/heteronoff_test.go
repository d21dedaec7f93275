package channel

import (
	"math"
	"slices"
	"testing"

	"github.com/secure-wsn/qcomposite/internal/rng"
)

func TestHeterOnOffValidate(t *testing.T) {
	good := HeterOnOff{P: [][]float64{{0.2, 0.5}, {0.5, 0.9}}}
	if err := good.Validate(); err != nil {
		t.Fatalf("valid matrix rejected: %v", err)
	}
	bad := []HeterOnOff{
		{P: nil},
		{P: [][]float64{{0.5, 0.5}}}, // not square
		{P: [][]float64{{1, 1, 1}, {1, 1, 1}, {1}}},            // ragged (regression: used to panic)
		{P: [][]float64{{0.5, 0.2}, {0.3, 0.5}}},               // asymmetric
		{P: [][]float64{{1.5}}},                                // entry > 1
		{P: [][]float64{{-0.1}}},                               // entry < 0
		{P: [][]float64{{math.NaN()}}},                         // NaN
		{P: [][]float64{{0.5, math.NaN()}, {math.NaN(), 0.5}}}, // NaN off-diagonal
		UniformHeterOnOff(300, 0.1),                            // beyond uint8 labels
	}
	for i, m := range bad {
		if err := m.Validate(); err == nil {
			t.Errorf("matrix %d accepted: %v", i, m.P)
		}
	}
}

// TestHeterOnOffOneClassMatchesOnOff pins the degenerate case: a 1-class
// HeterOnOff must draw exactly the OnOff edge sequence, through both
// EmitClassEdges (nil labels) and EmitEdges, from the same stream.
func TestHeterOnOffOneClassMatchesOnOff(t *testing.T) {
	const (
		n = 200
		p = 0.3
	)
	m := UniformHeterOnOff(1, p)
	for seed := uint64(0); seed < 3; seed++ {
		want := emittedEdges(t, func(yield func(u, v int32) bool) error {
			return OnOff{P: p}.EmitEdges(rng.New(seed), n, yield)
		})
		got := emittedEdges(t, func(yield func(u, v int32) bool) error {
			return m.EmitEdges(rng.New(seed), n, yield)
		})
		gotC := emittedEdges(t, func(yield func(u, v int32) bool) error {
			return m.EmitClassEdges(rng.New(seed), n, nil, yield)
		})
		if len(want) == 0 || !slices.Equal(got, want) || !slices.Equal(gotC, want) {
			t.Fatalf("seed %d: EmitEdges %d / EmitClassEdges %d edges differ from OnOff's %d",
				seed, len(got), len(gotC), len(want))
		}
	}
}

// TestHeterOnOffClassBlocks checks the class-structured draw: with
// p=[1 0; 0 1] every within-class pair is an edge and no cross-class pair
// is; without labels every node is class 0, so every pair is an edge.
func TestHeterOnOffClassBlocks(t *testing.T) {
	m := HeterOnOff{P: [][]float64{{1, 0}, {0, 1}}}
	const n = 40
	labels := make([]uint8, n)
	for v := range labels {
		labels[v] = uint8(v % 2)
	}
	g, err := Sample(m, rng.New(1), n, labels, nil)
	if err != nil {
		t.Fatal(err)
	}
	for u := int32(0); u < n; u++ {
		for v := u + 1; v < n; v++ {
			same := labels[u] == labels[v]
			if g.HasEdge(u, v) != same {
				t.Fatalf("edge (%d,%d): got %v, want %v", u, v, g.HasEdge(u, v), same)
			}
		}
	}
	g, err = Sample(m, rng.New(1), n, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if g.M() != n*(n-1)/2 {
		t.Errorf("nil labels: %d edges, want the complete class-0 block %d", g.M(), n*(n-1)/2)
	}

	// Multi-class EmitEdges without labels is ill-defined and must error.
	if err := m.EmitEdges(rng.New(1), n, func(u, v int32) bool { return true }); err == nil {
		t.Error("multi-class EmitEdges without labels accepted")
	}
	// Out-of-range label must error, not panic.
	if _, err := Sample(m, rng.New(1), 3, []uint8{0, 2, 0}, nil); err == nil {
		t.Error("out-of-range class label accepted")
	}
	// Label/count mismatch must error.
	if _, err := Sample(m, rng.New(1), 3, []uint8{0, 1}, nil); err == nil {
		t.Error("label count mismatch accepted")
	}
}

// BenchmarkHeterOnOffEmit draws a labelled heterogeneous channel on
// n = 1000 sensors. Every draw starts a fresh skip kernel and retargets it
// once per class-pair block, so this is the path where a skip table must
// pay for its build within one block or not be built at all. The sparse
// blocks (p = 0.05, 0.01) draw a few hundred to a few thousand skips.
func BenchmarkHeterOnOffEmit(b *testing.B) {
	const n = 1000
	for _, bc := range []struct {
		name string
		m    HeterOnOff
	}{
		{"classes=2", HeterOnOff{P: [][]float64{{0.6, 0.3}, {0.3, 0.1}}}},
		{"classes=3", HeterOnOff{P: [][]float64{{0.9, 0.5, 0.2}, {0.5, 0.3, 0.05}, {0.2, 0.05, 0.01}}}},
	} {
		labels := make([]uint8, n)
		for v := range labels {
			labels[v] = uint8(v % len(bc.m.P))
		}
		b.Run(bc.name, func(b *testing.B) {
			r := rng.New(1)
			edges := 0
			count := func(u, v int32) bool { edges++; return true }
			for i := 0; i < b.N; i++ {
				if err := bc.m.EmitClassEdges(r, n, labels, count); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(edges)/float64(b.N), "edges/op")
		})
	}
}
