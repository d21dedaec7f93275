package channel

import (
	"testing"

	"github.com/secure-wsn/qcomposite/internal/graph"
	"github.com/secure-wsn/qcomposite/internal/rng"
)

// topologyFingerprint folds a graph's exact edge set (CSR order, U < V)
// into an FNV-1a hash, so two graphs collide only if they are (with
// overwhelming probability) edge-for-edge identical.
func topologyFingerprint(g *graph.Undirected) uint64 {
	const (
		offset = 14695981039346656037
		prime  = 1099511628211
	)
	h := uint64(offset)
	mix := func(x uint64) {
		for i := 0; i < 8; i++ {
			h ^= x & 0xff
			h *= prime
			x >>= 8
		}
	}
	mix(uint64(g.N()))
	mix(uint64(g.M()))
	g.ForEachEdge(func(u, v int32) bool {
		mix(uint64(uint32(u)))
		mix(uint64(uint32(v)))
		return true
	})
	return h
}

// TestSampledTopologiesPinnedPR6 pins the exact topologies every channel
// model produced at fixed seeds BEFORE the PR 7 sampler kernels landed
// (fingerprints recorded from the PR 6 per-draw rng.Geometric samplers).
// The kernelized GeometricSource batches its uniform refills but must
// consume uniform i for draw i, so these hashes are the bit-identity
// contract: any change to the uniform→edge mapping — a reordered draw, a
// fast-log shortcut, a flipped floor at an integer boundary — flips a hash
// and fails this test.
func TestSampledTopologiesPinnedPR6(t *testing.T) {
	classLabels := func(n int) []uint8 {
		labels := make([]uint8, n)
		for i := range labels {
			labels[i] = uint8(i % 3)
		}
		return labels
	}
	hetero := HeterOnOff{P: [][]float64{
		{0.9, 0.5, 0.2},
		{0.5, 0.6, 0.4},
		{0.2, 0.4, 0.8},
	}}
	emptyMiddleClass := func(n int) []uint8 {
		labels := make([]uint8, n)
		for i := range labels {
			labels[i] = uint8(i%2) * 2 // classes {0, 2}; class 1 empty
		}
		return labels
	}
	// Each case draws through Sample with one builder shared by all cases.
	// The last three rows were recorded through the per-model sampling
	// methods that Sample replaced, so they pin that the single Emit path
	// draws what those methods drew.
	cases := []struct {
		name   string
		n      int
		seed   uint64
		model  Model
		labels func(n int) []uint8
		want   uint64
	}{
		{"onoff-sparse", 200, 1, OnOff{P: 0.05}, nil, 0xba3fa24f5e863183},
		{"onoff-sparse", 200, 2, OnOff{P: 0.05}, nil, 0x27fbe6bab90f3c47},
		{"onoff-dense", 80, 3, OnOff{P: 0.6}, nil, 0x3dc1790bc583db79},
		{"always-on", 50, 4, AlwaysOn{}, nil, 0xca59d4e0cbcad20b},
		{"disk-plane", 100, 5, Disk{Radius: 0.2}, nil, 0x233a694a29b61582},
		{"disk-torus", 100, 6, Disk{Radius: 0.3, Torus: true}, nil, 0xa37fd29492a01eec},
		{"disk-tiny-torus", 8, 7, Disk{Radius: 0.6, Torus: true}, nil, 0xa2fab28410055a71},
		{"hetero-single-class", 90, 8, HeterOnOff{P: [][]float64{{0.55}}}, nil, 0x89de8d0202dddced},
		{"hetero-classes", 90, 9, hetero, classLabels, 0x5af71eab669a9a53},
		{"hetero-classes", 90, 10, hetero, classLabels, 0xe907228cf6893a61},
		{"hetero-nil-labels", 90, 11, hetero, nil, 0x14d544ab924c4b77},
		{"hetero-empty-class", 90, 12, hetero, emptyMiddleClass, 0xf6aab6505acea5eb},
		{"disk-2x2-torus", 40, 13, Disk{Radius: 0.45, Torus: true}, nil, 0x5e06c55908928743},
	}
	b := graph.NewBuilder()
	for _, tc := range cases {
		var labels []uint8
		if tc.labels != nil {
			labels = tc.labels(tc.n)
		}
		g, err := Sample(tc.model, rng.New(tc.seed), tc.n, labels, b)
		if err != nil {
			t.Fatalf("%s seed=%d: %v", tc.name, tc.seed, err)
		}
		if got := topologyFingerprint(g); got != tc.want {
			t.Errorf("%s seed=%d: topology fingerprint %#x, want %#x (PR 6 pinned)",
				tc.name, tc.seed, got, tc.want)
		}
	}
}
