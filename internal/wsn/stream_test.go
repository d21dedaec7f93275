package wsn

import (
	"testing"

	"github.com/secure-wsn/qcomposite/internal/channel"
	"github.com/secure-wsn/qcomposite/internal/graphalgo"
	"github.com/secure-wsn/qcomposite/internal/keys"
	"github.com/secure-wsn/qcomposite/internal/rng"
)

// connStatsOf computes a deployment's ConnStats the batch way: deploy the
// full network and measure the CSR secure topology.
func connStatsOf(t *testing.T, net *Network) ConnStats {
	t.Helper()
	topo := net.FullSecureTopology()
	connected, err := net.IsConnected()
	if err != nil {
		t.Fatal(err)
	}
	_, comps := graphalgo.Components(topo)
	isolated := 0
	if hist := topo.DegreeHistogram(); len(hist) > 0 {
		isolated = hist[0]
	}
	return ConnStats{
		Connected:  connected,
		Components: comps,
		Giant:      graphalgo.LargestComponentSize(topo),
		Isolated:   isolated,
	}
}

// TestDeployConnectivityMatchesCSR is the central equivalence test of the
// streaming pipeline: for every channel model, both discovery regimes and
// several seeds, the connectivity-only mode must report exactly the
// statistics a full CSR deployment measures.
func TestDeployConnectivityMatchesCSR(t *testing.T) {
	for name, cfg := range deployerConfigs(t) {
		t.Run(name+"/streaming", func(t *testing.T) {
			d, err := NewDeployer(cfg)
			if err != nil {
				t.Fatal(err)
			}
			for seed := uint64(0); seed < 4; seed++ {
				refCfg := cfg
				refCfg.Seed = seed
				net, err := Deploy(refCfg)
				if err != nil {
					t.Fatal(err)
				}
				want := connStatsOf(t, net)
				got, err := d.DeployConnectivity(seed)
				if err != nil {
					t.Fatal(err)
				}
				if got != want {
					t.Fatalf("seed %d: ConnStats %+v, want %+v", seed, got, want)
				}
			}
		})
	}
}

// TestDeployConnectivityReuse pins reuse semantics on one Deployer: mixing
// connectivity-only and full deployments across seeds must leak no state in
// either direction.
func TestDeployConnectivityReuse(t *testing.T) {
	for name, cfg := range deployerConfigs(t) {
		t.Run(name, func(t *testing.T) {
			d, err := NewDeployer(cfg)
			if err != nil {
				t.Fatal(err)
			}
			first, err := d.DeployConnectivity(1)
			if err != nil {
				t.Fatal(err)
			}
			// Interleave a full deployment and a different seed, then replay.
			if _, err := d.Deploy(2); err != nil {
				t.Fatal(err)
			}
			if _, err := d.DeployConnectivity(3); err != nil {
				t.Fatal(err)
			}
			again, err := d.DeployConnectivity(1)
			if err != nil {
				t.Fatal(err)
			}
			if again != first {
				t.Fatalf("replaying seed 1: %+v, want %+v", again, first)
			}
			// The interleaved full deployment must also stay untouched.
			net, err := d.Deploy(1)
			if err != nil {
				t.Fatal(err)
			}
			if got := connStatsOf(t, net); got != first {
				t.Fatalf("full deployment after streaming: %+v, want %+v", got, first)
			}
		})
	}
}

// degreeStatsOf computes a deployment's DegreeStats the batch way: deploy
// the full network and measure the CSR secure topology, truncating the
// min degree at k exactly as the streaming mode reports it.
func degreeStatsOf(t *testing.T, net *Network, k int) DegreeStats {
	t.Helper()
	topo := net.FullSecureTopology()
	minDeg := topo.MinDegree()
	belowK := 0
	for _, count := range topo.DegreeHistogram()[:min(k, len(topo.DegreeHistogram()))] {
		belowK += count
	}
	truncated := minDeg
	if truncated > k {
		truncated = k
	}
	return DegreeStats{
		ConnStats:         connStatsOf(t, net),
		K:                 k,
		MinDegreeAtLeastK: minDeg >= k || topo.N() == 0,
		MinDegree:         truncated,
		BelowK:            belowK,
	}
}

// TestDeployDegreeStatsMatchesCSR is the degree-mode analogue of the
// connectivity equivalence test: for every channel model, several seeds and
// several degree levels, the streaming degree mode must report exactly what
// a full CSR deployment measures — connectivity statistics, the min-degree
// ≥ k verdict, the truncated min degree and the below-k count — and the
// degree count mode must equal the CSR degree histogram at every degree,
// one past the maximum included.
func TestDeployDegreeStatsMatchesCSR(t *testing.T) {
	for name, cfg := range deployerConfigs(t) {
		t.Run(name+"/streaming", func(t *testing.T) {
			d, err := NewDeployer(cfg)
			if err != nil {
				t.Fatal(err)
			}
			var r rng.Rand
			for seed := uint64(0); seed < 4; seed++ {
				refCfg := cfg
				refCfg.Seed = seed
				net, err := Deploy(refCfg)
				if err != nil {
					t.Fatal(err)
				}
				for _, k := range []int{0, 1, 2, 4} {
					want := degreeStatsOf(t, net, k)
					got, err := d.DeployDegreeStats(seed, k)
					if err != nil {
						t.Fatal(err)
					}
					if got != want {
						t.Fatalf("seed %d k=%d: DegreeStats %+v, want %+v", seed, k, got, want)
					}
				}
				// The degree counts, at every degree the topology has and
				// one past its maximum.
				hist := net.FullSecureTopology().DegreeHistogram()
				for h := 0; h <= len(hist); h++ {
					want := 0
					if h < len(hist) {
						want = hist[h]
					}
					r.Reseed(seed)
					got, err := d.DegreeCountRand(&r, h)
					if err != nil {
						t.Fatal(err)
					}
					if got != want {
						t.Fatalf("seed %d: DegreeCountRand(h=%d) = %d, want %d", seed, h, got, want)
					}
				}
			}
		})
	}
}

// TestDeployDegreeStatsReuse pins reuse on one Deployer across modes and
// degree levels: interleaving degree, connectivity and full deployments
// must leak no state, and replays must be bit-identical.
func TestDeployDegreeStatsReuse(t *testing.T) {
	for name, cfg := range deployerConfigs(t) {
		t.Run(name, func(t *testing.T) {
			d, err := NewDeployer(cfg)
			if err != nil {
				t.Fatal(err)
			}
			first, err := d.DeployDegreeStats(1, 2)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := d.Deploy(2); err != nil {
				t.Fatal(err)
			}
			if _, err := d.DeployConnectivity(3); err != nil {
				t.Fatal(err)
			}
			if _, err := d.DeployDegreeStats(4, 5); err != nil {
				t.Fatal(err)
			}
			again, err := d.DeployDegreeStats(1, 2)
			if err != nil {
				t.Fatal(err)
			}
			if again != first {
				t.Fatalf("replaying seed 1 k=2: %+v, want %+v", again, first)
			}
			// The connectivity halves of both modes must agree at one seed.
			conn, err := d.DeployConnectivity(1)
			if err != nil {
				t.Fatal(err)
			}
			if conn != first.ConnStats {
				t.Fatalf("connectivity mode at seed 1: %+v, want %+v", conn, first.ConnStats)
			}
		})
	}
}

// TestDeployDegreeStatsTinyNetworks pins the degenerate-size conventions of
// the degree mode: n = 0 is vacuously ≥ k with min degree 0 (matching
// graph.MinDegree's empty-graph convention); a singleton has degree 0.
func TestDeployDegreeStatsTinyNetworks(t *testing.T) {
	scheme, err := keys.NewQComposite(100, 10, 1)
	if err != nil {
		t.Fatal(err)
	}
	for n, want := range map[int]DegreeStats{
		0: {ConnStats: ConnStats{Connected: true}, K: 2, MinDegreeAtLeastK: true, MinDegree: 0, BelowK: 0},
		1: {ConnStats: ConnStats{Connected: true, Components: 1, Giant: 1, Isolated: 1},
			K: 2, MinDegreeAtLeastK: false, MinDegree: 0, BelowK: 1},
	} {
		d, err := NewDeployer(Config{Sensors: n, Scheme: scheme, Channel: channel.OnOff{P: 0.5}})
		if err != nil {
			t.Fatal(err)
		}
		got, err := d.DeployDegreeStats(1, 2)
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Errorf("n=%d: %+v, want %+v", n, got, want)
		}
	}
	// Negative k is rejected.
	d, err := NewDeployer(Config{Sensors: 10, Scheme: scheme, Channel: channel.OnOff{P: 0.5}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := d.DeployDegreeStats(1, -1); err == nil {
		t.Error("negative degree level: want error")
	}
}

// TestDeployConnectivityTinyNetworks pins the conventions at degenerate
// sizes: n = 0 and n = 1 count as connected (the Report convention), with
// the singleton isolated.
func TestDeployConnectivityTinyNetworks(t *testing.T) {
	scheme, err := keys.NewQComposite(100, 10, 1)
	if err != nil {
		t.Fatal(err)
	}
	for n, want := range map[int]ConnStats{
		0: {Connected: true, Components: 0, Giant: 0, Isolated: 0},
		1: {Connected: true, Components: 1, Giant: 1, Isolated: 1},
	} {
		d, err := NewDeployer(Config{Sensors: n, Scheme: scheme, Channel: channel.OnOff{P: 0.5}})
		if err != nil {
			t.Fatal(err)
		}
		got, err := d.DeployConnectivity(1)
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Errorf("n=%d: %+v, want %+v", n, got, want)
		}
	}
}
