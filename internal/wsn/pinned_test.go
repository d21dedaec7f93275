package wsn

import (
	"testing"

	"github.com/secure-wsn/qcomposite/internal/channel"
	"github.com/secure-wsn/qcomposite/internal/graph"
	"github.com/secure-wsn/qcomposite/internal/keys"
	"github.com/secure-wsn/qcomposite/internal/rng"
)

// hashMix folds the word x into the running hash h: a SplitMix64
// finalizer spreads x, then an FNV-style xor-multiply chains it.
func hashMix(h, x uint64) uint64 {
	x = (x ^ x>>30) * 0xbf58476d1ce4e5b9
	x = (x ^ x>>27) * 0x94d049bb133111eb
	return (h ^ x ^ x>>31) * 1099511628211
}

// graphFingerprint folds a graph's exact edge set (CSR order, U < V) into
// one word per edge.
func graphFingerprint(g *graph.Undirected) uint64 {
	h := hashMix(hashMix(0, uint64(g.N())), uint64(g.M()))
	g.ForEachEdge(func(u, v int32) bool {
		h = hashMix(h, uint64(uint32(u))<<32|uint64(uint32(v)))
		return true
	})
	return h
}

// pinnedConfig is one row of the deployment table: a configuration and the
// folded hashes of its secure and channel topologies over seeds 1–5.
type pinnedConfig struct {
	name            string
	cfg             Config
	secure, channel uint64
}

// pinnedConfigs are the deployments whose secure and channel topologies
// TestDeployTopologiesPinned pins. They span the q-composite Figure-1 ring
// sizes, a larger q, a small dense pool on both sides of n = 2048, dense
// rings on a sparse channel, the full-visibility and geometric channels, and
// two-class heterogeneous keys under a two-class on/off channel.
func pinnedConfigs(t *testing.T) []pinnedConfig {
	t.Helper()
	qc := func(pool, ring, q int) keys.Scheme {
		s, err := keys.NewQComposite(pool, ring, q)
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	hetero, err := keys.NewHeterogeneous(2000, 2, []keys.Class{{Mu: 0.3, RingSize: 20}, {Mu: 0.7, RingSize: 45}})
	if err != nil {
		t.Fatal(err)
	}
	heterCh := channel.HeterOnOff{P: [][]float64{{0.1, 0.05}, {0.05, 0.08}}}
	return []pinnedConfig{
		{"qcomposite/K=36", Config{Sensors: 1000, Scheme: qc(10000, 36, 2), Channel: channel.OnOff{P: 0.5}}, 0xaa0de8a0b0fdc1a4, 0x152307e49f2f7fb9},
		{"qcomposite/K=54", Config{Sensors: 1000, Scheme: qc(10000, 54, 2), Channel: channel.OnOff{P: 0.5}}, 0xb4c7d05fc70384fd, 0xad2f20378f1d7fc5},
		{"qcomposite/K=60", Config{Sensors: 1000, Scheme: qc(10000, 60, 2), Channel: channel.OnOff{P: 0.5}}, 0x9a88b92012ab4529, 0x4ea44d2aa31a4c36},
		{"qcomposite/K=88", Config{Sensors: 1000, Scheme: qc(10000, 88, 2), Channel: channel.OnOff{P: 0.5}}, 0x4a50f4f4dfb875d6, 0x6a2e707c0da58dd0},
		{"q=3/p=0.2", Config{Sensors: 1000, Scheme: qc(10000, 100, 3), Channel: channel.OnOff{P: 0.2}}, 0xc6b57bb67a602c95, 0xf5b92d91360776b6},
		{"P=512,K=32/n=1000", Config{Sensors: 1000, Scheme: qc(512, 32, 2), Channel: channel.OnOff{P: 0.3}}, 0x92985eec12cc7eb0, 0x812b0030370ef2bb},
		{"P=512,K=32/n=3000", Config{Sensors: 3000, Scheme: qc(512, 32, 2), Channel: channel.OnOff{P: 0.15}}, 0x17f98ae5efd4fd5e, 0x9f2209f2de52db59},
		{"sparse-channel/n=3000,q=1", Config{Sensors: 3000, Scheme: qc(1000, 40, 1), Channel: channel.OnOff{P: 0.002}}, 0x36a334a91c43140b, 0xde2cae48aa4da56f},
		{"always-on", Config{Sensors: 400, Scheme: qc(10000, 60, 2), Channel: channel.AlwaysOn{}}, 0xed24604b9a299c77, 0xa3de6b0521da558d},
		{"disk", Config{Sensors: 1000, Scheme: qc(2000, 20, 1), Channel: channel.Disk{Radius: 0.08}}, 0x4d2ff57bb1e67ec3, 0x8a1f3d9457b26d02},
		{"hetero/n=800", Config{Sensors: 800, Scheme: hetero, Channel: heterCh}, 0xa2a2edd4a4efb2df, 0x33ba7b7568790508},
		{"hetero/n=2500", Config{Sensors: 2500, Scheme: hetero, Channel: heterCh}, 0xdb1815684d955b61, 0x7490bb29fae8e2d6},
	}
}

// TestDeployTopologiesPinned pins, for each pinned configuration and seeds
// 1–5, the secure topology DeployRand builds, the generator's next output
// after the deployment, and the channel topology the network reports. The
// hashes were recorded before CSR deployments streamed the channel draw
// through the ring intersector (when discovery still chose between an
// inverted key index and per-edge intersection), so they are the
// byte-identity contract for any change to the discovery path.
func TestDeployTopologiesPinned(t *testing.T) {
	for _, tc := range pinnedConfigs(t) {
		d, err := NewDeployer(tc.cfg)
		if err != nil {
			t.Fatal(err)
		}
		var secure, chans uint64
		for seed := uint64(1); seed <= 5; seed++ {
			r := rng.New(seed)
			net, err := d.DeployRand(r)
			if err != nil {
				t.Fatal(err)
			}
			secure = hashMix(hashMix(secure, graphFingerprint(net.FullSecureTopology())), r.Uint64())
			chans = hashMix(chans, graphFingerprint(net.channelTopology()))
		}
		if secure != tc.secure || chans != tc.channel {
			t.Errorf("%s: secure %#x, channel %#x; want %#x, %#x", tc.name, secure, chans, tc.secure, tc.channel)
		}
	}
}

// TestDeployRandGeneratorPinned pins where a complete DeployRand leaves its
// generator, folded over sizes and seeds per channel model: the adversary
// campaigns (experiment's campaign sweep, cmd/resilience) keep drawing from
// a trial's generator after DeployRand, so their results depend on that
// position, including at the sizes where the channel draw ends inside its
// first skip batch or draws no randomness at all. The hashes were recorded
// while the on/off walk still drew its skips one GeometricSource.Next at a
// time.
func TestDeployRandGeneratorPinned(t *testing.T) {
	scheme, err := keys.NewQComposite(1000, 12, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		ch   channel.Model
		want uint64
	}{
		{channel.OnOff{P: 1e-9}, 0x790ff928a4968ea0},
		{channel.OnOff{P: 0.05}, 0x5a08eed3ded9aee4},
		{channel.OnOff{P: 0.5}, 0x617e468d6bf9a23d},
		{channel.OnOff{P: 1}, 0x4939274a3b8cb42f},
		{channel.AlwaysOn{}, 0x4939274a3b8cb42f},
		{channel.Disk{Radius: 0.2}, 0xf0fc2e237f7ada01},
		{channel.UniformHeterOnOff(1, 0.3), 0x905b6d91950a7cf0},
	} {
		h := uint64(0)
		for _, n := range []int{0, 2, 3, 40, 150} {
			d, err := NewDeployer(Config{Sensors: n, Scheme: scheme, Channel: tc.ch})
			if err != nil {
				t.Fatal(err)
			}
			for seed := uint64(1); seed <= 4; seed++ {
				r := rng.New(seed)
				if _, err := d.DeployRand(r); err != nil {
					t.Fatal(err)
				}
				h = hashMix(h, r.Uint64())
			}
		}
		if h != tc.want {
			t.Errorf("%s: generator hash %#x, want %#x", tc.ch.Name(), h, tc.want)
		}
	}
}
