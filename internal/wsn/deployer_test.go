package wsn

import (
	"context"
	"fmt"
	"testing"

	"github.com/secure-wsn/qcomposite/internal/channel"
	"github.com/secure-wsn/qcomposite/internal/graph"
	"github.com/secure-wsn/qcomposite/internal/keys"
	"github.com/secure-wsn/qcomposite/internal/montecarlo"
	"github.com/secure-wsn/qcomposite/internal/rng"
)

// graphsEqual reports exact topology equality.
func graphsEqual(a, b *graph.Undirected) bool {
	return a.N() == b.N() && a.M() == b.M() &&
		a.IsSpanningSubgraphOf(b) && b.IsSpanningSubgraphOf(a)
}

// requireSameNetwork asserts byte-identical secure topology, channel
// topology, shared keys and link keys between two deployments.
func requireSameNetwork(t *testing.T, want, got *Network) {
	t.Helper()
	if !graphsEqual(want.FullSecureTopology(), got.FullSecureTopology()) {
		t.Fatal("secure topologies differ")
	}
	if !graphsEqual(want.channelTopology(), got.channelTopology()) {
		t.Fatal("channel topologies differ")
	}
	wantLinks, gotLinks := want.Links(), got.Links()
	if len(wantLinks) != len(gotLinks) {
		t.Fatalf("%d links, want %d", len(gotLinks), len(wantLinks))
	}
	for i := range wantLinks {
		w, g := wantLinks[i], gotLinks[i]
		if w.A != g.A || w.B != g.B {
			t.Fatalf("link %d endpoints (%d,%d), want (%d,%d)", i, g.A, g.B, w.A, w.B)
		}
		if w.Key != g.Key {
			t.Fatalf("link (%d,%d) keys differ", w.A, w.B)
		}
		if len(w.SharedKeys) != len(g.SharedKeys) {
			t.Fatalf("link (%d,%d) shared %v, want %v", w.A, w.B, g.SharedKeys, w.SharedKeys)
		}
		for j := range w.SharedKeys {
			if w.SharedKeys[j] != g.SharedKeys[j] {
				t.Fatalf("link (%d,%d) shared %v, want %v", w.A, w.B, g.SharedKeys, w.SharedKeys)
			}
		}
	}
}

// deployerConfigs covers every channel model, dense and near-empty
// channels, and dense and sparse rings relative to the pool.
func deployerConfigs(t *testing.T) map[string]Config {
	t.Helper()
	scheme, err := keys.NewQComposite(500, 40, 2)
	if err != nil {
		t.Fatal(err)
	}
	sparseScheme, err := keys.NewQComposite(8000, 12, 1)
	if err != nil {
		t.Fatal(err)
	}
	heteroScheme, err := keys.NewHeterogeneous(500, 1, []keys.Class{
		{Mu: 0.5, RingSize: 15}, {Mu: 0.3, RingSize: 30}, {Mu: 0.2, RingSize: 60},
	})
	if err != nil {
		t.Fatal(err)
	}
	return map[string]Config{
		"onoff-dense":   {Sensors: 120, Scheme: scheme, Channel: channel.OnOff{P: 0.8}},
		"onoff-sparse":  {Sensors: 120, Scheme: sparseScheme, Channel: channel.OnOff{P: 0.01}},
		"always-on":     {Sensors: 80, Scheme: scheme, Channel: channel.AlwaysOn{}},
		"disk-torus":    {Sensors: 100, Scheme: scheme, Channel: channel.Disk{Radius: 0.3, Torus: true}},
		"disk-zero":     {Sensors: 50, Scheme: scheme, Channel: channel.Disk{}},
		"onoff-all-off": {Sensors: 50, Scheme: scheme, Channel: channel.OnOff{}},
		"hetero-onoff":  {Sensors: 120, Scheme: heteroScheme, Channel: channel.OnOff{P: 0.6}},
		"hetero-heterchannel": {Sensors: 120, Scheme: heteroScheme, Channel: channel.HeterOnOff{P: [][]float64{
			{0.9, 0.5, 0.2},
			{0.5, 0.6, 0.4},
			{0.2, 0.4, 0.8},
		}}},
		// Near the disk threshold: clusters reach their degree levels
		// before the rows that join them arrive, so a stop rule that
		// skipped the union-find would stop on split components.
		"disk-clustered": {Sensors: 40, Scheme: scheme, Channel: channel.Disk{Radius: 0.25}},
	}
}

// TestDeployerMatchesDeploy is the central equivalence test of the lazy
// pipeline: for every configuration and seed, Deployer.Deploy must produce
// exactly the network the one-shot Deploy does — same secure topology, same
// shared keys, same derived link keys.
func TestDeployerMatchesDeploy(t *testing.T) {
	for name, cfg := range deployerConfigs(t) {
		t.Run(name, func(t *testing.T) {
			d, err := NewDeployer(cfg)
			if err != nil {
				t.Fatal(err)
			}
			for seed := uint64(0); seed < 4; seed++ {
				cfg.Seed = seed
				want, err := Deploy(cfg)
				if err != nil {
					t.Fatal(err)
				}
				got, err := d.Deploy(seed)
				if err != nil {
					t.Fatal(err)
				}
				requireSameNetwork(t, want, got)
			}
		})
	}
}

// TestDeployerReuseIsDeterministic pins the amortization contract: reusing
// one Deployer across different seeds must not leak state between
// deployments — redeploying an earlier seed reproduces its network exactly.
func TestDeployerReuseIsDeterministic(t *testing.T) {
	for name, cfg := range deployerConfigs(t) {
		t.Run(name, func(t *testing.T) {
			d, err := NewDeployer(cfg)
			if err != nil {
				t.Fatal(err)
			}
			first, err := d.Deploy(1)
			if err != nil {
				t.Fatal(err)
			}
			// Snapshot before the buffers are recycled.
			firstTopo := first.FullSecureTopology()
			firstLinks := first.Links()
			if _, err := d.Deploy(2); err != nil {
				t.Fatal(err)
			}
			again, err := d.Deploy(1)
			if err != nil {
				t.Fatal(err)
			}
			if !graphsEqual(firstTopo, again.FullSecureTopology()) {
				t.Fatal("redeploying seed 1 changed the topology")
			}
			againLinks := again.Links()
			if len(firstLinks) != len(againLinks) {
				t.Fatalf("%d links, want %d", len(againLinks), len(firstLinks))
			}
			for i := range firstLinks {
				if firstLinks[i].Key != againLinks[i].Key {
					t.Fatalf("link %d key changed across reuse", i)
				}
			}
		})
	}
}

// TestLazyLinkKeysMatchDerivation checks that lazily materialized keys are
// the canonical derivation of the (surviving) shared set, before and after
// revocation invalidates the table.
func TestLazyLinkKeysMatchDerivation(t *testing.T) {
	scheme, err := keys.NewQComposite(300, 30, 2)
	if err != nil {
		t.Fatal(err)
	}
	net, err := Deploy(Config{Sensors: 80, Scheme: scheme, Channel: channel.OnOff{P: 0.9}, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	check := func() {
		t.Helper()
		links := net.Links()
		if len(links) == 0 {
			t.Fatal("test network has no links")
		}
		for _, l := range links {
			ra, err := net.Ring(l.A)
			if err != nil {
				t.Fatal(err)
			}
			rb, err := net.Ring(l.B)
			if err != nil {
				t.Fatal(err)
			}
			want := make([]keys.ID, 0, len(l.SharedKeys))
			for _, k := range ra.SharedWith(rb) {
				if net.RevokedKeyCount() == 0 || !revokedContains(net, k) {
					want = append(want, k)
				}
			}
			if len(want) != len(l.SharedKeys) {
				t.Fatalf("link (%d,%d) shared %v, want %v", l.A, l.B, l.SharedKeys, want)
			}
			if l.Key != keys.DeriveLinkKey(want) {
				t.Fatalf("link (%d,%d) key is not DeriveLinkKey(shared)", l.A, l.B)
			}
		}
	}
	check()
	if _, err := net.RevokeNodeKeys(0, 1); err != nil {
		t.Fatal(err)
	}
	check()
}

func revokedContains(n *Network, k keys.ID) bool {
	return n.revoked != nil && n.revoked.Contains(int(k))
}

// TestDeployerPoolConcurrent drives a DeployerPool through the Monte Carlo
// engine under full parallelism; with -race this is the concurrency check,
// and the proportion must be reproducible across runs.
func TestDeployerPoolConcurrent(t *testing.T) {
	scheme, err := keys.NewQComposite(500, 36, 2)
	if err != nil {
		t.Fatal(err)
	}
	pool, err := NewDeployerPool(Config{Sensors: 100, Scheme: scheme, Channel: channel.OnOff{P: 0.7}})
	if err != nil {
		t.Fatal(err)
	}
	run := func() float64 {
		est, err := montecarlo.EstimateProportion(context.Background(), montecarlo.Config{
			Trials: 40,
			Seed:   3,
		}, func(trial int, r *rng.Rand) (bool, error) {
			d := pool.Get()
			defer pool.Put(d)
			net, err := d.DeployRand(r)
			if err != nil {
				return false, err
			}
			return net.IsConnected()
		})
		if err != nil {
			t.Fatal(err)
		}
		return est.Estimate()
	}
	if a, b := run(), run(); a != b {
		t.Errorf("pooled estimate not reproducible: %v vs %v", a, b)
	}
}

// TestOneClassHeterogeneousDeploymentMatchesQComposite is the deployment
// half of the 1-class equivalence contract (the scheme half lives in
// internal/keys): a single-class Heterogeneous scheme must yield deployments
// byte-identical to the equivalent QComposite — same channel topology, same
// secure topology, same shared keys and derived link keys — both under the
// uniform OnOff channel and under the 1-class HeterOnOff written in class
// form, which must consume the randomness stream exactly as OnOff does.
func TestOneClassHeterogeneousDeploymentMatchesQComposite(t *testing.T) {
	const (
		n    = 150
		pool = 400
		ring = 30
		q    = 2
		p    = 0.6
	)
	qs, err := keys.NewQComposite(pool, ring, q)
	if err != nil {
		t.Fatal(err)
	}
	hs, err := keys.NewHeterogeneous(pool, q, []keys.Class{{Mu: 1, RingSize: ring}})
	if err != nil {
		t.Fatal(err)
	}
	channels := map[string]channel.Model{
		"onoff":        channel.OnOff{P: p},
		"heter-on-off": channel.UniformHeterOnOff(1, p),
	}
	for name, ch := range channels {
		t.Run(name, func(t *testing.T) {
			d, err := NewDeployer(Config{Sensors: n, Scheme: hs, Channel: ch})
			if err != nil {
				t.Fatal(err)
			}
			for seed := uint64(0); seed < 4; seed++ {
				want, err := Deploy(Config{Sensors: n, Scheme: qs, Channel: channel.OnOff{P: p}, Seed: seed})
				if err != nil {
					t.Fatal(err)
				}
				got, err := d.Deploy(seed)
				if err != nil {
					t.Fatal(err)
				}
				requireSameNetwork(t, want, got)
				if c, err := got.classOf(0); err != nil || c != 0 {
					t.Fatalf("ClassOf(0) = %d, %v; want class 0", c, err)
				}
			}
		})
	}
}

// TestNewDeployerValidatesEagerly covers construction-time validation,
// including the channel model's Validate.
func TestNewDeployerValidatesEagerly(t *testing.T) {
	scheme, err := keys.NewQComposite(100, 10, 1)
	if err != nil {
		t.Fatal(err)
	}
	bad := []Config{
		{Sensors: -1, Scheme: scheme, Channel: channel.AlwaysOn{}},
		{Sensors: 10, Channel: channel.AlwaysOn{}},
		{Sensors: 10, Scheme: scheme},
		{Sensors: 10, Scheme: scheme, Channel: channel.OnOff{P: -0.5}},
		{Sensors: 10, Scheme: scheme, Channel: channel.Disk{Radius: -2}},
		// Class-aware channel whose class count disagrees with the scheme's.
		{Sensors: 10, Scheme: scheme, Channel: channel.UniformHeterOnOff(2, 0.5)},
	}
	for i, cfg := range bad {
		if _, err := NewDeployer(cfg); err == nil {
			t.Errorf("config %d: want error", i)
		}
		if _, err := NewDeployerPool(cfg); err == nil {
			t.Errorf("config %d: pool: want error", i)
		}
	}
}

// outOfPoolScheme is a q-composite scheme whose assignment gives sensors 0
// and 1 key 1500, outside its pool of 1000.
type outOfPoolScheme struct{ keys.Scheme }

func (s outOfPoolScheme) AssignInto(r *rng.Rand, n int, _ *keys.RingArena) (keys.Assignment, error) {
	asg, err := s.Scheme.AssignInto(r, n, new(keys.RingArena))
	if err != nil {
		return asg, err
	}
	for v := 0; v < 2 && v < n; v++ {
		asg.Rings[v] = keys.NewRing(append(asg.Rings[v].IDs(), 1500))
	}
	return asg, nil
}

// TestOutOfPoolRingsFailClosed pins that every deployment mode refuses key
// IDs outside the pool, for sparse rings (which the ring intersector answers
// by sorted merge or counted rows) and dense ones (bitmap rows).
func TestOutOfPoolRingsFailClosed(t *testing.T) {
	for _, ring := range []int{4, 40} {
		inner, err := keys.NewQComposite(1000, ring, 1)
		if err != nil {
			t.Fatal(err)
		}
		d, err := NewDeployer(Config{Sensors: 50, Scheme: outOfPoolScheme{inner}, Channel: channel.AlwaysOn{}})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := d.Deploy(1); err == nil {
			t.Errorf("K=%d: Deploy accepted a key outside the pool", ring)
		}
		if _, err := d.DeployConnectivity(1); err == nil {
			t.Errorf("K=%d: DeployConnectivity accepted a key outside the pool", ring)
		}
		if _, err := d.DeployDegreeStats(1, 1); err == nil {
			t.Errorf("K=%d: DeployDegreeStats accepted a key outside the pool", ring)
		}
	}
}

// TestChannelTopologyIsLazyAndExact pins the lazily re-emitted channel
// graph: it equals channel.Sample drawn from the generator state after key
// assignment, with the deployment's class labels; a second call returns the
// same graph without drawing again; building it never moves the caller's
// generator; and SimulateDiscovery, which reads it, still finds exactly the
// deployment's links.
func TestChannelTopologyIsLazyAndExact(t *testing.T) {
	scheme, err := keys.NewQComposite(2000, 30, 2)
	if err != nil {
		t.Fatal(err)
	}
	hetero, err := keys.NewHeterogeneous(2000, 2, []keys.Class{{Mu: 0.4, RingSize: 25}, {Mu: 0.6, RingSize: 50}})
	if err != nil {
		t.Fatal(err)
	}
	cfgs := map[string]Config{
		"onoff": {Sensors: 300, Scheme: scheme, Channel: channel.OnOff{P: 0.4}},
		"disk":  {Sensors: 300, Scheme: scheme, Channel: channel.Disk{Radius: 0.15}},
		"heter-on-off": {Sensors: 300, Scheme: hetero, Channel: channel.HeterOnOff{P: [][]float64{
			{0.7, 0.2},
			{0.2, 0.5},
		}}},
	}
	for name, cfg := range cfgs {
		t.Run(name, func(t *testing.T) {
			d, err := NewDeployer(cfg)
			if err != nil {
				t.Fatal(err)
			}
			for seed := uint64(1); seed <= 3; seed++ {
				ref := rng.New(seed)
				asg, err := cfg.Scheme.AssignInto(ref, cfg.Sensors, new(keys.RingArena))
				if err != nil {
					t.Fatal(err)
				}
				want, err := channel.Sample(cfg.Channel, ref, cfg.Sensors, asg.Labels, nil)
				if err != nil {
					t.Fatal(err)
				}

				r := rng.New(seed)
				net, err := d.DeployRand(r)
				if err != nil {
					t.Fatal(err)
				}
				if *r != *ref {
					t.Fatal("deployment left the generator elsewhere than AssignInto + Sample")
				}
				got := net.channelTopology()
				if *r != *ref {
					t.Fatal("ChannelTopology advanced the caller's generator")
				}
				if !graphsEqual(want, got) {
					t.Fatalf("seed %d: channel topology differs from Sample (%d vs %d edges)", seed, got.M(), want.M())
				}
				if again := net.channelTopology(); again != got {
					t.Fatal("second ChannelTopology call built a new graph")
				}
				st, err := net.SimulateDiscovery()
				if err != nil {
					t.Fatal(err)
				}
				if st.EstablishedLinks != net.FullSecureTopology().M() {
					t.Fatalf("discovery found %d links, deployment %d", st.EstablishedLinks, net.FullSecureTopology().M())
				}
			}
		})
	}
}

// classOf returns sensor v's class index into Scheme().Classes().
func (n *Network) classOf(v int32) (int, error) {
	if int(v) < 0 || int(v) >= n.cfg.Sensors {
		return 0, fmt.Errorf("wsn: sensor %d out of range", v)
	}
	if n.labels == nil {
		return 0, nil
	}
	return int(n.labels[v]), nil
}
