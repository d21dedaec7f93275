package wsn

import (
	"math"
	"slices"
	"testing"

	"github.com/secure-wsn/qcomposite/internal/channel"
	"github.com/secure-wsn/qcomposite/internal/graph"
	"github.com/secure-wsn/qcomposite/internal/keys"
	"github.com/secure-wsn/qcomposite/internal/rng"
	"github.com/secure-wsn/qcomposite/internal/theory"
)

// deployTest builds a medium test network that is almost surely connected.
func deployTest(t *testing.T, seed uint64) *Network {
	t.Helper()
	scheme, err := keys.NewQComposite(500, 40, 2)
	if err != nil {
		t.Fatal(err)
	}
	net, err := Deploy(Config{
		Sensors: 120,
		Scheme:  scheme,
		Channel: channel.OnOff{P: 0.8},
		Seed:    seed,
	})
	if err != nil {
		t.Fatal(err)
	}
	return net
}

func TestDeployValidation(t *testing.T) {
	scheme, err := keys.NewQComposite(100, 10, 1)
	if err != nil {
		t.Fatal(err)
	}
	tests := []struct {
		name string
		cfg  Config
	}{
		{name: "negative sensors", cfg: Config{Sensors: -1, Scheme: scheme, Channel: channel.AlwaysOn{}}},
		{name: "nil scheme", cfg: Config{Sensors: 10, Channel: channel.AlwaysOn{}}},
		{name: "nil channel", cfg: Config{Sensors: 10, Scheme: scheme}},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if _, err := Deploy(tt.cfg); err == nil {
				t.Error("want error, got nil")
			}
		})
	}
}

func TestDeployEstablishesOnlyValidLinks(t *testing.T) {
	net := deployTest(t, 7)
	q := net.Scheme().RequiredOverlap()
	topo := net.FullSecureTopology()
	chans := net.channelTopology()

	// Every secure edge must be a channel edge with ≥ q shared keys and a
	// link key derived from exactly the shared keys.
	topo.ForEachEdge(func(u, v int32) bool {
		if !chans.HasEdge(u, v) {
			t.Errorf("secure edge (%d,%d) has no channel", u, v)
		}
		link, ok := net.Link(u, v)
		if !ok {
			t.Fatalf("secure edge (%d,%d) has no link record", u, v)
		}
		if len(link.SharedKeys) < q {
			t.Errorf("link (%d,%d) has %d shared keys < q=%d", u, v, len(link.SharedKeys), q)
		}
		ru, err := net.Ring(u)
		if err != nil {
			t.Fatal(err)
		}
		rv, err := net.Ring(v)
		if err != nil {
			t.Fatal(err)
		}
		wantShared := sharedOracle(ru, rv)
		if len(wantShared) != len(link.SharedKeys) {
			t.Errorf("link (%d,%d) shared keys %v, rings share %v", u, v, link.SharedKeys, wantShared)
		}
		if link.Key != keys.DeriveLinkKey(wantShared) {
			t.Errorf("link (%d,%d) key does not match derivation", u, v)
		}
		return true
	})

	// And every channel edge with enough shared keys must be secure.
	chans.ForEachEdge(func(u, v int32) bool {
		ru, err := net.Ring(u)
		if err != nil {
			t.Fatal(err)
		}
		rv, err := net.Ring(v)
		if err != nil {
			t.Fatal(err)
		}
		if len(sharedOracle(ru, rv)) >= q && !topo.HasEdge(u, v) {
			t.Errorf("channel edge (%d,%d) shares ≥ q keys but is not secure", u, v)
		}
		return true
	})
}

func TestDeployDeterministic(t *testing.T) {
	a := deployTest(t, 42)
	b := deployTest(t, 42)
	ga, gb := a.FullSecureTopology(), b.FullSecureTopology()
	if !ga.IsSpanningSubgraphOf(gb) || !gb.IsSpanningSubgraphOf(ga) {
		t.Error("same seed produced different networks")
	}
	c := deployTest(t, 43)
	gc := c.FullSecureTopology()
	if ga.IsSpanningSubgraphOf(gc) && gc.IsSpanningSubgraphOf(ga) {
		t.Error("different seeds produced identical networks (suspicious)")
	}
}

func TestLinkQueries(t *testing.T) {
	net := deployTest(t, 8)
	if _, ok := net.Link(0, 0); ok {
		t.Error("self link reported")
	}
	if _, ok := net.Link(-1, 2); ok {
		t.Error("out-of-range link reported")
	}
	links := net.Links()
	if len(links) != net.FullSecureTopology().M() {
		t.Errorf("Links() returned %d, topology has %d", len(links), net.FullSecureTopology().M())
	}
	for _, l := range links[:min(5, len(links))] {
		got, ok := net.Link(l.A, l.B)
		if !ok {
			t.Fatalf("Link(%d,%d) missing", l.A, l.B)
		}
		// Symmetric lookup.
		rev, ok := net.Link(l.B, l.A)
		if !ok || rev.Key != got.Key {
			t.Errorf("Link lookup not symmetric for (%d,%d)", l.A, l.B)
		}
	}
	// Mutating a returned link must not affect internal state.
	if len(links) > 0 {
		l, _ := net.Link(links[0].A, links[0].B)
		if len(l.SharedKeys) > 0 {
			l.SharedKeys[0] = -99
			l2, _ := net.Link(links[0].A, links[0].B)
			if l2.SharedKeys[0] == -99 {
				t.Error("returned link aliases internal state")
			}
		}
	}
}

// TestForEachLinkMatchesLinks pins the key-free link walk to Links: the
// same links in the same order with the same shared keys, on a fresh
// deployment, after node failures and after a revocation. The walk runs on
// a network whose link table it builds itself, Links on a twin deployed
// from the same seed, and a later Links on the walked network must still
// derive the twin's keys. An early stop ends the walk.
func TestForEachLinkMatchesLinks(t *testing.T) {
	net, twin := deployTest(t, 8), deployTest(t, 8)
	check := func(stage string) {
		t.Helper()
		links := twin.Links()
		i := 0
		net.ForEachLink(func(a, b int32, shared []keys.ID) bool {
			if i >= len(links) {
				t.Fatalf("%s: ForEachLink walks more than the %d links of Links", stage, len(links))
			}
			if l := links[i]; l.A != a || l.B != b || !slices.Equal(l.SharedKeys, shared) {
				t.Fatalf("%s: link %d is (%d,%d) %v, Links has (%d,%d) %v", stage, i, a, b, shared, l.A, l.B, l.SharedKeys)
			}
			i++
			return true
		})
		if i != len(links) {
			t.Fatalf("%s: ForEachLink walked %d links, Links has %d", stage, i, len(links))
		}
		if got := net.Links(); !slices.EqualFunc(got, links, func(x, y Link) bool {
			return x.A == y.A && x.B == y.B && x.Key == y.Key && slices.Equal(x.SharedKeys, y.SharedKeys)
		}) {
			t.Fatalf("%s: Links after ForEachLink differs from the twin's", stage)
		}
	}
	check("fresh")
	for _, n := range []*Network{net, twin} {
		if err := n.FailNodes(1, 2, 3); err != nil {
			t.Fatal(err)
		}
	}
	check("after failures")
	for _, n := range []*Network{net, twin} {
		if _, err := n.RevokeNodeKeys(4); err != nil {
			t.Fatal(err)
		}
	}
	check("after revocation")
	walked := 0
	net.ForEachLink(func(int32, int32, []keys.ID) bool {
		walked++
		return false
	})
	if walked != 1 {
		t.Errorf("a walk stopped at its first link visited %d links", walked)
	}
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}

func TestSecurePath(t *testing.T) {
	net := deployTest(t, 9)
	conn, err := net.IsConnected()
	if err != nil {
		t.Fatal(err)
	}
	if !conn {
		t.Skip("test network not connected under this seed")
	}
	path, err := net.SecurePath(0, int32(net.Sensors()-1))
	if err != nil {
		t.Fatal(err)
	}
	if len(path) == 0 {
		t.Fatal("no path in a connected network")
	}
	if path[0] != 0 || path[len(path)-1] != int32(net.Sensors()-1) {
		t.Errorf("path endpoints wrong: %v", path)
	}
	topo := net.FullSecureTopology()
	for i := 0; i+1 < len(path); i++ {
		if !topo.HasEdge(path[i], path[i+1]) {
			t.Errorf("path hop (%d,%d) is not a secure link", path[i], path[i+1])
		}
	}
}

func TestFailureInjection(t *testing.T) {
	net := deployTest(t, 10)
	n := net.Sensors()
	if net.AliveCount() != n {
		t.Fatalf("AliveCount = %d", net.AliveCount())
	}
	if err := net.FailNodes(3, 5); err != nil {
		t.Fatal(err)
	}
	if net.AliveCount() != n-2 || net.Alive(3) || !net.Alive(4) {
		t.Error("failure state wrong after FailNodes")
	}
	if err := net.FailNodes(3); err == nil {
		t.Error("double failure: want error")
	}
	if err := net.FailNodes(int32(n)); err == nil {
		t.Error("out of range failure: want error")
	}
	// Failed sensors disappear from topology and links.
	sub, orig, err := net.SecureTopology()
	if err != nil {
		t.Fatal(err)
	}
	if sub.N() != n-2 {
		t.Errorf("induced topology has %d nodes, want %d", sub.N(), n-2)
	}
	for _, o := range orig {
		if o == 3 || o == 5 {
			t.Error("failed sensor still present in induced topology")
		}
	}
	if _, ok := net.Link(3, 4); ok {
		t.Error("link to failed sensor reported")
	}
	if _, err := net.SecurePath(3, 4); err == nil {
		t.Error("SecurePath from failed sensor: want error")
	}
	net.restoreAll()
	if net.AliveCount() != n || !net.Alive(3) {
		t.Error("RestoreAll did not restore")
	}
}

func TestFailRandom(t *testing.T) {
	net := deployTest(t, 11)
	r := rng.New(1)
	failed, err := net.FailRandom(r, 10)
	if err != nil {
		t.Fatal(err)
	}
	if len(failed) != 10 {
		t.Fatalf("failed %d sensors", len(failed))
	}
	seen := map[int32]bool{}
	for _, id := range failed {
		if seen[id] {
			t.Fatalf("sensor %d failed twice", id)
		}
		seen[id] = true
		if net.Alive(id) {
			t.Errorf("sensor %d still alive", id)
		}
	}
	if net.AliveCount() != net.Sensors()-10 {
		t.Errorf("AliveCount = %d", net.AliveCount())
	}
	if _, err := net.FailRandom(r, net.Sensors()); err == nil {
		t.Error("failing more than alive: want error")
	}
	if _, err := net.FailRandom(r, -1); err == nil {
		t.Error("negative count: want error")
	}
}

func TestAppendAliveIDs(t *testing.T) {
	net := deployTest(t, 13)
	n := net.Sensors()
	ids := net.AppendAliveIDs(nil)
	if len(ids) != n {
		t.Fatalf("fresh network: %d alive IDs, want %d", len(ids), n)
	}
	for i, id := range ids {
		if id != int32(i) {
			t.Fatalf("alive IDs not ascending: ids[%d] = %d", i, id)
		}
	}
	if err := net.FailNodes(0, 4, int32(n-1)); err != nil {
		t.Fatal(err)
	}
	// Appends to the destination slice, preserving its prefix.
	got := net.AppendAliveIDs([]int32{-7})
	if got[0] != -7 || len(got) != 1+n-3 {
		t.Fatalf("append semantics broken: len %d, head %d", len(got), got[0])
	}
	for _, id := range got[1:] {
		if id == 0 || id == 4 || id == int32(n-1) {
			t.Errorf("dead sensor %d listed alive", id)
		}
	}
}

func TestKConnectivityMatchesFailureSemantics(t *testing.T) {
	// If the network is k-connected, any k−1 failures leave it connected.
	net := deployTest(t, 12)
	const k = 3
	ok, err := net.IsKConnected(k)
	if err != nil {
		t.Fatal(err)
	}
	if !ok {
		t.Skip("test network not 3-connected under this seed")
	}
	r := rng.New(2)
	for trial := 0; trial < 20; trial++ {
		if _, err := net.FailRandom(r, k-1); err != nil {
			t.Fatal(err)
		}
		conn, err := net.IsConnected()
		if err != nil {
			t.Fatal(err)
		}
		if !conn {
			t.Fatal("3-connected network disconnected by 2 failures")
		}
		net.restoreAll()
	}
}

func TestSnapshot(t *testing.T) {
	net := deployTest(t, 13)
	rep, err := net.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if rep.Sensors != net.Sensors() || rep.Alive != net.Sensors() {
		t.Errorf("report counts wrong: %+v", rep)
	}
	if rep.SecureLinks != net.FullSecureTopology().M() {
		t.Errorf("SecureLinks = %d", rep.SecureLinks)
	}
	if rep.SchemeName != "2-composite" {
		t.Errorf("SchemeName = %q", rep.SchemeName)
	}
	if rep.RequiredShared != 2 {
		t.Errorf("RequiredShared = %d", rep.RequiredShared)
	}
	wantMean := 2 * float64(rep.SecureLinks) / float64(rep.Sensors)
	if math.Abs(rep.MeanDegree-wantMean) > 1e-12 {
		t.Errorf("MeanDegree = %v, want %v", rep.MeanDegree, wantMean)
	}
	if rep.Connected != (rep.Components <= 1) {
		t.Error("Connected flag inconsistent with component count")
	}
}

func TestEmptyNetwork(t *testing.T) {
	scheme, err := keys.NewQComposite(10, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	net, err := Deploy(Config{Sensors: 0, Scheme: scheme, Channel: channel.AlwaysOn{}, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := net.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if rep.Sensors != 0 || rep.SecureLinks != 0 {
		t.Errorf("empty network report: %+v", rep)
	}
	conn, err := net.IsConnected()
	if err != nil {
		t.Fatal(err)
	}
	if !conn {
		t.Error("empty network should be vacuously connected")
	}
}

// TestSecureTopologyMatchesTheory is the integration check that Deploy
// reproduces the paper's edge probability t = p·s(K,P,q) (eq. (5)).
func TestSecureTopologyMatchesTheory(t *testing.T) {
	const (
		sensors = 100
		pool    = 300
		ring    = 20
		q       = 2
		pOn     = 0.5
		trials  = 60
	)
	scheme, err := keys.NewQComposite(pool, ring, q)
	if err != nil {
		t.Fatal(err)
	}
	totalEdges := 0
	for seed := uint64(0); seed < trials; seed++ {
		net, err := Deploy(Config{Sensors: sensors, Scheme: scheme, Channel: channel.OnOff{P: pOn}, Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		totalEdges += net.FullSecureTopology().M()
	}
	want, err := theory.EdgeProb(pool, ring, q, pOn)
	if err != nil {
		t.Fatal(err)
	}
	pairs := float64(sensors * (sensors - 1) / 2)
	got := float64(totalEdges) / (pairs * trials)
	if math.Abs(got-want) > 0.12*want+0.002 {
		t.Errorf("deployed edge probability = %v, theory t = %v", got, want)
	}
}

func BenchmarkDeploy(b *testing.B) {
	scheme, err := keys.NewQComposite(10000, 60, 2)
	if err != nil {
		b.Fatal(err)
	}
	cfg := Config{Sensors: 500, Scheme: scheme, Channel: channel.OnOff{P: 0.5}}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cfg.Seed = uint64(i)
		if _, err := Deploy(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// channelTopology returns the network's channel graph; see channelGraph.
func (n *Network) channelTopology() *graph.Undirected {
	g, err := n.channelGraph()
	if err != nil {
		// The same draw already succeeded once, during deployment.
		panic(err)
	}
	return g
}

// restoreAll brings every failed sensor back (fresh-deployment state).
func (n *Network) restoreAll() {
	for i := range n.alive {
		n.alive[i] = true
	}
	n.deadN = 0
}
