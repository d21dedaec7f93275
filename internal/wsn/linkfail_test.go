package wsn

import (
	"testing"

	"github.com/secure-wsn/qcomposite/internal/rng"
)

func TestFailLinkValidation(t *testing.T) {
	net := deployTest(t, 31)
	if err := net.FailLink(0, 0); err == nil {
		t.Error("self link: want error")
	}
	links := net.Links()
	if len(links) == 0 {
		t.Fatal("no links to test with")
	}
	l := links[0]
	if err := net.FailLink(l.A, l.B); err != nil {
		t.Fatalf("FailLink: %v", err)
	}
	if err := net.FailLink(l.B, l.A); err == nil {
		t.Error("double failure (reversed): want error")
	}
	if net.FailedLinkCount() != 1 {
		t.Errorf("FailedLinkCount = %d", net.FailedLinkCount())
	}
	// A non-existent link cannot fail.
	var nonEdge [2]int32 = findNonLink(t, net)
	if err := net.FailLink(nonEdge[0], nonEdge[1]); err == nil {
		t.Error("non-link failure: want error")
	}
	net.restoreLinks()
	if net.FailedLinkCount() != 0 {
		t.Error("RestoreLinks did not clear failures")
	}
	if err := net.FailLink(l.A, l.B); err != nil {
		t.Errorf("link not failable after restore: %v", err)
	}
}

// findNonLink locates a sensor pair without a secure link.
func findNonLink(t *testing.T, net *Network) [2]int32 {
	t.Helper()
	topo := net.FullSecureTopology()
	for u := int32(0); int(u) < net.Sensors(); u++ {
		for v := u + 1; int(v) < net.Sensors(); v++ {
			if !topo.HasEdge(u, v) {
				return [2]int32{u, v}
			}
		}
	}
	t.Fatal("network is complete; cannot find a non-link")
	return [2]int32{}
}

func TestFailRandomLinks(t *testing.T) {
	net := deployTest(t, 32)
	total := net.FullSecureTopology().M()
	r := rng.New(1)
	failed, err := net.FailRandomLinks(r, 10)
	if err != nil {
		t.Fatal(err)
	}
	if len(failed) != 10 || net.FailedLinkCount() != 10 {
		t.Fatalf("failed %d links, count %d", len(failed), net.FailedLinkCount())
	}
	seen := map[[2]int32]bool{}
	for _, key := range failed {
		if seen[key] {
			t.Fatalf("link %v failed twice", key)
		}
		seen[key] = true
	}
	// Operational topology loses exactly the failed links.
	sub, _, err := net.operationalTopology()
	if err != nil {
		t.Fatal(err)
	}
	if sub.M() != total-10 {
		t.Errorf("operational links = %d, want %d", sub.M(), total-10)
	}
	if _, err := net.FailRandomLinks(r, total); err == nil {
		t.Error("over-failure: want error")
	}
	if _, err := net.FailRandomLinks(r, -1); err == nil {
		t.Error("negative count: want error")
	}
}

func TestUsableLinkCount(t *testing.T) {
	net := deployTest(t, 34)
	total := net.FullSecureTopology().M()
	if got := net.UsableLinkCount(); got != total {
		t.Fatalf("fresh network: UsableLinkCount = %d, want %d", got, total)
	}
	// Failing links removes exactly them from the usable count.
	r := rng.New(3)
	if _, err := net.FailRandomLinks(r, 5); err != nil {
		t.Fatal(err)
	}
	if got := net.UsableLinkCount(); got != total-5 {
		t.Errorf("after 5 link failures: UsableLinkCount = %d, want %d", got, total-5)
	}
	// Failing a sensor removes its incident non-failed links too; the count
	// must keep matching the FailRandomLinks sampling universe.
	if err := net.FailNodes(0); err != nil {
		t.Fatal(err)
	}
	want := net.UsableLinkCount()
	if _, err := net.FailRandomLinks(r, want); err != nil {
		t.Errorf("failing exactly UsableLinkCount links: %v", err)
	}
	if got := net.UsableLinkCount(); got != 0 {
		t.Errorf("after failing every usable link: UsableLinkCount = %d", got)
	}
	if _, err := net.FailRandomLinks(r, 1); err == nil {
		t.Error("failing beyond UsableLinkCount: want error")
	}
}

func TestKEdgeConnectivitySurvivesLinkFailures(t *testing.T) {
	net := deployTest(t, 33)
	const k = 3
	ok, err := net.IsKEdgeConnected(k)
	if err != nil {
		t.Fatal(err)
	}
	if !ok {
		t.Skip("network not 3-edge-connected under this seed")
	}
	r := rng.New(2)
	for trial := 0; trial < 15; trial++ {
		if _, err := net.FailRandomLinks(r, k-1); err != nil {
			t.Fatal(err)
		}
		conn, err := net.IsOperationallyConnected()
		if err != nil {
			t.Fatal(err)
		}
		if !conn {
			t.Fatal("3-edge-connected network disconnected by 2 link failures")
		}
		net.restoreLinks()
	}
}

func TestLinkAndNodeFailuresCompose(t *testing.T) {
	net := deployTest(t, 34)
	r := rng.New(3)
	if _, err := net.FailRandomLinks(r, 5); err != nil {
		t.Fatal(err)
	}
	if _, err := net.FailRandom(r, 5); err != nil {
		t.Fatal(err)
	}
	sub, orig, err := net.operationalTopology()
	if err != nil {
		t.Fatal(err)
	}
	if sub.N() != net.Sensors()-5 {
		t.Errorf("operational nodes = %d", sub.N())
	}
	// No failed link may appear (in original coordinates).
	for key := range net.failedLinks {
		newA, newB := int32(-1), int32(-1)
		for i, o := range orig {
			if o == key[0] {
				newA = int32(i)
			}
			if o == key[1] {
				newB = int32(i)
			}
		}
		if newA >= 0 && newB >= 0 && sub.HasEdge(newA, newB) {
			t.Errorf("failed link %v still present", key)
		}
	}
	net.restoreAll()
	net.restoreLinks()
	sub2, _, err := net.operationalTopology()
	if err != nil {
		t.Fatal(err)
	}
	if sub2.M() != net.FullSecureTopology().M() {
		t.Error("full restore did not recover all links")
	}
}

func TestVertexKConnImpliesEdgeKConn(t *testing.T) {
	// Whitney at the network level: κ ≥ k ⇒ λ ≥ k.
	net := deployTest(t, 35)
	for k := 1; k <= 3; k++ {
		kc, err := net.IsKConnected(k)
		if err != nil {
			t.Fatal(err)
		}
		if !kc {
			continue
		}
		ec, err := net.IsKEdgeConnected(k)
		if err != nil {
			t.Fatal(err)
		}
		if !ec {
			t.Errorf("k=%d: vertex k-connected but not edge k-connected", k)
		}
	}
}

// restoreLinks brings all failed links back.
func (n *Network) restoreLinks() {
	n.failedLinks = nil
}
