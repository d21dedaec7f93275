package graphalgo

import (
	"math/rand"
	"testing"

	"github.com/secure-wsn/qcomposite/internal/graph"
)

// TestWorkspaceMatchesOneShot reuses one Workspace across a stream of random
// graphs of very different sizes and pins every decision against the
// one-shot functions — the reuse contract wsn.Deployer depends on (buffers
// grown by a large graph must not leak state into a smaller one).
func TestWorkspaceMatchesOneShot(t *testing.T) {
	ws := NewWorkspace()
	r := rand.New(rand.NewSource(11))
	sizes := []int{40, 3, 120, 1, 0, 75, 8, 200, 2, 60}
	for trial, n := range sizes {
		// Mix sparse and dense graphs so both connected and disconnected
		// cases appear.
		p := 0.02 + 0.3*r.Float64()
		var edges []graph.Edge
		for u := 0; u < n; u++ {
			for v := u + 1; v < n; v++ {
				if r.Float64() < p {
					edges = append(edges, graph.Edge{U: int32(u), V: int32(v)})
				}
			}
		}
		g, err := graph.NewFromEdges(n, edges)
		if err != nil {
			t.Fatal(err)
		}
		if got, want := IsConnectedW(ws, g), IsConnected(g); got != want {
			t.Fatalf("trial %d (n=%d): IsConnectedW = %v, one-shot = %v", trial, n, got, want)
		}
		for k := 1; k <= 4; k++ {
			if got, want := IsKConnectedW(ws, g, k), IsKConnected(g, k); got != want {
				t.Fatalf("trial %d (n=%d, k=%d): IsKConnectedW = %v, one-shot = %v", trial, n, k, got, want)
			}
		}
		if got, want := IsBiconnectedW(ws, g), IsBiconnectedW(nil, g); got != want {
			t.Fatalf("trial %d (n=%d): IsBiconnectedW = %v, one-shot = %v", trial, n, got, want)
		}
	}
}

// TestWorkspaceKnownGraphs checks the workspace variants on the small graphs
// with known connectivity used by the one-shot tests.
func TestWorkspaceKnownGraphs(t *testing.T) {
	ws := NewWorkspace()
	cycle5, err := graph.NewFromEdges(5, []graph.Edge{
		{U: 0, V: 1}, {U: 1, V: 2}, {U: 2, V: 3}, {U: 3, V: 4}, {U: 4, V: 0},
	})
	if err != nil {
		t.Fatal(err)
	}
	k4, err := graph.NewBuilder().Complete(4)
	if err != nil {
		t.Fatal(err)
	}
	path3, err := graph.NewFromEdges(3, []graph.Edge{{U: 0, V: 1}, {U: 1, V: 2}})
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name string
		g    *graph.Undirected
		k    int
		want bool
	}{
		{"cycle5 2-connected", cycle5, 2, true},
		{"cycle5 not 3-connected", cycle5, 3, false},
		{"K4 3-connected", k4, 3, true},
		{"K4 not 4-connected", k4, 4, false},
		{"path3 connected", path3, 1, true},
		{"path3 not biconnected", path3, 2, false},
	}
	for _, c := range cases {
		if got := IsKConnectedW(ws, c.g, c.k); got != c.want {
			t.Errorf("%s: got %v, want %v", c.name, got, c.want)
		}
	}
	// nil workspace must behave like the one-shot form.
	if !IsKConnectedW(nil, k4, 3) {
		t.Error("nil workspace: K4 should be 3-connected")
	}
}
