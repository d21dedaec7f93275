package graph

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

func TestJSONRoundTrip(t *testing.T) {
	g := mustGraph(t, 5, []Edge{{U: 0, V: 1}, {U: 3, V: 2}})
	data, err := g.MarshalJSON()
	if err != nil {
		t.Fatal(err)
	}
	back, err := unmarshalGraphJSON(data)
	if err != nil {
		t.Fatal(err)
	}
	if !g.IsSpanningSubgraphOf(back) || !back.IsSpanningSubgraphOf(g) {
		t.Error("JSON round trip changed the graph")
	}
	if back.N() != 5 {
		t.Errorf("round trip N = %d (isolated node lost?)", back.N())
	}
}

func TestJSONStableEncoding(t *testing.T) {
	g := mustGraph(t, 3, []Edge{{U: 2, V: 1}, {U: 1, V: 0}})
	data, err := g.MarshalJSON()
	if err != nil {
		t.Fatal(err)
	}
	want := `{"nodes":3,"edges":[[0,1],[1,2]]}`
	if string(data) != want {
		t.Errorf("encoding = %s, want %s", data, want)
	}
}

func TestUnmarshalGraphJSONErrors(t *testing.T) {
	if _, err := unmarshalGraphJSON([]byte("{")); err == nil {
		t.Error("malformed json: want error")
	}
	if _, err := unmarshalGraphJSON([]byte(`{"nodes":2,"edges":[[0,5]]}`)); err == nil {
		t.Error("edge out of range: want error")
	}
	if _, err := unmarshalGraphJSON([]byte(`{"nodes":2,"edges":[[1,1]]}`)); err == nil {
		t.Error("self loop: want error")
	}
}

func TestEdgeListRoundTrip(t *testing.T) {
	g := mustGraph(t, 6, []Edge{{U: 0, V: 5}, {U: 2, V: 3}, {U: 0, V: 1}})
	var sb strings.Builder
	if err := g.writeEdgeList(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	if !strings.HasPrefix(out, "# nodes 6\n") {
		t.Errorf("missing header: %q", out)
	}
	back, err := readEdgeList(strings.NewReader(out))
	if err != nil {
		t.Fatal(err)
	}
	if back.N() != 6 || !g.IsSpanningSubgraphOf(back) || !back.IsSpanningSubgraphOf(g) {
		t.Error("edge list round trip changed the graph")
	}
}

func TestReadEdgeListWithoutHeader(t *testing.T) {
	in := "0 1\n# a comment\n2 4\n\n"
	g, err := readEdgeList(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if g.N() != 5 || g.M() != 2 {
		t.Errorf("inferred N=%d M=%d, want 5, 2", g.N(), g.M())
	}
}

func TestReadEdgeListErrors(t *testing.T) {
	if _, err := readEdgeList(strings.NewReader("0 not-a-number\n")); err == nil {
		t.Error("garbage line: want error")
	}
	g, err := readEdgeList(strings.NewReader(""))
	if err != nil {
		t.Fatal(err)
	}
	if g.N() != 0 {
		t.Errorf("empty input N = %d", g.N())
	}
}

func TestQuickSerializationRoundTrips(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 1 + r.Intn(40)
		g, err := NewFromEdges(n, randomEdges(r, n, r.Intn(80)))
		if err != nil {
			return false
		}
		data, err := g.MarshalJSON()
		if err != nil {
			return false
		}
		viaJSON, err := unmarshalGraphJSON(data)
		if err != nil {
			return false
		}
		var sb strings.Builder
		if err := g.writeEdgeList(&sb); err != nil {
			return false
		}
		viaText, err := readEdgeList(strings.NewReader(sb.String()))
		if err != nil {
			return false
		}
		same := func(a, b *Undirected) bool {
			return a.N() == b.N() && a.IsSpanningSubgraphOf(b) && b.IsSpanningSubgraphOf(a)
		}
		return same(g, viaJSON) && same(g, viaText)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Error(err)
	}
}

// jsonGraph is the stable on-disk JSON form of an undirected graph.
type jsonGraph struct {
	Nodes int        `json:"nodes"`
	Edges [][2]int32 `json:"edges"`
}

// MarshalJSON encodes the graph as {"nodes": n, "edges": [[u,v], ...]} with
// normalised (u < v), lexicographically ordered edges.
func (g *Undirected) MarshalJSON() ([]byte, error) {
	jg := jsonGraph{Nodes: g.n, Edges: make([][2]int32, 0, g.m)}
	g.ForEachEdge(func(u, v int32) bool {
		jg.Edges = append(jg.Edges, [2]int32{u, v})
		return true
	})
	return json.Marshal(jg)
}

// unmarshalGraphJSON decodes a graph previously produced by MarshalJSON
// (or hand-written in the same schema).
func unmarshalGraphJSON(data []byte) (*Undirected, error) {
	var jg jsonGraph
	if err := json.Unmarshal(data, &jg); err != nil {
		return nil, fmt.Errorf("graph: decode json: %w", err)
	}
	edges := make([]Edge, len(jg.Edges))
	for i, e := range jg.Edges {
		edges[i] = Edge{U: e[0], V: e[1]}
	}
	g, err := NewFromEdges(jg.Nodes, edges)
	if err != nil {
		return nil, fmt.Errorf("graph: decode json: %w", err)
	}
	return g, nil
}

// writeEdgeList writes the graph in the ubiquitous two-column edge-list
// text format ("u v" per line, u < v, preceded by a "# nodes N" header so
// isolated vertices survive the round trip).
func (g *Undirected) writeEdgeList(w io.Writer) error {
	bw := bufio.NewWriter(w)
	if _, err := fmt.Fprintf(bw, "# nodes %d\n", g.n); err != nil {
		return fmt.Errorf("graph: write edge list: %w", err)
	}
	var outerErr error
	g.ForEachEdge(func(u, v int32) bool {
		if _, err := fmt.Fprintf(bw, "%d %d\n", u, v); err != nil {
			outerErr = err
			return false
		}
		return true
	})
	if outerErr != nil {
		return fmt.Errorf("graph: write edge list: %w", outerErr)
	}
	if err := bw.Flush(); err != nil {
		return fmt.Errorf("graph: write edge list: %w", err)
	}
	return nil
}

// readEdgeList parses the format produced by writeEdgeList. Lines starting
// with '#' other than the node-count header are ignored as comments.
func readEdgeList(r io.Reader) (*Undirected, error) {
	sc := bufio.NewScanner(r)
	nodes := -1
	var edges []Edge
	line := 0
	for sc.Scan() {
		line++
		text := strings.TrimSpace(sc.Text())
		if text == "" {
			continue
		}
		if strings.HasPrefix(text, "#") {
			var n int
			if _, err := fmt.Sscanf(text, "# nodes %d", &n); err == nil {
				nodes = n
			}
			continue
		}
		var u, v int32
		if _, err := fmt.Sscanf(text, "%d %d", &u, &v); err != nil {
			return nil, fmt.Errorf("graph: edge list line %d: %q: %w", line, text, err)
		}
		edges = append(edges, Edge{U: u, V: v})
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("graph: read edge list: %w", err)
	}
	if nodes < 0 {
		// No header: infer from the largest endpoint.
		for _, e := range edges {
			if int(e.U)+1 > nodes {
				nodes = int(e.U) + 1
			}
			if int(e.V)+1 > nodes {
				nodes = int(e.V) + 1
			}
		}
		if nodes < 0 {
			nodes = 0
		}
	}
	g, err := NewFromEdges(nodes, edges)
	if err != nil {
		return nil, fmt.Errorf("graph: read edge list: %w", err)
	}
	return g, nil
}
