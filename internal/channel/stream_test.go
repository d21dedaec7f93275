package channel

import (
	"slices"
	"testing"

	"github.com/secure-wsn/qcomposite/internal/graph"
	"github.com/secure-wsn/qcomposite/internal/rng"
)

// sameGraph reports byte-identical CSR contents.
func sameGraph(a, b *graph.Undirected) bool {
	if a.N() != b.N() || a.M() != b.M() {
		return false
	}
	for v := int32(0); int(v) < a.N(); v++ {
		if !slices.Equal(a.Neighbors(v), b.Neighbors(v)) {
			return false
		}
	}
	return true
}

// emittedEdges drains an emitter into its edge sequence.
func emittedEdges(t *testing.T, emit func(yield func(u, v int32) bool) error) []graph.Edge {
	t.Helper()
	var edges []graph.Edge
	if err := emit(func(u, v int32) bool {
		edges = append(edges, graph.Edge{U: u, V: v})
		return true
	}); err != nil {
		t.Fatal(err)
	}
	return edges
}

// TestEmitEdgesDuplicateFree pins the emitter half of the streaming-degree
// contract: every built-in emitter yields each unordered pair at most once
// (degree counting is not idempotent), including on the tiny toroidal disk
// grids whose aliased neighbor cells used to produce duplicates.
func TestEmitEdgesDuplicateFree(t *testing.T) {
	models := []Model{
		OnOff{P: 0.3},
		AlwaysOn{},
		Disk{Radius: 0.2},
		Disk{Radius: 0.45, Torus: true}, // 2×2 toroidal grid
		Disk{Radius: 0.6, Torus: true},  // 1×1 toroidal grid
		HeterOnOff{P: [][]float64{{0.5}}},
	}
	for _, m := range models {
		t.Run(m.Name(), func(t *testing.T) {
			for seed := uint64(1); seed <= 4; seed++ {
				const n = 40
				seen := make(map[[2]int32]bool)
				err := m.EmitEdges(rng.New(seed), n, func(u, v int32) bool {
					if u == v {
						t.Fatalf("seed %d: self-loop on %d", seed, u)
					}
					key := [2]int32{u, v}
					if u > v {
						key = [2]int32{v, u}
					}
					if seen[key] {
						t.Fatalf("seed %d: pair {%d,%d} emitted twice", seed, u, v)
					}
					seen[key] = true
					return true
				})
				if err != nil {
					t.Fatal(err)
				}
			}
		})
	}
	hetero := HeterOnOff{P: [][]float64{{0.9, 0.5}, {0.5, 0.7}}}
	labels := make([]uint8, 50)
	for i := range labels {
		labels[i] = uint8(i % 2)
	}
	seen := make(map[[2]int32]bool)
	err := hetero.EmitClassEdges(rng.New(3), len(labels), labels, func(u, v int32) bool {
		key := [2]int32{u, v}
		if u > v {
			key = [2]int32{v, u}
		}
		if seen[key] {
			t.Fatalf("class blocks: pair {%d,%d} emitted twice", u, v)
		}
		seen[key] = true
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestEmitEdgesMatchesSample pins Sample against each model's own emitter:
// at a fixed seed the EmitEdges edge set merges to exactly the graph Sample
// collects through Emit, and both draws consume the generator identically.
// For the one-class HeterOnOff the two sides run different kernels (Emit
// picks the class-block path, EmitEdges the OnOff one).
func TestEmitEdgesMatchesSample(t *testing.T) {
	models := []Model{
		OnOff{P: 0},
		OnOff{P: 0.15},
		OnOff{P: 1},
		AlwaysOn{},
		Disk{Radius: 0.2},
		Disk{Radius: 0.3, Torus: true},
		Disk{Radius: 0.6, Torus: true}, // tiny grid: aliased cells, dedup path
		Disk{Radius: 0},
		HeterOnOff{P: [][]float64{{0.4}}},
	}
	for _, m := range models {
		t.Run(m.Name(), func(t *testing.T) {
			for trial := 0; trial < 3; trial++ {
				seed := uint64(100 + trial)
				for _, n := range []int{0, 1, 37, 80} {
					rs, rd := rng.New(seed), rng.New(seed)
					want, err := Sample(m, rs, n, nil, nil)
					if err != nil {
						t.Fatal(err)
					}
					got, err := graph.NewFromEdges(n, emittedEdges(t, func(yield func(u, v int32) bool) error {
						return m.EmitEdges(rd, n, yield)
					}))
					if err != nil {
						t.Fatal(err)
					}
					if !sameGraph(want, got) {
						t.Fatalf("seed %d n=%d: emitted graph differs from Sample", seed, n)
					}
					if rs.Uint64() != rd.Uint64() {
						t.Fatalf("seed %d n=%d: generators diverged after the draw", seed, n)
					}
				}
			}
		})
	}
}

// TestEmitEdgesEarlyExit checks that a false yield stops every emitter
// immediately — including across the block boundaries of EmitClassEdges —
// and that what was emitted is a prefix of the full enumeration.
func TestEmitEdgesEarlyExit(t *testing.T) {
	const n, seed = 60, 7
	labels := make([]uint8, n)
	for i := range labels {
		labels[i] = uint8(i % 3)
	}
	hetero := HeterOnOff{P: [][]float64{
		{0.9, 0.5, 0.2},
		{0.5, 0.6, 0.4},
		{0.2, 0.4, 0.8},
	}}
	emitters := map[string]func(r *rng.Rand, yield func(u, v int32) bool) error{
		"on-off":    func(r *rng.Rand, yield func(u, v int32) bool) error { return OnOff{P: 0.3}.EmitEdges(r, n, yield) },
		"always-on": func(r *rng.Rand, yield func(u, v int32) bool) error { return AlwaysOn{}.EmitEdges(r, n, yield) },
		"disk": func(r *rng.Rand, yield func(u, v int32) bool) error {
			return Disk{Radius: 0.3, Torus: true}.EmitEdges(r, n, yield)
		},
		"hetero-class": func(r *rng.Rand, yield func(u, v int32) bool) error {
			return hetero.EmitClassEdges(r, n, labels, yield)
		},
	}
	for name, emit := range emitters {
		t.Run(name, func(t *testing.T) {
			var full []graph.Edge
			if err := emit(rng.New(seed), func(u, v int32) bool {
				full = append(full, graph.Edge{U: u, V: v})
				return true
			}); err != nil {
				t.Fatal(err)
			}
			if len(full) < 4 {
				t.Fatalf("test draw too sparse: %d edges", len(full))
			}
			for _, stop := range []int{1, 3, len(full) / 2} {
				var prefix []graph.Edge
				if err := emit(rng.New(seed), func(u, v int32) bool {
					prefix = append(prefix, graph.Edge{U: u, V: v})
					return len(prefix) < stop
				}); err != nil {
					t.Fatal(err)
				}
				if len(prefix) != stop {
					t.Fatalf("stopped after %d edges, want %d", len(prefix), stop)
				}
				for i := range prefix {
					if prefix[i] != full[i] {
						t.Fatalf("stop=%d: edge %d = %v, want %v", stop, i, prefix[i], full[i])
					}
				}
			}
		})
	}
}

// TestEmitEdgesValidation covers the emitters' validation, including the
// multi-class HeterOnOff's refusal to emit without labels.
func TestEmitEdgesValidation(t *testing.T) {
	yield := func(u, v int32) bool { return true }
	r := rng.New(1)
	if err := (OnOff{P: 1.5}).EmitEdges(r, 10, yield); err == nil {
		t.Error("invalid OnOff: want error")
	}
	if err := (AlwaysOn{}).EmitEdges(r, -1, yield); err == nil {
		t.Error("negative n: want error")
	}
	if err := (Disk{Radius: -1}).EmitEdges(r, 10, yield); err == nil {
		t.Error("invalid Disk: want error")
	}
	multi := UniformHeterOnOff(2, 0.5)
	if err := multi.EmitEdges(r, 10, yield); err == nil {
		t.Error("multi-class EmitEdges without labels: want error")
	}
	if err := multi.EmitClassEdges(r, 10, make([]uint8, 3), yield); err == nil {
		t.Error("label/count mismatch: want error")
	}
	if err := multi.EmitClassEdges(r, 4, []uint8{0, 1, 2, 0}, yield); err == nil {
		t.Error("label beyond class count: want error")
	}
}

// TestRowMajorDraws checks the RowMajor contract on real draws: a model
// reported row-major yields every pair once as (u, v) with u < v and u
// nondecreasing, and a labelled two-class HeterOnOff, whose class-pair
// blocks revisit low nodes, reports false and does break the order.
func TestRowMajorDraws(t *testing.T) {
	rowMajor := func(m Model, seed uint64, n int, labels []uint8) (ok bool) {
		seen := make(map[graph.Edge]bool)
		lastU := int32(-1)
		ok = true
		if err := Emit(m, rng.New(seed), n, labels, func(u, v int32) bool {
			e := graph.Edge{U: u, V: v}
			if u >= v || u < lastU || seen[e] {
				ok = false
				return false
			}
			seen[e] = true
			lastU = u
			return true
		}); err != nil {
			t.Fatal(err)
		}
		return ok
	}
	for _, m := range []Model{
		OnOff{}, OnOff{P: 0.01}, OnOff{P: 0.3}, OnOff{P: 1}, AlwaysOn{},
		Disk{Radius: 0.2}, Disk{Radius: 0.2, Torus: true}, Disk{Radius: 0.6, Torus: true},
		UniformHeterOnOff(1, 0.5),
	} {
		if !RowMajor(m) {
			t.Fatalf("%s: RowMajor = false, want true", m.Name())
		}
		for _, n := range []int{0, 1, 2, 3, 60} {
			for seed := uint64(0); seed < 3; seed++ {
				if !rowMajor(m, seed, n, nil) {
					t.Fatalf("%s n=%d seed=%d: draw breaks row-major order", m.Name(), n, seed)
				}
			}
		}
	}
	hetero := UniformHeterOnOff(2, 0.5)
	if RowMajor(hetero) {
		t.Errorf("%s: RowMajor = true, want false", hetero.Name())
	}
	labels := make([]uint8, 60)
	for i := range labels {
		labels[i] = uint8(i % 2)
	}
	if rowMajor(hetero, 1, len(labels), labels) {
		t.Errorf("%s: labelled draw is row-major, want the class blocks to break the order", hetero.Name())
	}
}

// checkRowsMatchEmit draws m once edge by edge through Emit and once row by
// row through a RowDraw from the same seed, and fails unless the rows,
// concatenated, are exactly the edge sequence and both draws leave the
// generator at the same position. It returns the number of edges.
func checkRowsMatchEmit(t *testing.T, rd *RowDraw, m Model, n int, labels []uint8, seed uint64) int {
	t.Helper()
	rEdge, rRow := rng.New(seed), rng.New(seed)
	want := emittedEdges(t, func(yield func(u, v int32) bool) error {
		return Emit(m, rEdge, n, labels, yield)
	})
	var got []graph.Edge
	if err := rd.Emit(m, rRow, n, labels, func(u int32, vs []int32) bool {
		if len(vs) == 0 {
			t.Fatalf("%s n=%d seed=%d: empty row %d", m.Name(), n, seed, u)
		}
		for _, v := range vs {
			got = append(got, graph.Edge{U: u, V: v})
		}
		return true
	}); err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(got, want) {
		t.Fatalf("%s n=%d seed=%d: rows give %d edges %v, Emit %d edges %v", m.Name(), n, seed, len(got), got, len(want), want)
	}
	if *rRow != *rEdge {
		t.Fatalf("%s n=%d seed=%d: row draw leaves the generator elsewhere than Emit", m.Name(), n, seed)
	}
	return len(want)
}

// alternatingLabels puts node i in class i mod 2.
func alternatingLabels(n int) []uint8 {
	labels := make([]uint8, n)
	for i := range labels {
		labels[i] = uint8(i % 2)
	}
	return labels
}

// TestRowDrawMatchesEmit pins the row draw to the edge draw for every
// model: native rows (OnOff across p, AlwaysOn) and grouped ones (both
// disk variants, a labelled two-class HeterOnOff), one RowDraw serving
// every draw so reused buffers are covered too.
func TestRowDrawMatchesEmit(t *testing.T) {
	var rd RowDraw
	edges := 0
	for _, m := range []Model{
		OnOff{}, OnOff{P: 1e-9}, OnOff{P: 0.2}, OnOff{P: 0.5}, OnOff{P: 1}, AlwaysOn{},
		Disk{Radius: 0.2}, Disk{Radius: 0.2, Torus: true},
		HeterOnOff{P: [][]float64{{0.5, 0.1}, {0.1, 0.3}}},
	} {
		for _, n := range []int{0, 1, 2, 3, 60} {
			var labels []uint8
			if _, ok := m.(ClassModel); ok {
				labels = alternatingLabels(n)
			}
			for seed := uint64(0); seed < 3; seed++ {
				edges += checkRowsMatchEmit(t, &rd, m, n, labels, seed)
			}
		}
	}
	if edges == 0 {
		t.Fatal("no draw yielded an edge")
	}
}

// TestRowDrawEarlyExit checks that a row consumer returning false ends the
// draw: no further row arrives, on native and grouped models alike.
func TestRowDrawEarlyExit(t *testing.T) {
	var rd RowDraw
	for _, m := range []Model{OnOff{P: 0.3}, AlwaysOn{}, Disk{Radius: 0.3}} {
		rows := 0
		if err := rd.Emit(m, rng.New(4), 60, nil, func(u int32, vs []int32) bool {
			rows++
			return rows < 3
		}); err != nil {
			t.Fatal(err)
		}
		if rows != 3 {
			t.Errorf("%s: %d rows after the consumer stopped at the third", m.Name(), rows)
		}
	}
}

// FuzzRowDrawMatchesEmit is TestRowDrawMatchesEmit over arbitrary sizes,
// seeds and model parameters.
func FuzzRowDrawMatchesEmit(f *testing.F) {
	f.Add(uint64(1), uint8(60), uint8(0), uint8(80))
	f.Add(uint64(2), uint8(9), uint8(1), uint8(0))
	f.Add(uint64(3), uint8(120), uint8(2), uint8(40))
	f.Add(uint64(4), uint8(33), uint8(3), uint8(200))
	f.Add(uint64(5), uint8(70), uint8(4), uint8(128))
	f.Fuzz(func(t *testing.T, seed uint64, n, model, param uint8) {
		x := float64(param) / 255
		var m Model
		var labels []uint8
		switch model % 5 {
		case 0:
			m = OnOff{P: x}
		case 1:
			m = AlwaysOn{}
		case 2:
			m = Disk{Radius: x}
		case 3:
			m = Disk{Radius: x, Torus: true}
		default:
			m = HeterOnOff{P: [][]float64{{x, x / 3}, {x / 3, 1 - x}}}
			labels = alternatingLabels(int(n))
		}
		var rd RowDraw
		checkRowsMatchEmit(t, &rd, m, int(n), labels, seed)
	})
}
