package randgraph

import (
	"math"
	"testing"

	"github.com/secure-wsn/qcomposite/internal/graph"
	"github.com/secure-wsn/qcomposite/internal/rng"
)

// collectStream drains a streaming enumerator into an edge slice.
func collectStream(t *testing.T, emit func(yield func(u, v int32) bool) error) []graph.Edge {
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

// source returns a skip kernel reset to r, the private kernel a one-shot
// draw runs on.
func source(r *rng.Rand) *rng.GeometricSource {
	var src rng.GeometricSource
	src.Reset(r)
	return &src
}

// requireSameEdges asserts two edge sequences are identical, order included.
func requireSameEdges(t *testing.T, want, got []graph.Edge) {
	t.Helper()
	if len(want) != len(got) {
		t.Fatalf("%d edges, want %d", len(got), len(want))
	}
	for i := range want {
		if want[i] != got[i] {
			t.Fatalf("edge %d = %v, want %v", i, got[i], want[i])
		}
	}
}

// TestStreamEarlyExitIsPrefix pins the early-exit semantics: stopping after m
// edges yields exactly the first m edges of the full enumeration, for every
// stream variant.
func TestStreamEarlyExitIsPrefix(t *testing.T) {
	const seed = 9
	nodes := []int32{1, 4, 6, 9, 13, 17, 22, 30}
	sideA := []int32{0, 2, 4, 6}
	sideB := []int32{1, 3, 5, 7, 9}
	variants := map[string]func(r *rng.Rand, yield func(u, v int32) bool) error{
		"er": func(r *rng.Rand, yield func(u, v int32) bool) error {
			return EmitErdosRenyi(source(r), 30, 0.3, yield)
		},
		"er-dense": func(r *rng.Rand, yield func(u, v int32) bool) error {
			return EmitErdosRenyi(source(r), 12, 1, yield)
		},
		"subset": func(r *rng.Rand, yield func(u, v int32) bool) error {
			return EmitErdosRenyiSubset(source(r), nodes, 0.5, yield)
		},
		"bipartite": func(r *rng.Rand, yield func(u, v int32) bool) error {
			return EmitErdosRenyiBipartite(source(r), sideA, sideB, 0.5, yield)
		},
	}
	for name, emit := range variants {
		t.Run(name, func(t *testing.T) {
			full := collectStream(t, func(yield func(u, v int32) bool) error {
				return emit(rng.New(seed), yield)
			})
			if len(full) < 3 {
				t.Fatalf("test draw too sparse: %d edges", len(full))
			}
			for stop := 0; stop <= len(full); stop++ {
				var prefix []graph.Edge
				err := emit(rng.New(seed), func(u, v int32) bool {
					prefix = append(prefix, graph.Edge{U: u, V: v})
					return len(prefix) < stop
				})
				if err != nil {
					t.Fatal(err)
				}
				wantLen := stop
				if stop == 0 {
					wantLen = 1 // yield runs once before its verdict is read
				}
				if wantLen > len(full) {
					wantLen = len(full)
				}
				requireSameEdges(t, full[:wantLen], prefix)
			}
		})
	}
}

// TestBipartiteStreamEarlyExitPrefix strengthens the bipartite case of the
// prefix law across side shapes the class-block sampler actually produces —
// single-row, single-column, tall and wide grids — and across densities:
// stopping after m edges must yield exactly the first m edges of the full
// enumeration at every possible stop point.
func TestBipartiteStreamEarlyExitPrefix(t *testing.T) {
	makeSide := func(start, step int32, count int) []int32 {
		side := make([]int32, count)
		for i := range side {
			side[i] = start + step*int32(i)
		}
		return side
	}
	shapes := []struct {
		name string
		a, b []int32
	}{
		{"1x1", makeSide(0, 1, 1), makeSide(100, 1, 1)},
		{"row-1x24", makeSide(0, 1, 1), makeSide(100, 1, 24)},
		{"col-24x1", makeSide(0, 1, 24), makeSide(100, 1, 1)},
		{"wide-3x17", makeSide(0, 2, 3), makeSide(100, 3, 17)},
		{"tall-17x3", makeSide(0, 3, 17), makeSide(100, 2, 3)},
	}
	for _, shape := range shapes {
		for _, p := range []float64{0.05, 0.5, 0.95, 1} {
			for seed := uint64(1); seed <= 3; seed++ {
				full := collectStream(t, func(yield func(u, v int32) bool) error {
					return EmitErdosRenyiBipartite(source(rng.New(seed)), shape.a, shape.b, p, yield)
				})
				for stop := 0; stop <= len(full); stop++ {
					var prefix []graph.Edge
					err := EmitErdosRenyiBipartite(source(rng.New(seed)), shape.a, shape.b, p,
						func(u, v int32) bool {
							prefix = append(prefix, graph.Edge{U: u, V: v})
							return len(prefix) < stop
						})
					if err != nil {
						t.Fatal(err)
					}
					wantLen := stop
					if stop == 0 {
						wantLen = 1 // yield runs once before its verdict is read
					}
					if wantLen > len(full) {
						wantLen = len(full)
					}
					if len(prefix) != wantLen {
						t.Fatalf("%s p=%g seed=%d stop=%d: %d edges, want %d",
							shape.name, p, seed, stop, len(prefix), wantLen)
					}
					for i := range prefix {
						if prefix[i] != full[i] {
							t.Fatalf("%s p=%g seed=%d stop=%d: edge %d = %+v, want %+v",
								shape.name, p, seed, stop, i, prefix[i], full[i])
						}
					}
				}
			}
		}
	}
}

// TestStreamValidation pins the emitters' argument checks: a negative node
// count and every probability outside [0, 1], NaN and +Inf included, are
// errors. A NaN p must not reach the skip kernel, whose garbage skips would
// index the node lists out of range.
func TestStreamValidation(t *testing.T) {
	yield := func(u, v int32) bool { return true }
	r := rng.New(1)
	if err := EmitErdosRenyi(source(r), -1, 0.5, yield); err == nil {
		t.Error("negative n: want error")
	}
	nodes := []int32{0, 1, 2, 3, 4, 5, 6, 7}
	for _, p := range []float64{-1, -0.1, 1.1, 2, math.NaN(), math.Inf(1)} {
		if err := EmitErdosRenyi(source(rng.New(1)), 8, p, yield); err == nil {
			t.Errorf("p=%v: want error", p)
		}
		if err := EmitErdosRenyiSubset(source(rng.New(1)), nodes, p, yield); err == nil {
			t.Errorf("subset p=%v: want error", p)
		}
		if err := EmitErdosRenyiBipartite(source(rng.New(1)), nodes[:4], nodes[4:], p, yield); err == nil {
			t.Errorf("bipartite p=%v: want error", p)
		}
	}
}

// nextWalk is the reference G(n, p) draw for p in (0, 1): the triangle
// walk taking one GeometricSource.Next per skip, edge by edge, with the
// overflow-free skip cap of the row walk.
func nextWalk(src *rng.GeometricSource, n int, p float64, yield func(u, v int32) bool) {
	src.SetP(p)
	maxSkip := n * (n - 1) / 2
	u, v := 0, 0
	for {
		v += min(src.Next(), maxSkip) + 1
		for v >= n {
			overflow := v - n
			u++
			v = u + 1 + overflow
			if u >= n-1 {
				break
			}
		}
		if u >= n-1 || v >= n || !yield(int32(u), int32(v)) {
			return
		}
	}
}

// TestRowsMatchNextWalk pins the row walk, which reads its skips a buffer
// at a time through Fill, to the reference walk through Next: the same
// edges in the same order, rows in ascending u with ascending neighbours,
// and the generator at the same position after a complete draw and after
// a stop at every row.
func TestRowsMatchNextWalk(t *testing.T) {
	var rs Rows
	for _, n := range []int{2, 3, 17, 200} {
		for _, p := range []float64{1e-9, 0.01, 0.2, 0.5, 0.97} {
			for seed := uint64(0); seed < 3; seed++ {
				rRef := rng.New(seed)
				var want []graph.Edge
				nextWalk(source(rRef), n, p, func(u, v int32) bool {
					want = append(want, graph.Edge{U: u, V: v})
					return true
				})
				rRow := rng.New(seed)
				var got []graph.Edge
				rows := 0
				if err := rs.ErdosRenyi(source(rRow), n, p, func(u int32, vs []int32) bool {
					if len(vs) == 0 || (len(got) > 0 && u <= got[len(got)-1].U) {
						t.Fatalf("n=%d p=%g seed=%d: row %d of %d neighbours out of order", n, p, seed, u, len(vs))
					}
					for i, v := range vs {
						if v <= u || (i > 0 && v <= vs[i-1]) {
							t.Fatalf("n=%d p=%g seed=%d: row %d neighbours %v not ascending above it", n, p, seed, u, vs)
						}
						got = append(got, graph.Edge{U: u, V: v})
					}
					rows++
					return true
				}); err != nil {
					t.Fatal(err)
				}
				requireSameEdges(t, want, got)
				if *rRow != *rRef {
					t.Fatalf("n=%d p=%g seed=%d: generator position differs from the Next walk", n, p, seed)
				}
				// Stop after each row: the reference stops at the first
				// edge of the next row, after the same number of skips.
				for stop := 1; stop < rows; stop++ {
					rRow, rRef := rng.New(seed), rng.New(seed)
					seen := 0
					if err := rs.ErdosRenyi(source(rRow), n, p, func(int32, []int32) bool {
						seen++
						return seen < stop
					}); err != nil {
						t.Fatal(err)
					}
					rowsLeft, lastU := stop, int32(-1)
					nextWalk(source(rRef), n, p, func(u, v int32) bool {
						if u != lastU {
							lastU = u
							rowsLeft--
						}
						return rowsLeft >= 0
					})
					if *rRow != *rRef {
						t.Fatalf("n=%d p=%g seed=%d: generator position after a stop at row %d differs from the Next walk", n, p, seed, stop)
					}
				}
			}
		}
	}
}
