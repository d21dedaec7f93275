package experiment

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"github.com/secure-wsn/qcomposite/internal/montecarlo"
	"github.com/secure-wsn/qcomposite/internal/rng"
)

func TestGridEnumeration(t *testing.T) {
	g := Grid{Ks: []int{10, 20}, Qs: []int{1, 2, 3}, Ps: []float64{0.2, 0.5}}
	if g.Len() != 12 {
		t.Fatalf("Len = %d, want 12", g.Len())
	}
	pts := g.Points()
	if len(pts) != 12 {
		t.Fatalf("Points() returned %d, want 12", len(pts))
	}
	for i, pt := range pts {
		if pt.Index != i {
			t.Errorf("point %d has Index %d", i, pt.Index)
		}
		if pt.X != 0 {
			t.Errorf("point %d has X %v, want 0 (axis unset)", i, pt.X)
		}
	}
	// Row-major: K outermost, then q, then p.
	if pts[0] != (GridPoint{Index: 0, K: 10, Q: 1, P: 0.2}) {
		t.Errorf("first point = %+v", pts[0])
	}
	if pts[1] != (GridPoint{Index: 1, K: 10, Q: 1, P: 0.5}) {
		t.Errorf("second point = %+v", pts[1])
	}
	if pts[11] != (GridPoint{Index: 11, K: 20, Q: 3, P: 0.5}) {
		t.Errorf("last point = %+v", pts[11])
	}
	// The auxiliary axis multiplies in when set.
	g.Xs = []float64{0, 30, 60}
	if g.Len() != 36 || len(g.Points()) != 36 {
		t.Errorf("with Xs: Len = %d, points = %d, want 36", g.Len(), len(g.Points()))
	}
	// A fully empty grid still has one degenerate point.
	if (Grid{}).Len() != 1 {
		t.Errorf("empty grid Len = %d, want 1", (Grid{}).Len())
	}
}

func TestSweepProportionDeterministicSeeding(t *testing.T) {
	grid := Grid{Ks: []int{1, 2}, Ps: []float64{0.3, 0.7}}
	cfg := SweepConfig{Trials: 200, Workers: 4, Seed: 11}
	run := func() []ProportionResult {
		res, err := SweepProportion(context.Background(), grid, cfg,
			func(pt GridPoint) (montecarlo.Trial, error) {
				return func(trial int, r *rng.Rand) (bool, error) {
					return r.Float64() < pt.P, nil
				}, nil
			})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := run(), run()
	if len(a) != grid.Len() {
		t.Fatalf("got %d results, want %d", len(a), grid.Len())
	}
	for i := range a {
		if a[i].Value != b[i].Value {
			t.Errorf("point %d not reproducible: %+v vs %+v", i, a[i].Value, b[i].Value)
		}
		if a[i].Point != b[i].Point {
			t.Errorf("point %d metadata differs", i)
		}
		// The estimate should track the per-point success probability.
		est := a[i].Value.Estimate()
		if diff := est - a[i].Point.P; diff > 0.12 || diff < -0.12 {
			t.Errorf("point %d estimate %v far from p=%v", i, est, a[i].Point.P)
		}
	}
	// Distinct points get distinct base seeds (independent randomness).
	if cfg.PointSeed(a[0].Point) == cfg.PointSeed(a[1].Point) {
		t.Error("two grid points share a base seed")
	}
}

// TestSweepMeanPairedSamples verifies the paired-measurement property: two
// sweeps with the same seed observe the same per-trial generator states, so
// paired statistics are computed on identical samples.
func TestSweepMeanPairedSamples(t *testing.T) {
	grid := Grid{Ks: []int{5, 9}}
	cfg := SweepConfig{Trials: 50, Workers: 3, Seed: 77}
	observe := func() [][]float64 {
		var all [][]float64
		res, err := SweepMean(context.Background(), grid, cfg,
			func(pt GridPoint) (montecarlo.Sample, error) {
				return func(trial int, r *rng.Rand) (float64, error) {
					return float64(r.Uint64()%1000) + float64(pt.K), nil
				}, nil
			})
		if err != nil {
			t.Fatal(err)
		}
		for _, p := range res {
			all = append(all, []float64{p.Value.Mean(), p.Value.StdDev(), p.Value.Max()})
		}
		return all
	}
	a, b := observe(), observe()
	for i := range a {
		for j := range a[i] {
			if a[i][j] != b[i][j] {
				t.Errorf("point %d stat %d: %v vs %v", i, j, a[i][j], b[i][j])
			}
		}
	}
}

func TestSweepErrorPropagation(t *testing.T) {
	grid := Grid{Ks: []int{1, 2, 3}}
	wantErr := errors.New("boom")
	_, err := SweepProportion(context.Background(), grid, SweepConfig{Trials: 5, Seed: 1},
		func(pt GridPoint) (montecarlo.Trial, error) {
			if pt.K == 2 {
				return nil, wantErr
			}
			return func(int, *rng.Rand) (bool, error) { return true, nil }, nil
		})
	if !errors.Is(err, wantErr) {
		t.Errorf("builder error not propagated: %v", err)
	}
	_, err = SweepMean(context.Background(), grid, SweepConfig{Trials: 5, Seed: 1},
		func(pt GridPoint) (montecarlo.Sample, error) {
			return func(trial int, r *rng.Rand) (float64, error) {
				if pt.K == 3 && trial == 2 {
					return 0, wantErr
				}
				return 1, nil
			}, nil
		})
	if !errors.Is(err, wantErr) {
		t.Errorf("trial error not propagated: %v", err)
	}
}

// TestPointSeedStableUnderAxisExtension pins the seeding contract: a point's
// seed depends on its parameters, not its grid index, so growing any axis
// leaves existing points' seeds (and hence published results) untouched.
func TestPointSeedStableUnderAxisExtension(t *testing.T) {
	cfg := SweepConfig{Trials: 1, Seed: 42}
	small := Grid{Ks: []int{28, 32}, Qs: []int{2}, Ps: []float64{1, 0.5}}
	big := Grid{Ks: []int{28, 32, 36}, Qs: []int{2, 3}, Ps: []float64{1, 0.5, 0.2}}
	bigSeeds := map[GridPoint]uint64{}
	for _, pt := range big.Points() {
		key := pt
		key.Index = 0
		bigSeeds[key] = cfg.PointSeed(pt)
	}
	for _, pt := range small.Points() {
		key := pt
		key.Index = 0
		want, ok := bigSeeds[key]
		if !ok {
			t.Fatalf("point %+v missing from extended grid", key)
		}
		if got := cfg.PointSeed(pt); got != want {
			t.Errorf("point %+v: seed %d in small grid, %d in extended grid", key, got, want)
		}
	}
	// And distinct parameter tuples still get distinct seeds.
	seen := map[uint64]GridPoint{}
	for _, pt := range big.Points() {
		s := cfg.PointSeed(pt)
		if prev, dup := seen[s]; dup {
			t.Errorf("points %+v and %+v share seed %d", prev, pt, s)
		}
		seen[s] = pt
	}
}

// TestSweepMeanVecMatchesSweepMean checks that the vector sweep with one
// component is exactly SweepMean, and that a two-component sweep measures
// both statistics on the same per-trial randomness.
func TestSweepMeanVecMatchesSweepMean(t *testing.T) {
	grid := Grid{Ks: []int{3, 6}}
	cfg := SweepConfig{Trials: 30, Workers: 2, Seed: 5}
	ctx := context.Background()
	scalar, err := SweepMean(ctx, grid, cfg, func(pt GridPoint) (montecarlo.Sample, error) {
		return func(trial int, r *rng.Rand) (float64, error) {
			return float64(r.Uint64() % 100), nil
		}, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	vec, err := SweepMeanVec(ctx, grid, cfg, 2, func(pt GridPoint) (montecarlo.SampleVec, error) {
		return func(trial int, r *rng.Rand) ([]float64, error) {
			v := float64(r.Uint64() % 100)
			return []float64{v, 2 * v}, nil
		}, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := range scalar {
		if got, want := vec[i].Values[0].Mean(), scalar[i].Value.Mean(); got != want {
			t.Errorf("point %d: vec mean %v, scalar mean %v", i, got, want)
		}
		if got, want := vec[i].Values[1].Mean(), 2*scalar[i].Value.Mean(); got != want {
			t.Errorf("point %d: second component mean %v, want %v", i, got, want)
		}
	}
	// A dimension mismatch aborts with a clear error.
	_, err = SweepMeanVec(ctx, grid, cfg, 3, func(pt GridPoint) (montecarlo.SampleVec, error) {
		return func(trial int, r *rng.Rand) ([]float64, error) {
			return []float64{1}, nil
		}, nil
	})
	if err == nil {
		t.Error("dims mismatch: want error")
	}
}

// shardCounts are the PointWorkers values every sharding test sweeps:
// sequential, one shard, a shard count that does not divide typical grids,
// and full parallelism (often exceeding the point count, covering the
// shard clamp).
func shardCounts() []int {
	return []int{0, 1, 3, runtime.NumCPU()}
}

// TestShardedSweepProportionBitIdentical pins the tentpole invariant: a
// sharded sweep must produce results bit-identical to the sequential sweep —
// every ProportionResult field — because per-point seeds derive from point
// parameters, never from scheduling.
func TestShardedSweepProportionBitIdentical(t *testing.T) {
	grid := Grid{Ks: []int{10, 20, 30}, Qs: []int{1, 2}, Ps: []float64{0.25, 0.75}, Xs: []float64{0, 1}}
	run := func(pointWorkers int) []ProportionResult {
		t.Helper()
		res, err := SweepProportion(context.Background(), grid,
			SweepConfig{Trials: 60, Workers: 4, PointWorkers: pointWorkers, Seed: 13},
			func(pt GridPoint) (montecarlo.Trial, error) {
				return func(trial int, r *rng.Rand) (bool, error) {
					return r.Float64() < pt.P || r.Intn(pt.K) == 0, nil
				}, nil
			})
		if err != nil {
			t.Fatalf("PointWorkers=%d: %v", pointWorkers, err)
		}
		return res
	}
	want := run(0)
	if len(want) != grid.Len() {
		t.Fatalf("got %d results, want %d", len(want), grid.Len())
	}
	for _, pw := range shardCounts()[1:] {
		got := run(pw)
		if len(got) != len(want) {
			t.Fatalf("PointWorkers=%d: %d results, want %d", pw, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Errorf("PointWorkers=%d point %d: %+v, want %+v (sequential)", pw, i, got[i], want[i])
			}
		}
	}
}

// TestShardedSweepMeanBitIdentical is the SweepMean variant of the
// equivalence pin: Point plus every Summary field (count, mean, variance
// accumulator, extremes) must match the sequential run exactly.
func TestShardedSweepMeanBitIdentical(t *testing.T) {
	grid := Grid{Ks: []int{2, 4, 8, 16}, Ps: []float64{0.1, 0.9}}
	run := func(pointWorkers int) []MeanResult {
		t.Helper()
		res, err := SweepMean(context.Background(), grid,
			SweepConfig{Trials: 40, Workers: 3, PointWorkers: pointWorkers, Seed: 29},
			func(pt GridPoint) (montecarlo.Sample, error) {
				return func(trial int, r *rng.Rand) (float64, error) {
					return r.Float64() * float64(pt.K), nil
				}, nil
			})
		if err != nil {
			t.Fatalf("PointWorkers=%d: %v", pointWorkers, err)
		}
		return res
	}
	want := run(0)
	for _, pw := range shardCounts()[1:] {
		got := run(pw)
		for i := range want {
			if got[i].Point != want[i].Point {
				t.Errorf("PointWorkers=%d point %d metadata differs", pw, i)
			}
			if *got[i].Value != *want[i].Value {
				t.Errorf("PointWorkers=%d point %d: summary %+v, want %+v", pw, i, *got[i].Value, *want[i].Value)
			}
		}
	}
}

// TestShardedSweepMeanVecBitIdentical is the SweepMeanVec variant: every
// component Summary of every point must match the sequential run exactly.
func TestShardedSweepMeanVecBitIdentical(t *testing.T) {
	grid := Grid{Ks: []int{3, 5, 7}, Xs: []float64{1, 2, 3}}
	const dims = 3
	run := func(pointWorkers int) []MeanVecResult {
		t.Helper()
		res, err := SweepMeanVec(context.Background(), grid,
			SweepConfig{Trials: 35, Workers: 2, PointWorkers: pointWorkers, Seed: 71}, dims,
			func(pt GridPoint) (montecarlo.SampleVec, error) {
				return func(trial int, r *rng.Rand) ([]float64, error) {
					v := r.Float64() + pt.X
					return []float64{v, -v, v * float64(pt.K)}, nil
				}, nil
			})
		if err != nil {
			t.Fatalf("PointWorkers=%d: %v", pointWorkers, err)
		}
		return res
	}
	want := run(0)
	for _, pw := range shardCounts()[1:] {
		got := run(pw)
		for i := range want {
			if got[i].Point != want[i].Point {
				t.Errorf("PointWorkers=%d point %d metadata differs", pw, i)
			}
			for d := 0; d < dims; d++ {
				if *got[i].Values[d] != *want[i].Values[d] {
					t.Errorf("PointWorkers=%d point %d dim %d: %+v, want %+v",
						pw, i, d, *got[i].Values[d], *want[i].Values[d])
				}
			}
		}
	}
}

// TestShardedSweepStress floods a small shard pool with far more points than
// shards, each point carrying shard-local mutable state created by build.
// Run under -race in CI, it is the data-race gate on the shard runner; the
// result check doubles as an order/equivalence pin at scale.
func TestShardedSweepStress(t *testing.T) {
	var ks []int
	for k := 1; k <= 60; k++ {
		ks = append(ks, k)
	}
	grid := Grid{Ks: ks, Ps: []float64{0.3, 0.6}} // 120 points
	cfg := SweepConfig{Trials: 16, Workers: 2, PointWorkers: 4, Seed: 97}
	res, err := SweepProportion(context.Background(), grid, cfg,
		func(pt GridPoint) (montecarlo.Trial, error) {
			counter := 0 // shard-owned per-point state, mutated by every trial
			return func(trial int, r *rng.Rand) (bool, error) {
				counter++
				return r.Float64() < pt.P && counter > 0, nil
			}, nil
		})
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != grid.Len() {
		t.Fatalf("got %d results, want %d", len(res), grid.Len())
	}
	seqCfg := cfg
	seqCfg.PointWorkers = 0
	want, err := SweepProportion(context.Background(), grid, seqCfg,
		func(pt GridPoint) (montecarlo.Trial, error) {
			return func(trial int, r *rng.Rand) (bool, error) {
				return r.Float64() < pt.P, nil
			}, nil
		})
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if res[i] != want[i] {
			t.Errorf("point %d: sharded %+v, sequential %+v", i, res[i], want[i])
		}
	}
}

// TestShardedSweepBuildErrorFirstInPointsOrder pins the error contract: when
// several points fail, the sweep drains all shards and returns the failing
// point that comes first in Points() order — point 0 here, since every point
// fails and point 0 is always dispatched before any failure can cancel the
// feed.
func TestShardedSweepBuildErrorFirstInPointsOrder(t *testing.T) {
	grid := Grid{Ks: []int{11, 22, 33, 44, 55, 66}}
	pointErrs := make([]error, grid.Len())
	for i := range pointErrs {
		pointErrs[i] = fmt.Errorf("point %d exploded", i)
	}
	for _, pw := range shardCounts() {
		var live atomic.Int32
		_, err := SweepProportion(context.Background(), grid,
			SweepConfig{Trials: 5, PointWorkers: pw, Seed: 1},
			func(pt GridPoint) (montecarlo.Trial, error) {
				live.Add(1)
				defer live.Add(-1)
				return nil, pointErrs[pt.Index]
			})
		if !errors.Is(err, pointErrs[0]) {
			t.Errorf("PointWorkers=%d: err = %v, want point 0's error", pw, err)
		}
		if n := live.Load(); n != 0 {
			t.Errorf("PointWorkers=%d: %d builds still live after return (shards not drained)", pw, n)
		}
	}
}

// TestShardedSweepTrialErrorSurvivesCancellationFallout pins the harder half
// of the error contract: a genuine trial failure at a later point must be
// the reported error even though cancelling the sweep makes concurrently
// running earlier points fail with context.Canceled first.
func TestShardedSweepTrialErrorSurvivesCancellationFallout(t *testing.T) {
	grid := Grid{Ks: []int{1, 2, 3, 4, 5, 6, 7, 8}}
	wantErr := errors.New("genuine trial failure")
	for _, pw := range shardCounts() {
		_, err := SweepMean(context.Background(), grid,
			SweepConfig{Trials: 400, Workers: 2, PointWorkers: pw, Seed: 3},
			func(pt GridPoint) (montecarlo.Sample, error) {
				return func(trial int, r *rng.Rand) (float64, error) {
					if pt.K == 6 && trial == 37 {
						return 0, wantErr
					}
					// Slow the healthy points so they are mid-run when the
					// failure cancels them. A bounded spin, not a sleep: a
					// sleep this short costs far more than it asks for.
					for start := time.Now(); time.Since(start) < 50*time.Microsecond; {
					}
					return 1, nil
				}, nil
			})
		if !errors.Is(err, wantErr) {
			t.Errorf("PointWorkers=%d: err = %v, want the genuine trial failure", pw, err)
		}
		if errors.Is(err, context.Canceled) {
			t.Errorf("PointWorkers=%d: cancellation fallout masked the real error: %v", pw, err)
		}
	}
}

// TestShardedSweepContextCancellation pins prompt, deadlock-free shutdown:
// cancelling the caller's context mid-sweep must stop a sweep with many
// slow points quickly, returning an error that wraps context.Canceled.
func TestShardedSweepContextCancellation(t *testing.T) {
	var ks []int
	for k := 1; k <= 200; k++ {
		ks = append(ks, k)
	}
	for _, pw := range shardCounts() {
		ctx, cancel := context.WithCancel(context.Background())
		var started atomic.Int32
		done := make(chan error, 1)
		go func() {
			_, err := SweepProportion(ctx, Grid{Ks: ks},
				SweepConfig{Trials: 1 << 20, Workers: 2, PointWorkers: pw, Seed: 5},
				func(pt GridPoint) (montecarlo.Trial, error) {
					return func(trial int, r *rng.Rand) (bool, error) {
						if started.Add(1) == 10 {
							cancel()
						}
						time.Sleep(10 * time.Microsecond)
						return true, nil
					}, nil
				})
			done <- err
		}()
		select {
		case err := <-done:
			if !errors.Is(err, context.Canceled) {
				t.Errorf("PointWorkers=%d: err = %v, want context.Canceled", pw, err)
			}
		case <-time.After(30 * time.Second):
			t.Fatalf("PointWorkers=%d: cancellation did not stop the sweep (deadlock?)", pw)
		}
		cancel()
	}
}
