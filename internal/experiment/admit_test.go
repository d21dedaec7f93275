package experiment

// Sequential sweeps run every point on one shared trial pool, admitting
// each point as the one before it hands out its last trial. These tests pin
// what that scheduling promises: points overlap at their boundaries, no
// more than Workers + 1 are open at once, an abandoned attempt never costs
// the pool a worker, and no worker count changes a result.

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/secure-wsn/qcomposite/internal/channel"
	"github.com/secure-wsn/qcomposite/internal/keys"
	"github.com/secure-wsn/qcomposite/internal/montecarlo"
	"github.com/secure-wsn/qcomposite/internal/rng"
	"github.com/secure-wsn/qcomposite/internal/wsn"
)

// TestSequentialSweepOverlapsPoints proves the overlap: with Workers = 2,
// the last trial of every point blocks until the next point's first trial
// has started, which a sweep that waited for each point to finish before
// admitting the next could never satisfy.
func TestSequentialSweepOverlapsPoints(t *testing.T) {
	const trials = 2
	grid := Grid{Ks: []int{1, 2, 3, 4, 5, 6}}
	started := make([]chan struct{}, grid.Len()+1)
	for i := range started {
		started[i] = make(chan struct{})
	}
	close(started[grid.Len()]) // the last point waits for no successor
	firsts := make([]sync.Once, grid.Len())
	res, err := SweepProportion(context.Background(), grid,
		SweepConfig{Trials: trials, Workers: 2, Seed: 1},
		func(pt GridPoint) (montecarlo.Trial, error) {
			return func(trial int, r *rng.Rand) (bool, error) {
				if trial == 0 {
					firsts[pt.Index].Do(func() { close(started[pt.Index]) })
				}
				if trial == trials-1 {
					select {
					case <-started[pt.Index+1]:
					case <-time.After(10 * time.Second):
						return false, fmt.Errorf("point %d's last trial ran alone: point %d never started", pt.Index, pt.Index+1)
					}
				}
				return true, nil
			}, nil
		})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range res {
		if r.Value.Trials != trials || r.Value.Successes != trials {
			t.Errorf("point %v: %+v, want %d of %d", r.Point, r.Value, trials, trials)
		}
	}
}

// TestSequentialSweepBoundsOpenPoints pins the admission bound: a point is
// open from its build to the end of its PointDone, and at most Workers + 1
// points are open at once even when trials are fast and PointDone is slow,
// the case where admission on feeding alone would let points pile up.
func TestSequentialSweepBoundsOpenPoints(t *testing.T) {
	var ks []int
	for k := 1; k <= 24; k++ {
		ks = append(ks, k)
	}
	for _, workers := range []int{1, 2, 3} {
		var open, most atomic.Int32
		cfg := SweepConfig{Trials: 3, Workers: workers, Seed: 2}
		cfg.PointDone = func(pt GridPoint, fromCache bool) {
			time.Sleep(time.Millisecond)
			open.Add(-1)
		}
		_, err := SweepProportion(context.Background(), Grid{Ks: ks}, cfg,
			func(pt GridPoint) (montecarlo.Trial, error) {
				n := open.Add(1)
				for m := most.Load(); n > m && !most.CompareAndSwap(m, n); m = most.Load() {
				}
				return func(trial int, r *rng.Rand) (bool, error) { return r.Bernoulli(0.5), nil }, nil
			})
		if err != nil {
			t.Fatal(err)
		}
		if m := most.Load(); m > int32(workers)+1 {
			t.Errorf("Workers=%d: %d points open at once, want at most %d", workers, m, workers+1)
		}
	}
}

// TestSequentialSweepSurvivesWedgedAttempt: with a single trial worker,
// point 0's first attempt wedges its trial forever. The attempt times out
// and is abandoned, the pool replaces the wedged worker, and the sweep
// still finishes every point with the clean run's results.
func TestSequentialSweepSurvivesWedgedAttempt(t *testing.T) {
	grid := Grid{Ks: []int{1, 2, 3, 4}}
	cfg := SweepConfig{Trials: 5, Workers: 1, Seed: 4}
	build := func(pt GridPoint) (montecarlo.Trial, error) {
		return func(trial int, r *rng.Rand) (bool, error) { return r.Intn(pt.K+1) == 0, nil }, nil
	}
	clean, err := SweepProportion(context.Background(), grid, cfg, build)
	if err != nil {
		t.Fatal(err)
	}

	wedge := make(chan struct{})
	defer close(wedge)
	var attempts atomic.Int32
	cfg.PointTimeout = 100 * time.Millisecond
	cfg.PointRetries = 1
	cfg.RetryBackoff = time.Millisecond
	done := make(chan error, 1)
	var got []ProportionResult
	go func() {
		var err error
		got, err = SweepProportion(context.Background(), grid, cfg, func(pt GridPoint) (montecarlo.Trial, error) {
			trial, _ := build(pt)
			if pt.Index != 0 || attempts.Add(1) > 1 {
				return trial, nil
			}
			return func(int, *rng.Rand) (bool, error) {
				<-wedge // point 0's first attempt never returns
				return false, nil
			}, nil
		})
		done <- err
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("sweep with a wedged first attempt failed: %v", err)
		}
	case <-time.After(20 * time.Second):
		t.Fatal("the wedged trial took the pool's only worker: the sweep never finished")
	}
	if n := attempts.Load(); n != 2 {
		t.Errorf("point 0 ran %d attempts, want 2", n)
	}
	requireSameProportions(t, "after a wedged attempt", clean, got)
}

// TestSequentialSweepBitIdenticalAcrossWorkers extends the sharding
// equivalence pins to the shared pool's size: the sequential sweep must
// equal a one-shard sweep (each point on workers of its own) at every
// Workers count. The deployment sweep's points differ in sensor count,
// pool size and channel, so trial workers carry their Deployers across
// configurations; a second reference builds a fresh Deployer every trial.
func TestSequentialSweepBitIdenticalAcrossWorkers(t *testing.T) {
	ctx := context.Background()
	grid := Grid{Ks: []int{8, 14, 20}, Qs: []int{1, 2}, Ps: []float64{0.4, 0.9}}
	build := func(pt GridPoint) (wsn.Config, error) {
		scheme, err := keys.NewQComposite(200*pt.Q+pt.K, pt.K, pt.Q)
		if err != nil {
			return wsn.Config{}, err
		}
		var ch channel.Model = channel.OnOff{P: pt.P}
		if pt.K == 14 {
			ch = channel.Disk{Radius: pt.P / 2}
		}
		return wsn.Config{Sensors: 20 + 2*pt.K, Scheme: scheme, Channel: ch}, nil
	}
	base := SweepConfig{Trials: 12, Seed: 23}
	fresh, err := SweepProportion(ctx, grid, base, func(pt GridPoint) (montecarlo.Trial, error) {
		cfg, err := build(pt)
		if err != nil {
			return nil, err
		}
		return func(trial int, r *rng.Rand) (bool, error) {
			d, err := wsn.NewDeployer(cfg)
			if err != nil {
				return false, err
			}
			return d.KConnectedRand(r, 1)
		}, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	vec := func(pt GridPoint) (montecarlo.SampleVec, error) {
		return func(trial int, r *rng.Rand) ([]float64, error) {
			u := r.Float64()
			return []float64{u * float64(pt.K), u + pt.P}, nil
		}, nil
	}
	oneShard := base
	oneShard.PointWorkers = 1
	wantVec, err := SweepMeanVec(ctx, grid, oneShard, 2, vec)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 2, runtime.NumCPU()} {
		cfg := base
		cfg.Workers = workers
		got, err := SweepConnectivity(ctx, grid, cfg, build)
		if err != nil {
			t.Fatal(err)
		}
		requireSameProportions(t, fmt.Sprintf("Workers=%d", workers), fresh, got)
		gotVec, err := SweepMeanVec(ctx, grid, cfg, 2, vec)
		if err != nil {
			t.Fatal(err)
		}
		for i := range wantVec {
			for d := range wantVec[i].Values {
				if *gotVec[i].Values[d] != *wantVec[i].Values[d] {
					t.Errorf("Workers=%d point %d dim %d: %+v, want %+v", workers, i, d, *gotVec[i].Values[d], *wantVec[i].Values[d])
				}
			}
		}
	}
}
