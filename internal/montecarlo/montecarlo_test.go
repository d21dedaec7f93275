package montecarlo

import (
	"context"
	"errors"
	"fmt"
	"math"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"github.com/secure-wsn/qcomposite/internal/rng"
)

// own is the nil Pool: each call runs on cfg.Workers goroutines of its own.
var own *Pool

func TestEstimateProportionBasic(t *testing.T) {
	got, err := EstimateProportion(context.Background(), Config{Trials: 10000, Workers: 8, Seed: 1},
		func(trial int, r *rng.Rand) (bool, error) {
			return r.Bernoulli(0.3), nil
		})
	if err != nil {
		t.Fatal(err)
	}
	if got.Trials != 10000 {
		t.Errorf("Trials = %d, want 10000", got.Trials)
	}
	if est := got.Estimate(); math.Abs(est-0.3) > 0.02 {
		t.Errorf("Estimate = %v, want ≈ 0.3", est)
	}
}

func TestEstimateProportionDeterministicAcrossWorkerCounts(t *testing.T) {
	run := func(workers int) int {
		got, err := EstimateProportion(context.Background(), Config{Trials: 2000, Workers: workers, Seed: 42},
			func(trial int, r *rng.Rand) (bool, error) {
				return r.Float64() < 0.5, nil
			})
		if err != nil {
			t.Fatal(err)
		}
		return got.Successes
	}
	if a, b := run(1), run(16); a != b {
		t.Errorf("1 worker gave %d successes, 16 workers gave %d — per-trial seeding broken", a, b)
	}
}

func TestEstimateProportionTrialIndexStreams(t *testing.T) {
	// Each trial must see its own distinct stream.
	var distinct int64
	seen := make([]uint64, 64)
	_, err := EstimateProportion(context.Background(), Config{Trials: 64, Workers: 4, Seed: 7},
		func(trial int, r *rng.Rand) (bool, error) {
			seen[trial] = r.Uint64()
			atomic.AddInt64(&distinct, 1)
			return true, nil
		})
	if err != nil {
		t.Fatal(err)
	}
	uniq := map[uint64]bool{}
	for _, v := range seen {
		uniq[v] = true
	}
	if len(uniq) < 60 {
		t.Errorf("only %d distinct first outputs across 64 trials", len(uniq))
	}
}

func TestEstimateProportionError(t *testing.T) {
	wantErr := errors.New("boom")
	_, err := EstimateProportion(context.Background(), Config{Trials: 100, Workers: 4, Seed: 1},
		func(trial int, r *rng.Rand) (bool, error) {
			if trial == 13 {
				return false, wantErr
			}
			return true, nil
		})
	if !errors.Is(err, wantErr) {
		t.Errorf("err = %v, want wrapped boom", err)
	}
}

func TestEstimateProportionConfigValidation(t *testing.T) {
	if _, err := EstimateProportion(context.Background(), Config{Trials: 0}, nil); err == nil {
		t.Error("zero trials: want error")
	}
	if _, err := EstimateProportion(context.Background(), Config{Trials: 5, Workers: -1}, nil); err == nil {
		t.Error("negative workers: want error")
	}
}

func TestEstimateProportionCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	var ran int64
	done := make(chan struct{})
	go func() {
		defer close(done)
		_, err := EstimateProportion(ctx, Config{Trials: 1 << 30, Workers: 2, Seed: 1},
			func(trial int, r *rng.Rand) (bool, error) {
				if atomic.AddInt64(&ran, 1) == 50 {
					cancel()
				}
				time.Sleep(time.Microsecond)
				return true, nil
			})
		if err == nil {
			t.Error("cancelled run returned nil error")
		}
	}()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("cancellation did not stop the run")
	}
}

func TestEstimateMean(t *testing.T) {
	s, err := own.EstimateMean(context.Background(), Config{Trials: 5000, Workers: 8, Seed: 3},
		func(trial int, r *rng.Rand) (float64, error) {
			return r.Float64(), nil
		})
	if err != nil {
		t.Fatal(err)
	}
	if s.N() != 5000 {
		t.Errorf("N = %d", s.N())
	}
	if math.Abs(s.Mean()-0.5) > 0.02 {
		t.Errorf("Mean = %v, want ≈ 0.5", s.Mean())
	}
	if math.Abs(s.Variance()-1.0/12) > 0.01 {
		t.Errorf("Variance = %v, want ≈ 1/12", s.Variance())
	}
}

func TestEstimateMeanDeterministicOrder(t *testing.T) {
	run := func(workers int) float64 {
		s, err := own.EstimateMean(context.Background(), Config{Trials: 1000, Workers: workers, Seed: 9},
			func(trial int, r *rng.Rand) (float64, error) {
				return r.Float64(), nil
			})
		if err != nil {
			t.Fatal(err)
		}
		return s.Mean()
	}
	if a, b := run(1), run(12); a != b {
		t.Errorf("mean differs across worker counts: %v vs %v", a, b)
	}
}

func TestEstimateMeanError(t *testing.T) {
	wantErr := errors.New("bad trial")
	_, err := own.EstimateMean(context.Background(), Config{Trials: 50, Workers: 4, Seed: 1},
		func(trial int, r *rng.Rand) (float64, error) {
			if trial == 7 {
				return 0, wantErr
			}
			return 1, nil
		})
	if !errors.Is(err, wantErr) {
		t.Errorf("err = %v, want wrapped bad trial", err)
	}
}

func TestCollect(t *testing.T) {
	vals, err := Collect(context.Background(), Config{Trials: 100, Workers: 7, Seed: 5},
		func(trial int, r *rng.Rand) (float64, error) {
			return float64(trial) * 2, nil
		})
	if err != nil {
		t.Fatal(err)
	}
	if len(vals) != 100 {
		t.Fatalf("len = %d", len(vals))
	}
	for i, v := range vals {
		if v != float64(i)*2 {
			t.Fatalf("vals[%d] = %v, want %v (trial order broken)", i, v, i*2)
		}
	}
}

func TestCollectError(t *testing.T) {
	wantErr := errors.New("collect fail")
	_, err := Collect(context.Background(), Config{Trials: 30, Workers: 3, Seed: 1},
		func(trial int, r *rng.Rand) (float64, error) {
			if trial == 20 {
				return 0, wantErr
			}
			return 0, nil
		})
	if !errors.Is(err, wantErr) {
		t.Errorf("err = %v, want wrapped collect fail", err)
	}
}

func TestWorkersDefaultAndClamp(t *testing.T) {
	// Workers = 0 defaults to NumCPU and must still work; workers are
	// clamped to the trial count (no deadlock with more workers than work).
	got, err := EstimateProportion(context.Background(), Config{Trials: 3, Workers: 64, Seed: 2},
		func(trial int, r *rng.Rand) (bool, error) { return true, nil })
	if err != nil {
		t.Fatal(err)
	}
	if got.Successes != 3 {
		t.Errorf("Successes = %d, want 3", got.Successes)
	}
	got, err = EstimateProportion(context.Background(), Config{Trials: 3, Seed: 2},
		func(trial int, r *rng.Rand) (bool, error) { return true, nil })
	if err != nil {
		t.Fatal(err)
	}
	if got.Successes != 3 {
		t.Errorf("default workers: Successes = %d, want 3", got.Successes)
	}
}

// TestTrialPanicIsolation pins the supervision contract on every engine
// entry point: a panicking trial must surface as a *PanicError carrying the
// panic site in its stack — never unwind the worker goroutine and kill the
// process — and sibling workers must drain cleanly.
func TestTrialPanicIsolation(t *testing.T) {
	cfg := Config{Trials: 200, Workers: 4, Seed: 9}
	checkPanic := func(t *testing.T, err error) {
		t.Helper()
		var pe *PanicError
		if !errors.As(err, &pe) {
			t.Fatalf("err = %v, want a *PanicError", err)
		}
		if pe.Value != "trial exploded" {
			t.Errorf("panic value = %v", pe.Value)
		}
		if !strings.Contains(string(pe.Stack), "montecarlo") {
			t.Errorf("stack missing the panic site:\n%s", pe.Stack)
		}
	}
	t.Run("proportion", func(t *testing.T) {
		_, err := EstimateProportion(context.Background(), cfg,
			func(trial int, r *rng.Rand) (bool, error) {
				if trial == 37 {
					panic("trial exploded")
				}
				return true, nil
			})
		checkPanic(t, err)
	})
	t.Run("meanvec", func(t *testing.T) {
		_, err := own.EstimateMeanVec(context.Background(), cfg, 1,
			func(trial int, r *rng.Rand) ([]float64, error) {
				if trial == 37 {
					panic("trial exploded")
				}
				return []float64{1}, nil
			})
		checkPanic(t, err)
	})
	t.Run("mean", func(t *testing.T) {
		_, err := own.EstimateMean(context.Background(), cfg,
			func(trial int, r *rng.Rand) (float64, error) {
				if trial == 37 {
					panic("trial exploded")
				}
				return 1, nil
			})
		checkPanic(t, err)
	})
	t.Run("collect", func(t *testing.T) {
		_, err := Collect(context.Background(), cfg,
			func(trial int, r *rng.Rand) (float64, error) {
				if trial == 37 {
					panic("trial exploded")
				}
				return 1, nil
			})
		checkPanic(t, err)
	})
}

// TestTransientMarking pins the retryability marker: Transient wraps an
// error so errors.Is matches ErrTransient while the original cause remains
// reachable, and nil stays nil.
func TestTransientMarking(t *testing.T) {
	cause := errors.New("socket reset")
	err := Transient(cause)
	if !errors.Is(err, ErrTransient) {
		t.Error("Transient error does not match ErrTransient")
	}
	if !errors.Is(err, cause) {
		t.Error("Transient error lost its cause")
	}
	if err.Error() != cause.Error() {
		t.Errorf("message changed: %q", err.Error())
	}
	if Transient(nil) != nil {
		t.Error("Transient(nil) must stay nil")
	}
	if errors.Is(cause, ErrTransient) {
		t.Error("unmarked error must not match ErrTransient")
	}
	// Wrapping through fmt.Errorf %w keeps the marker visible.
	wrapped := fmt.Errorf("trial 3: %w", Transient(cause))
	if !errors.Is(wrapped, ErrTransient) {
		t.Error("fmt-wrapped transient error lost the marker")
	}
}

// TestPoolSharedByOverlappingRuns runs several estimates at once on one
// Pool: each must equal the same estimate on workers of its own, since
// trial i always runs on stream (Seed, i) whichever worker takes it.
func TestPoolSharedByOverlappingRuns(t *testing.T) {
	p := NewPool(2)
	defer p.Close()
	trial := func(trial int, r *rng.Rand) (bool, error) { return r.Bernoulli(0.4), nil }
	got := make([]int, 6)
	done := make(chan struct{})
	for i := range got {
		go func() {
			defer func() { done <- struct{}{} }()
			est, err := p.EstimateProportion(context.Background(), Config{Trials: 300, Seed: uint64(i)}, trial)
			if err != nil {
				t.Error(err)
			}
			got[i] = est.Successes
		}()
	}
	for range got {
		<-done
	}
	for i, successes := range got {
		want, err := EstimateProportion(context.Background(), Config{Trials: 300, Workers: 3, Seed: uint64(i)}, trial)
		if err != nil {
			t.Fatal(err)
		}
		if successes != want.Successes {
			t.Errorf("seed %d: %d successes on the shared pool, %d on its own", i, successes, want.Successes)
		}
	}
}

// TestPoolReplacesWorkerOfCancelledRun: on a one-worker Pool, a run whose
// trial never returns is cancelled. The pool detaches that worker and
// starts a replacement, so the next run still completes; the cancelled run
// returns once its trial does, and Close does not wait for the wedged
// goroutine.
func TestPoolReplacesWorkerOfCancelledRun(t *testing.T) {
	p := NewPool(1)
	wedge := make(chan struct{})
	started := make(chan struct{})
	ctx, cancel := context.WithCancel(context.Background())
	wedged := make(chan error, 1)
	go func() {
		_, err := p.EstimateProportion(ctx, Config{Trials: 4, Seed: 1}, func(trial int, r *rng.Rand) (bool, error) {
			if trial == 0 {
				close(started)
				<-wedge
			}
			return true, nil
		})
		wedged <- err
	}()
	<-started
	cancel()
	est, err := p.EstimateProportion(context.Background(), Config{Trials: 5, Seed: 2},
		func(trial int, r *rng.Rand) (bool, error) { return true, nil })
	if err != nil || est.Successes != 5 {
		t.Fatalf("run after the cancelled one: %+v, %v; want 5 successes", est, err)
	}
	closed := make(chan struct{})
	go func() {
		p.Close()
		close(closed)
	}()
	select {
	case <-closed:
	case <-time.After(10 * time.Second):
		t.Fatal("Close waited for the wedged worker")
	}
	close(wedge)
	if err := <-wedged; !errors.Is(err, context.Canceled) {
		t.Errorf("cancelled run returned %v, want context.Canceled", err)
	}
}
