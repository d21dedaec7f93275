// Package montecarlo runs repeated randomized trials across a bounded worker
// pool with per-trial deterministic seeding, so that estimates are exactly
// reproducible from a base seed regardless of GOMAXPROCS or scheduling.
//
// This is the engine under every empirical curve in the paper reproduction:
// a trial samples one random graph and evaluates a predicate ("is it
// k-connected?") or a statistic (its degree histogram); the runner
// aggregates.
package montecarlo

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"

	"github.com/secure-wsn/qcomposite/internal/rng"
	"github.com/secure-wsn/qcomposite/internal/stats"
)

// PanicError is a panic recovered from a trial (or, one layer up, from a
// sweep point's build), converted into an ordinary error so one faulty trial
// aborts its run instead of killing the process — sibling workers and shards
// drain cleanly and the caller decides whether to retry, skip or fail.
type PanicError struct {
	// Value is the value passed to panic.
	Value any
	// Stack is the stack captured at the recovery site; it includes the
	// panicking frames.
	Stack []byte
}

// NewPanicError wraps a recovered panic value, capturing the current stack.
// Call it directly inside the recover() branch so the panicking frames are
// still on the goroutine stack.
func NewPanicError(value any) *PanicError {
	return &PanicError{Value: value, Stack: debug.Stack()}
}

// Error renders the panic value with its stack trace.
func (e *PanicError) Error() string {
	return fmt.Sprintf("panic: %v\n%s", e.Value, e.Stack)
}

// ErrTransient marks errors worth retrying: trial failures caused by
// external, non-deterministic conditions (an injected fault, a flaky
// side-channel) rather than by the trial's own deterministic computation.
// Match with errors.Is; create with Transient.
var ErrTransient = errors.New("transient failure")

// transientError wraps an error so errors.Is(err, ErrTransient) holds while
// the original cause stays unwrappable.
type transientError struct{ err error }

func (e transientError) Error() string { return e.err.Error() }
func (e transientError) Unwrap() error { return e.err }
func (e transientError) Is(target error) bool {
	return target == ErrTransient
}

// Transient marks err as retryable: the sweep supervisor's default retry
// policy re-runs points whose failure matches ErrTransient, because a
// deterministic re-run at the same seed can succeed when the cause was
// external. A nil err stays nil.
func Transient(err error) error {
	if err == nil {
		return nil
	}
	return transientError{err: err}
}

// safeCall invokes fn with panic isolation: a panicking trial returns its
// zero value and a *PanicError instead of unwinding the worker goroutine.
func safeCall[T any](fn func(int, *rng.Rand) (T, error), trial int, r *rng.Rand) (v T, err error) {
	defer func() {
		if p := recover(); p != nil {
			err = NewPanicError(p)
		}
	}()
	return fn(trial, r)
}

// Trial evaluates one randomized trial. The generator is deterministically
// reseeded to stream (seed, trial index) before the call; implementations
// must use only it for randomness and must not retain it past the call (the
// worker reuses one generator across its trials). Returning an error aborts
// the whole run; a panic is recovered into a *PanicError and aborts the run
// the same way — it never unwinds past the engine.
type Trial func(trial int, r *rng.Rand) (bool, error)

// Config controls a Monte Carlo run.
type Config struct {
	// Trials is the number of independent trials; must be positive.
	Trials int
	// Workers bounds parallelism; 0 means runtime.NumCPU().
	Workers int
	// Seed is the base seed; trial i runs on stream rng.NewStream(Seed, i).
	Seed uint64
}

func (c Config) withDefaults() (Config, error) {
	if c.Trials <= 0 {
		return c, fmt.Errorf("montecarlo: trials must be positive, got %d", c.Trials)
	}
	if c.Workers < 0 {
		return c, fmt.Errorf("montecarlo: workers must be non-negative, got %d", c.Workers)
	}
	if c.Workers == 0 {
		c.Workers = runtime.NumCPU()
	}
	if c.Workers > c.Trials {
		c.Workers = c.Trials
	}
	return c, nil
}

// run feeds trials 0..cfg.Trials-1 to cfg.Workers workers (cfg already
// defaulted) and hands each successful trial's value to keep, under a lock,
// so keep needs no synchronization of its own. The first failing trial — an
// error or a recovered panic — stops the feed and is returned wrapped with
// its index; a cancelled ctx stops the feed too, and the caller reads
// ctx.Err. Workers are always fully drained before return.
func run[T any](ctx context.Context, cfg Config, fn func(int, *rng.Rand) (T, error), keep func(trial int, v T)) error {
	var (
		wg       sync.WaitGroup
		mu       sync.Mutex
		firstErr error
	)
	trialCh := make(chan int)
	cancelCtx, cancel := context.WithCancel(ctx)
	defer cancel()

	wg.Add(cfg.Workers)
	for w := 0; w < cfg.Workers; w++ {
		go func() {
			defer wg.Done()
			// One reseeded generator per worker: trial i always observes the
			// exact NewStream(Seed, i) state, with no per-trial allocation.
			var r rng.Rand
			for trial := range trialCh {
				r.ReseedStream(cfg.Seed, uint64(trial))
				v, err := safeCall(fn, trial, &r)
				mu.Lock()
				if err == nil {
					keep(trial, v)
				} else if firstErr == nil {
					firstErr = fmt.Errorf("montecarlo: trial %d: %w", trial, err)
				}
				mu.Unlock()
				if err != nil {
					cancel()
					return
				}
			}
		}()
	}

feed:
	for trial := 0; trial < cfg.Trials; trial++ {
		select {
		case trialCh <- trial:
		case <-cancelCtx.Done():
			break feed
		}
	}
	close(trialCh)
	wg.Wait()
	return firstErr
}

// EstimateProportion runs cfg.Trials independent trials of fn and returns
// the success proportion. It stops early (returning the context error) when
// ctx is cancelled; workers are always fully drained before return.
func EstimateProportion(ctx context.Context, cfg Config, fn Trial) (stats.Proportion, error) {
	cfg, err := cfg.withDefaults()
	if err != nil {
		return stats.Proportion{}, err
	}
	var p stats.Proportion
	if err := run(ctx, cfg, fn, func(_ int, ok bool) {
		p.Trials++
		if ok {
			p.Successes++
		}
	}); err != nil {
		return stats.Proportion{}, err
	}
	if err := ctx.Err(); err != nil {
		return p, fmt.Errorf("montecarlo: cancelled after %d/%d trials: %w", p.Trials, cfg.Trials, err)
	}
	return p, nil
}

// Sample is a trial producing a numeric observation.
type Sample func(trial int, r *rng.Rand) (float64, error)

// EstimateMean runs cfg.Trials trials of fn and aggregates the observations
// into a Summary (mean, variance, extremes). It is EstimateMeanVec with one
// component, so the concurrency/cancellation behavior is shared.
func EstimateMean(ctx context.Context, cfg Config, fn Sample) (*stats.Summary, error) {
	summaries, err := EstimateMeanVec(ctx, cfg, 1,
		func(trial int, r *rng.Rand) ([]float64, error) {
			v, err := fn(trial, r)
			if err != nil {
				return nil, err
			}
			return []float64{v}, nil
		})
	if summaries == nil {
		return nil, err
	}
	return summaries[0], err
}

// SampleVec is a trial producing several numeric observations at once, for
// workloads that measure multiple statistics on one sampled object (e.g.
// largest-component fraction and isolated fraction of the same topology)
// without paying the sampling cost per statistic.
type SampleVec func(trial int, r *rng.Rand) ([]float64, error)

// EstimateMeanVec runs cfg.Trials trials of fn and aggregates component i of
// every observation into its own Summary. fn must return exactly dims values
// each trial; a mismatch aborts the run.
func EstimateMeanVec(ctx context.Context, cfg Config, dims int, fn SampleVec) ([]*stats.Summary, error) {
	if dims <= 0 {
		return nil, fmt.Errorf("montecarlo: dims must be positive, got %d", dims)
	}
	cfg, err := cfg.withDefaults()
	if err != nil {
		return nil, err
	}
	// Dense per-trial storage so each Summary folds observations in
	// deterministic order regardless of completion order.
	values := make([][]float64, cfg.Trials)
	checked := func(trial int, r *rng.Rand) ([]float64, error) {
		v, err := fn(trial, r)
		if err == nil && len(v) != dims {
			err = fmt.Errorf("montecarlo: trial returned %d values, want %d", len(v), dims)
		}
		return v, err
	}
	if err := run(ctx, cfg, checked, func(trial int, v []float64) { values[trial] = v }); err != nil {
		return nil, err
	}
	summaries := make([]*stats.Summary, dims)
	for i := range summaries {
		summaries[i] = &stats.Summary{}
	}
	completed := 0
	for _, v := range values {
		if v == nil {
			continue
		}
		completed++
		for i, x := range v {
			summaries[i].Add(x)
		}
	}
	if err := ctx.Err(); err != nil {
		return summaries, fmt.Errorf("montecarlo: cancelled after %d/%d trials: %w", completed, cfg.Trials, err)
	}
	return summaries, nil
}

// Collect runs cfg.Trials trials of fn and returns every observation in
// trial order. It is the building block for distribution-level experiments
// (degree histograms, compromise fractions).
func Collect(ctx context.Context, cfg Config, fn Sample) ([]float64, error) {
	cfg, err := cfg.withDefaults()
	if err != nil {
		return nil, err
	}
	values := make([]float64, cfg.Trials)
	if err := run(ctx, cfg, fn, func(trial int, v float64) { values[trial] = v }); err != nil {
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("montecarlo: cancelled: %w", err)
	}
	return values, nil
}
