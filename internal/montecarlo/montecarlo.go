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

// Pool is a set of trial workers shared by any number of runs: the
// Estimate methods of one Pool may run one after another or overlap, and
// their trials interleave on the same goroutines. A sequential sweep runs
// every grid point on one Pool, so a point's last trials overlap the next
// point's first ones instead of leaving workers idle at the boundary. A
// run's results never depend on which worker ran which trial: trial i
// always runs on stream rng.NewStream(cfg.Seed, i).
//
// A worker still inside a trial of a cancelled run (an abandoned sweep
// attempt whose trial never returns, say) is detached and replaced, so the
// pool keeps its size; the detached goroutine exits when its trial
// returns. A nil *Pool runs each call on cfg.Workers goroutines of its own,
// exactly like the package-level EstimateProportion.
type Pool struct {
	tasks chan task
	// quit stops the workers. tasks is never closed: a cancelled run may
	// still be in its feed when the pool closes.
	quit chan struct{}
	// wg counts the pool's places: a detached worker hands its place to its
	// replacement.
	wg sync.WaitGroup
}

// task is one trial of one run, handed to a worker.
type task struct {
	run   runner
	trial int
}

// runner is a run as its workers see it.
type runner interface {
	// exec runs one trial on r and reports whether the worker keeps its
	// place in the pool.
	exec(trial int, r *rng.Rand) bool
}

// NewPool starts a pool of workers goroutines; 0 or less means
// runtime.NumCPU(). Close it when its runs are done.
func NewPool(workers int) *Pool {
	if workers <= 0 {
		workers = runtime.NumCPU()
	}
	p := &Pool{tasks: make(chan task), quit: make(chan struct{})}
	p.wg.Add(workers)
	for range workers {
		go p.work()
	}
	return p
}

// Close stops the workers and waits for them. Every run on the pool must
// have returned or been cancelled; only detached workers may outlive Close.
func (p *Pool) Close() {
	close(p.quit)
	p.wg.Wait()
}

func (p *Pool) work() {
	// One reseeded generator per worker: trial i always observes the exact
	// NewStream(Seed, i) state, with no per-trial allocation.
	var r rng.Rand
	for {
		select {
		case t := <-p.tasks:
			if !t.run.exec(t.trial, &r) {
				return // detached: the replacement holds this place
			}
		case <-p.quit:
			p.wg.Done()
			return
		}
	}
}

// runState is one run's trial function, aggregation and progress.
type runState[T any] struct {
	ctx    context.Context
	cancel context.CancelFunc
	seed   uint64
	fn     func(int, *rng.Rand) (T, error)
	keep   func(trial int, v T)
	// pending counts the trials handed out and not yet returned.
	pending sync.WaitGroup

	// mu guards the fields below and serializes keep.
	mu       sync.Mutex
	inflight int  // trials executing now
	detached bool // the run was cancelled; its executing workers were replaced
	err      error
}

func (rn *runState[T]) exec(trial int, r *rng.Rand) bool {
	defer rn.pending.Done()
	rn.mu.Lock()
	if rn.ctx.Err() != nil {
		// Cancelled before the trial started: skip it.
		rn.mu.Unlock()
		return true
	}
	rn.inflight++
	rn.mu.Unlock()

	r.ReseedStream(rn.seed, uint64(trial))
	v, err := safeCall(rn.fn, trial, r)

	rn.mu.Lock()
	rn.inflight--
	stay := !rn.detached
	if err == nil {
		rn.keep(trial, v)
	} else if rn.err == nil {
		rn.err = fmt.Errorf("montecarlo: trial %d: %w", trial, err)
	}
	rn.mu.Unlock()
	if err != nil {
		rn.cancel()
	}
	return stay
}

// detach replaces every worker executing one of the cancelled run's trials.
// A worker that starts a trial after the cancellation skips it, and one
// whose trial returned first keeps its place, so each replacement stands in
// for exactly one worker that will leave.
func (rn *runState[T]) detach(p *Pool) {
	rn.mu.Lock()
	rn.detached = true
	n := rn.inflight
	rn.mu.Unlock()
	for range n {
		go p.work()
	}
}

// run feeds trials 0..cfg.Trials-1 to the workers of p (cfg already
// defaulted) and hands each successful trial's value to keep, under the
// run's lock, so keep needs no synchronization of its own. A nil p runs
// the trials on a pool of cfg.Workers goroutines owned by this run. The
// first failing trial — an error or a recovered panic — stops the feed and
// is returned wrapped with its index; a cancelled ctx stops the feed too,
// and the caller reads ctx.Err. Every trial handed to a worker has returned
// before run does.
func run[T any](ctx context.Context, p *Pool, cfg Config, fn func(int, *rng.Rand) (T, error), keep func(trial int, v T)) error {
	rctx, cancel := context.WithCancel(ctx)
	defer cancel()
	rn := &runState[T]{ctx: rctx, cancel: cancel, seed: cfg.Seed, fn: fn, keep: keep}
	if p == nil {
		// No other run shares these workers, so a cancelled run has none
		// to replace.
		p = NewPool(cfg.Workers)
		defer p.Close()
	} else {
		// Once the run is cancelled, a worker still inside one of its
		// trials is detached from the shared pool and replaced, so a trial
		// that never returns (an abandoned attempt's) cannot shrink it.
		defer context.AfterFunc(rctx, func() { rn.detach(p) })()
	}

feed:
	for trial := 0; trial < cfg.Trials; trial++ {
		rn.pending.Add(1)
		select {
		case p.tasks <- task{run: rn, trial: trial}:
		case <-rctx.Done():
			rn.pending.Done()
			break feed
		}
	}
	rn.pending.Wait()
	return rn.err
}

// EstimateProportion runs cfg.Trials independent trials of fn and returns
// the success proportion. It stops early (returning the context error) when
// ctx is cancelled; workers are always fully drained before return.
func EstimateProportion(ctx context.Context, cfg Config, fn Trial) (stats.Proportion, error) {
	return (*Pool)(nil).EstimateProportion(ctx, cfg, fn)
}

// EstimateProportion is the package-level EstimateProportion on p's
// workers; cfg.Workers plays no part unless p is nil.
func (p *Pool) EstimateProportion(ctx context.Context, cfg Config, fn Trial) (stats.Proportion, error) {
	cfg, err := cfg.withDefaults()
	if err != nil {
		return stats.Proportion{}, err
	}
	var prop stats.Proportion
	if err := run(ctx, p, cfg, fn, func(_ int, ok bool) {
		prop.Trials++
		if ok {
			prop.Successes++
		}
	}); err != nil {
		return stats.Proportion{}, err
	}
	if err := ctx.Err(); err != nil {
		return prop, fmt.Errorf("montecarlo: cancelled after %d/%d trials: %w", prop.Trials, cfg.Trials, err)
	}
	return prop, nil
}

// Sample is a trial producing a numeric observation.
type Sample func(trial int, r *rng.Rand) (float64, error)

// EstimateMean runs cfg.Trials trials of fn on p's workers and aggregates
// the observations into a Summary (mean, variance, extremes). It is
// EstimateMeanVec with one component, so the concurrency/cancellation
// behavior is shared.
func (p *Pool) EstimateMean(ctx context.Context, cfg Config, fn Sample) (*stats.Summary, error) {
	summaries, err := p.EstimateMeanVec(ctx, cfg, 1,
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

// EstimateMeanVec runs cfg.Trials trials of fn on p's workers and
// aggregates component i of every observation into its own Summary. fn must
// return exactly dims values each trial; a mismatch aborts the run. Like
// EstimateProportion, it stops early when ctx is cancelled, and every
// trial handed out has returned before it does.
func (p *Pool) EstimateMeanVec(ctx context.Context, cfg Config, dims int, fn SampleVec) ([]*stats.Summary, error) {
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
	if err := run(ctx, p, cfg, checked, func(trial int, v []float64) { values[trial] = v }); err != nil {
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
	if err := run(ctx, nil, cfg, fn, func(trial int, v float64) { values[trial] = v }); err != nil {
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("montecarlo: cancelled: %w", err)
	}
	return values, nil
}
