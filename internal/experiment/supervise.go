package experiment

// Worker supervision: every grid point of a sweep executes under a
// supervisor that (1) recovers panics in the point's build into ordinary
// point errors — montecarlo does the same for panics inside trials — so a
// faulty point can never kill sibling shards or the process, (2) optionally
// bounds each attempt with a per-point timeout, and (3) retries failed
// attempts when the error is retryable (by default: transient-marked errors
// and timeouts) with exponential backoff.
//
// Retrying is determinism-safe by construction: an attempt re-runs build
// and the point's full trial loop from the same parameter-derived seed, so
// a retried point's result is bit-identical to the result of a clean run —
// only failures caused by EXTERNAL conditions (injected faults, flaky side
// channels, timeouts under load) are worth retrying, which is exactly what
// the default policy selects.

import (
	"context"
	"errors"
	"fmt"
	"time"

	"github.com/secure-wsn/qcomposite/internal/montecarlo"
)

// retryable reports whether a failed attempt should be retried under the
// config's policy: RetryIf when set, otherwise transient-marked errors and
// attempt timeouts.
func (c SweepConfig) retryable(err error) bool {
	if c.RetryIf != nil {
		return c.RetryIf(err)
	}
	return errors.Is(err, montecarlo.ErrTransient) || errors.Is(err, context.DeadlineExceeded)
}

// backoffDelay returns the sleep before retry attempt. The base delay
// (RetryBackoff, default 10ms) doubles with each attempt.
func (c SweepConfig) backoffDelay(attempt int) time.Duration {
	d := c.RetryBackoff
	if d <= 0 {
		d = 10 * time.Millisecond
	}
	return d << uint(attempt)
}

// runAttemptRecovered invokes fn with panic isolation: a panic in the
// point's build (trial panics are already isolated inside montecarlo)
// becomes a point error carrying the stack.
func runAttemptRecovered[R any](ctx context.Context, pt GridPoint,
	fn func(ctx context.Context, pt GridPoint) (R, error)) (r R, err error) {
	defer func() {
		if p := recover(); p != nil {
			var zero R
			r, err = zero, fmt.Errorf("experiment: sweep point %v: %w", pt, montecarlo.NewPanicError(p))
		}
	}()
	return fn(ctx, pt)
}

// runAttempt executes one attempt of a point, applying the per-point
// timeout when configured. A timed-out attempt's goroutine is abandoned (Go
// cannot kill it): it may still be running when the attempt returns, which
// is safe because every attempt calls build afresh and therefore owns its
// per-attempt state — but it is the reason a wedged trial no longer hangs
// the whole grid. The attempt's context is cancelled on timeout, so a
// sequential sweep's shared trial pool replaces any worker the attempt
// leaves wedged (montecarlo.Pool).
func runAttempt[R any](ctx context.Context, cfg SweepConfig, pt GridPoint,
	fn func(ctx context.Context, pt GridPoint) (R, error)) (R, error) {
	if cfg.PointTimeout <= 0 {
		return runAttemptRecovered(ctx, pt, fn)
	}
	actx, cancel := context.WithTimeout(ctx, cfg.PointTimeout)
	defer cancel()
	type result struct {
		r   R
		err error
	}
	ch := make(chan result, 1)
	go func() {
		r, err := runAttemptRecovered(actx, pt, fn)
		ch <- result{r: r, err: err}
	}()
	select {
	case out := <-ch:
		return out.r, out.err
	case <-actx.Done():
		var zero R
		return zero, fmt.Errorf("experiment: sweep point %v: attempt abandoned after %v: %w",
			pt, cfg.PointTimeout, actx.Err())
	}
}

// runSupervised runs one grid point under the full supervisor: panic
// isolation, per-attempt timeout, and bounded retry with backoff. The
// caller's cancellation always wins — a cancelled context is never retried,
// so sweep shutdown stays prompt.
func runSupervised[R any](ctx context.Context, cfg SweepConfig, pt GridPoint,
	fn func(ctx context.Context, pt GridPoint) (R, error)) (R, error) {
	var zero R
	for attempt := 0; ; attempt++ {
		r, err := runAttempt(ctx, cfg, pt, fn)
		if err == nil {
			return r, nil
		}
		if ctx.Err() != nil {
			// Genuine sweep cancellation (the caller's context, or fallout
			// from another point's failure) — stop immediately.
			return zero, err
		}
		if attempt >= cfg.PointRetries || !cfg.retryable(err) {
			if attempt > 0 {
				return zero, fmt.Errorf("experiment: sweep point %v: %d attempts failed, last: %w",
					pt, attempt+1, err)
			}
			return zero, err
		}
		timer := time.NewTimer(cfg.backoffDelay(attempt))
		select {
		case <-timer.C:
		case <-ctx.Done():
			timer.Stop()
			return zero, fmt.Errorf("experiment: sweep point %v: cancelled during retry backoff: %w",
				pt, ctx.Err())
		}
	}
}
