package experiment

// Sweep runs a (K, q, p[, x]) parameter grid through the Monte Carlo engine
// with per-point deterministic seeding: every grid point gets its own base
// seed derived from (Seed, K, q, p, x) via chained rng.StreamSeed mixing —
// the point's parameters, not its grid position — so any point of any sweep
// can be reproduced in isolation and adding points to one axis never
// perturbs the other points' results for the same base seed.
//
// A sequential sweep runs the trials of all its points on one shared pool,
// admitting each point as the one before it hands out its last trial;
// grid points can instead be sharded across a worker pool
// (SweepConfig.PointWorkers). Either way results land in Points() order,
// and because seeds never depend on scheduling, the estimates are
// bit-identical field for field.

import (
	"context"
	"errors"
	"fmt"
	"io"
	"math"
	"runtime"
	"sync"
	"time"

	"github.com/secure-wsn/qcomposite/internal/montecarlo"
	"github.com/secure-wsn/qcomposite/internal/rng"
	"github.com/secure-wsn/qcomposite/internal/stats"
)

// Grid is a cartesian parameter grid over the model axes the paper sweeps:
// key ring size K, overlap requirement q, and channel-on probability p. The
// optional auxiliary axis X carries experiment-specific values (capture
// counts, disk radii); leave it nil for a single zero.
type Grid struct {
	Ks []int
	Qs []int
	Ps []float64
	Xs []float64
}

// GridPoint is one grid point. Index is its position in Points() order —
// presentation metadata only; per-point seeds are derived from the
// parameters (K, Q, P, X), never from Index (see SweepConfig.PointSeed).
type GridPoint struct {
	Index int
	K, Q  int
	P     float64
	X     float64
}

// String names the point by its parameters, so sweep errors surface WHICH
// point failed in readable form ("experiment: sweep point {K=40 q=2 p=0.5
// x=0 #12}: ...") instead of an anonymous struct dump.
func (pt GridPoint) String() string {
	return fmt.Sprintf("{K=%d q=%d p=%g x=%g #%d}", pt.K, pt.Q, pt.P, pt.X, pt.Index)
}

func (g Grid) axes() (ks []int, qs []int, ps, xs []float64) {
	ks, qs, ps, xs = g.Ks, g.Qs, g.Ps, g.Xs
	if len(ks) == 0 {
		ks = []int{0}
	}
	if len(qs) == 0 {
		qs = []int{0}
	}
	if len(ps) == 0 {
		ps = []float64{0}
	}
	if len(xs) == 0 {
		xs = []float64{0}
	}
	return ks, qs, ps, xs
}

// Len returns the number of grid points. Empty axes count as one degenerate
// value, so a grid used over fewer than four axes still enumerates.
func (g Grid) Len() int {
	ks, qs, ps, xs := g.axes()
	return len(ks) * len(qs) * len(ps) * len(xs)
}

// Points enumerates the grid in row-major order (K outermost, then q, p, X).
func (g Grid) Points() []GridPoint {
	ks, qs, ps, xs := g.axes()
	out := make([]GridPoint, 0, g.Len())
	for _, k := range ks {
		for _, q := range qs {
			for _, p := range ps {
				for _, x := range xs {
					out = append(out, GridPoint{Index: len(out), K: k, Q: q, P: p, X: x})
				}
			}
		}
	}
	return out
}

// SweepConfig controls one sweep run.
type SweepConfig struct {
	// Trials is the number of Monte Carlo trials per grid point.
	Trials int
	// Workers bounds trial parallelism; 0 means all CPUs. A sequential sweep
	// (PointWorkers = 0) runs the trials of all its points on one pool of
	// Workers goroutines (see PointWorkers). Under point sharding
	// (PointWorkers > 0) the budget is divided across the shards, each
	// point running on Workers/PointWorkers goroutines of its own (at least
	// one), so the total goroutine count stays ≈ Workers.
	Workers int
	// PointWorkers shards GRID POINTS across a worker pool: each shard is a
	// long-lived goroutine that pulls points off a queue, runs the point's
	// build and trial run there, and writes the result into the point's
	// Points() slot.
	//
	// 0 runs the points in Points() order on one shared pool of Workers
	// trial workers. A point is admitted — its build starts, under its own
	// supervisor — as soon as every trial of the points before it has been
	// handed to a worker, so the tail of one point overlaps the head of the
	// next and no worker idles at a point boundary; at most Workers + 1
	// points are open at once. Because per-point seeds derive from point
	// parameters (PointSeed) and per-trial streams from trial indices,
	// estimates are bit-identical for every PointWorkers and Workers value —
	// scheduling never touches randomness.
	PointWorkers int
	// Seed is the sweep's base seed. Every grid point runs with an
	// independent base seed mixed from (Seed, K, q, p, x); trials within a
	// point derive per-trial streams from that, as montecarlo always does.
	Seed uint64

	// Checkpoint, when non-nil, receives the sweep's journal: a header
	// record binding the journal to this sweep's fingerprint, then one
	// JSON-lines record per freshly completed grid point, appended as each
	// point lands, in completion order (points overlap in every mode —
	// resume does not care). Writes are serialized and each record is a
	// single Write call, so an os.File opened with O_APPEND is safe to
	// share. Points restored
	// from Resume are NOT re-emitted: to keep one complete journal, resume
	// from and checkpoint to the same file.
	Checkpoint io.Writer
	// Resume, when non-nil, is a journal written by a previous run of this
	// same sweep (verified via the fingerprint: grid, trials, seed, sweep
	// kind, JournalLabel, code version — worker counts excluded by design).
	// Completed points load from the journal and are skipped; the merged
	// results are bit-identical to an uninterrupted run because per-point
	// seeds derive from parameters, never from scheduling. An empty stream
	// resumes nothing; a journal from a different sweep is an error.
	Resume io.Reader
	// JournalLabel distinguishes sweeps whose identity is not captured by
	// (grid, trials, seed, kind) alone — everything the build closure bakes
	// in: sensor count, pool size, channel family, measurement choice.
	// Callers that checkpoint SHOULD set it (e.g. "figure1 n=1000
	// pool=10000"); it folds into the fingerprint, so resuming a journal
	// across semantically different sweeps fails instead of silently
	// merging incompatible results.
	JournalLabel string

	// PointDone, when non-nil, is invoked once per grid point as the point's
	// result lands: fromCache reports whether the point was restored from
	// the Resume journal (true) or freshly computed (false). Restored points
	// report before any fresh point runs; fresh points report after their
	// checkpoint record (if any) has been written. Points overlap, so the
	// hook is called concurrently from several goroutines: it must be safe
	// for concurrent use and should return quickly. The hook observes
	// progress only — it cannot alter results, and it is not part of the
	// journal fingerprint.
	PointDone func(pt GridPoint, fromCache bool)

	// PointTimeout bounds each ATTEMPT of one grid point (build plus its
	// full trial run); 0 means no timeout. A timed-out attempt counts as a
	// retryable failure; its goroutine is abandoned (every attempt calls
	// build afresh, so attempts never share state), and a trial worker it
	// leaves wedged is replaced, which keeps a wedged point from hanging the
	// grid.
	PointTimeout time.Duration
	// PointRetries is the number of ADDITIONAL attempts a failed point gets
	// when its error is retryable; 0 means fail on first error. Retries
	// re-run the point from its parameter-derived seed, so a retried
	// point's result is bit-identical to a clean run's.
	PointRetries int
	// RetryBackoff is the delay before the first retry (default 10ms),
	// doubling with each subsequent attempt. Backoff aborts promptly when
	// the sweep is cancelled.
	RetryBackoff time.Duration
	// RetryIf overrides the retry policy. nil retries errors marked
	// montecarlo.ErrTransient and per-point timeouts
	// (context.DeadlineExceeded); genuine sweep cancellation is never
	// retried regardless of policy.
	RetryIf func(error) bool
}

// clampShards caps PointWorkers at the number of grid points, so the
// per-point worker split (pointConfig) is computed from the shard count that
// will actually run — a 2-point grid with PointWorkers = 16 runs 2 shards
// with the full per-point budget each, not 2 starved ones. Seeding never
// depends on worker counts, so this cannot perturb results.
func (c SweepConfig) clampShards(grid Grid) SweepConfig {
	if n := grid.Len(); c.PointWorkers > n {
		c.PointWorkers = n
	}
	return c
}

// pointConfig returns the montecarlo configuration of grid point pt: the
// point's parameter-derived seed, and the per-point trial parallelism — the
// full Workers budget, or under point sharding the budget split across
// shards (at least 1 each), which a sequential sweep's shared pool ignores.
func (c SweepConfig) pointConfig(pt GridPoint) montecarlo.Config {
	workers := c.Workers
	if c.PointWorkers > 1 {
		if workers == 0 {
			workers = runtime.NumCPU()
		}
		workers /= c.PointWorkers
		if workers < 1 {
			workers = 1
		}
	}
	return montecarlo.Config{Trials: c.Trials, Workers: workers, Seed: c.PointSeed(pt)}
}

// trialRun is where one attempt of a point runs its trials. In a
// sequential sweep that is the sweep's shared pool, and fed admits the next
// point; it must be called once every trial of the point is on a worker
// (lastTrialFeeds does that). Under sharding pool is nil — each point runs
// on workers of its own — and fed is nil.
type trialRun struct {
	pool *montecarlo.Pool
	fed  func()
}

// lastTrialFeeds wraps fn so that the start of its last trial calls fed:
// the pool hands trials out in index order, so by then every trial of the
// run is on a worker. A nil fed leaves fn as it is.
func lastTrialFeeds[T any](fn func(int, *rng.Rand) (T, error), trials int, fed func()) func(int, *rng.Rand) (T, error) {
	if fed == nil {
		return fn
	}
	return func(trial int, r *rng.Rand) (T, error) {
		if trial == trials-1 {
			fed()
		}
		return fn(trial, r)
	}
}

// runPoints executes fn for every grid point and returns the results in
// Points() order regardless of scheduling. PointWorkers = 0 runs the points
// in order on one shared trial pool, admitting each as the one before it
// has handed out its last trial (runAdmitted); otherwise min(PointWorkers,
// points) shard goroutines pull points off a queue (runSharded). fn
// observes a context that is cancelled as soon as any point fails, so
// in-flight points stop promptly; every point is always fully drained
// before return. A sweep with no pending point starts no goroutine.
//
// Every point executes under the supervisor (runSupervised): panics in
// build become point errors, attempts are bounded by cfg.PointTimeout, and
// retryable failures re-run up to cfg.PointRetries times. With
// cfg.Resume/cfg.Checkpoint set, previously journaled points are restored
// instead of recomputed and fresh completions are checkpointed as they
// land; merged results are bit-identical to an uninterrupted run.
//
// On failure the error reported is the first FAILING point in Points()
// order, preferring genuine point errors over the cancellation fallout they
// caused in concurrently running points.
func runPoints[R any](ctx context.Context, grid Grid, cfg SweepConfig, codec pointCodec[R],
	fn func(ctx context.Context, pt GridPoint, tr trialRun) (R, error)) ([]R, error) {
	pts := grid.Points()
	out := make([]R, len(pts))
	jw, cached, err := cfg.journalSetup(codec.kind, grid)
	if err != nil {
		return nil, err
	}
	pending := pts
	if len(cached) > 0 {
		pending = make([]GridPoint, 0, len(pts))
		for _, pt := range pts {
			rec, ok := cached[keyOf(pt)]
			if !ok {
				pending = append(pending, pt)
				continue
			}
			if want := cfg.PointSeed(pt); rec.Seed != want {
				return nil, fmt.Errorf("experiment: resume journal point %v ran under seed %d, want %d (corrupt or incompatible journal)",
					pt, rec.Seed, want)
			}
			r, err := codec.decode(pt, rec.Value)
			if err != nil {
				return nil, fmt.Errorf("experiment: resume journal point %v: %w", pt, err)
			}
			out[pt.Index] = r
			if cfg.PointDone != nil {
				cfg.PointDone(pt, true)
			}
		}
	}
	if len(pending) == 0 {
		return out, nil
	}

	errs := make([]error, len(pts))
	cancelCtx, cancel := context.WithCancel(ctx)
	defer cancel()
	// exec supervises one point, checkpoints its fresh result and lands it
	// (or its error, which cancels the sweep).
	exec := func(pt GridPoint, tr trialRun) {
		r, err := runSupervised(cancelCtx, cfg, pt, func(ctx context.Context, pt GridPoint) (R, error) {
			return fn(ctx, pt, tr)
		})
		if err == nil && jw != nil {
			var raw []byte
			if raw, err = codec.encode(r); err != nil {
				err = fmt.Errorf("experiment: checkpointing point %v: %w", pt, err)
			} else {
				err = jw.writePoint(pt, cfg.PointSeed(pt), raw)
			}
		}
		if err != nil {
			errs[pt.Index] = err
			cancel()
			return
		}
		if cfg.PointDone != nil {
			cfg.PointDone(pt, false)
		}
		out[pt.Index] = r
	}
	if cfg.PointWorkers <= 0 {
		runAdmitted(cancelCtx, cfg, pending, exec)
	} else {
		runSharded(cancelCtx, cfg.PointWorkers, pending, exec)
	}

	// First error in Points() order. A genuine point failure cancels the
	// shared context, making concurrently running EARLIER points fail with a
	// cancellation error; unless the caller's own context was cancelled,
	// skip that fallout and surface the originating error instead.
	var fallback error
	for _, err := range errs {
		if err == nil {
			continue
		}
		if fallback == nil {
			fallback = err
		}
		if ctx.Err() != nil || !errors.Is(err, context.Canceled) {
			return nil, err
		}
	}
	if fallback != nil {
		return nil, fallback
	}
	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("experiment: sweep cancelled: %w", err)
	}
	return out, nil
}

// runAdmitted runs the pending points of a sequential sweep in order on one
// pool of cfg.Workers trial workers (fewer if the sweep has fewer trials).
// Point i+1 is admitted — exec starts on its own goroutine — once point i
// has handed its last trial to a worker or has ended, and while fewer than
// workers + 1 points are open, so at most one open point is still handing
// out trials. Admission stops when ctx is cancelled; every admitted point
// has ended before return.
func runAdmitted(ctx context.Context, cfg SweepConfig, pending []GridPoint, exec func(GridPoint, trialRun)) {
	workers := cfg.Workers
	if workers <= 0 {
		workers = runtime.NumCPU()
	}
	workers = max(1, min(workers, cfg.Trials*len(pending)))
	pool := montecarlo.NewPool(workers)
	defer pool.Close()
	open := make(chan struct{}, workers+1)
	var wg sync.WaitGroup
	defer wg.Wait()
	for _, pt := range pending {
		select {
		case open <- struct{}{}:
		case <-ctx.Done():
		}
		if ctx.Err() != nil {
			return
		}
		fed := make(chan struct{})
		var once sync.Once
		admit := func() { once.Do(func() { close(fed) }) }
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer func() { <-open }()
			defer admit()
			exec(pt, trialRun{pool: pool, fed: admit})
		}()
		select {
		case <-fed:
		case <-ctx.Done():
		}
	}
}

// runSharded runs the pending points on min(shards, points) goroutines that
// pull points off a queue until it is drained or ctx is cancelled; every
// shard has ended before return. Each point runs its trials on workers of
// its own.
func runSharded(ctx context.Context, shards int, pending []GridPoint, exec func(GridPoint, trialRun)) {
	// The Sweep* entry points clamp shards to the grid (clampShards), so
	// the shard count here and the per-point worker split in pointConfig
	// agree.
	pointCh := make(chan GridPoint)
	var wg sync.WaitGroup
	wg.Add(shards)
	for s := 0; s < shards; s++ {
		go func() {
			defer wg.Done()
			for pt := range pointCh {
				exec(pt, trialRun{})
			}
		}()
	}
feed:
	for _, pt := range pending {
		select {
		case pointCh <- pt:
		case <-ctx.Done():
			break feed
		}
	}
	close(pointCh)
	wg.Wait()
}

// PointSeed returns the deterministic Monte Carlo base seed of grid point pt
// under this sweep configuration. The seed is a function of the point's
// parameters, not its grid index, so extending any grid axis leaves the
// seeds — and hence the published estimates — of all existing points intact.
func (c SweepConfig) PointSeed(pt GridPoint) uint64 {
	s := rng.StreamSeed(c.Seed, uint64(int64(pt.K)))
	s = rng.StreamSeed(s, uint64(int64(pt.Q)))
	s = rng.StreamSeed(s, math.Float64bits(pt.P))
	return rng.StreamSeed(s, math.Float64bits(pt.X))
}

// ProportionResult is one proportion-valued sweep measurement.
type ProportionResult struct {
	Point GridPoint
	Value stats.Proportion
}

// MeanResult is one mean-valued sweep measurement.
type MeanResult struct {
	Point GridPoint
	Value *stats.Summary
}

// SweepProportion estimates a success proportion at every grid point. build
// is called once per point attempt, on the goroutine that supervises the
// point, and returns the trial to run (typically closing over a sampler or
// wsn.DeployerPool for that point's parameters); the trials run on
// montecarlo workers, several at once. With cfg.PointWorkers = 0 the points
// run in order on one shared trial pool, overlapping at their boundaries;
// with PointWorkers > 0 grid points are sharded across a pool of
// long-lived workers (see SweepConfig.PointWorkers). The estimates are
// bit-identical either way.
func SweepProportion(ctx context.Context, grid Grid, cfg SweepConfig,
	build func(pt GridPoint) (montecarlo.Trial, error)) ([]ProportionResult, error) {
	cfg = cfg.clampShards(grid)
	return runPoints(ctx, grid, cfg, proportionCodec(),
		func(ctx context.Context, pt GridPoint, tr trialRun) (ProportionResult, error) {
			trial, err := build(pt)
			if err != nil {
				return ProportionResult{}, fmt.Errorf("experiment: sweep point %v: %w", pt, err)
			}
			est, err := tr.pool.EstimateProportion(ctx, cfg.pointConfig(pt), lastTrialFeeds(trial, cfg.Trials, tr.fed))
			if err != nil {
				return ProportionResult{}, fmt.Errorf("experiment: sweep point %v: %w", pt, err)
			}
			return ProportionResult{Point: pt, Value: est}, nil
		})
}

// MeanVecResult is one multi-statistic sweep measurement: Values[i] is the
// Summary of the i-th component returned by the point's SampleVec.
type MeanVecResult struct {
	Point  GridPoint
	Values []*stats.Summary
}

// SweepMeanVec estimates several mean-valued statistics per grid point from
// one set of samples: the point's SampleVec returns dims observations per
// trial, so paired statistics (e.g. two properties of the same deployed
// topology) never pay the sampling cost twice.
func SweepMeanVec(ctx context.Context, grid Grid, cfg SweepConfig, dims int,
	build func(pt GridPoint) (montecarlo.SampleVec, error)) ([]MeanVecResult, error) {
	cfg = cfg.clampShards(grid)
	return runPoints(ctx, grid, cfg, meanVecCodec(dims),
		func(ctx context.Context, pt GridPoint, tr trialRun) (MeanVecResult, error) {
			sample, err := build(pt)
			if err != nil {
				return MeanVecResult{}, fmt.Errorf("experiment: sweep point %v: %w", pt, err)
			}
			sums, err := tr.pool.EstimateMeanVec(ctx, cfg.pointConfig(pt), dims, lastTrialFeeds(sample, cfg.Trials, tr.fed))
			if err != nil {
				return MeanVecResult{}, fmt.Errorf("experiment: sweep point %v: %w", pt, err)
			}
			return MeanVecResult{Point: pt, Values: sums}, nil
		})
}

// SweepMean estimates a mean-valued statistic at every grid point, with the
// same seeding discipline as SweepProportion: two sweeps with equal Seed and
// grids observe identical per-trial randomness point for point, so paired
// statistics are measured on identical samples.
func SweepMean(ctx context.Context, grid Grid, cfg SweepConfig,
	build func(pt GridPoint) (montecarlo.Sample, error)) ([]MeanResult, error) {
	cfg = cfg.clampShards(grid)
	return runPoints(ctx, grid, cfg, meanCodec(),
		func(ctx context.Context, pt GridPoint, tr trialRun) (MeanResult, error) {
			sample, err := build(pt)
			if err != nil {
				return MeanResult{}, fmt.Errorf("experiment: sweep point %v: %w", pt, err)
			}
			sum, err := tr.pool.EstimateMean(ctx, cfg.pointConfig(pt), lastTrialFeeds(sample, cfg.Trials, tr.fed))
			if err != nil {
				return MeanResult{}, fmt.Errorf("experiment: sweep point %v: %w", pt, err)
			}
			return MeanResult{Point: pt, Value: sum}, nil
		})
}
