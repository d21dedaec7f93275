package bench

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"time"

	"github.com/secure-wsn/qcomposite/internal/experiment"
	"github.com/secure-wsn/qcomposite/internal/montecarlo"
	"github.com/secure-wsn/qcomposite/internal/rng"
	"github.com/secure-wsn/qcomposite/internal/wsn"
)

// sweepWorkload is a workload whose round is one parameter sweep (fig1,
// kconn). Its operation is a grid point, timed from the build call to the
// sweep's PointDone callback.
type sweepWorkload struct {
	grid experiment.Grid
	// warm is the grid each set-up sweeps: the smallest-K column, where
	// every trial is far below the threshold and so costs about the same
	// whatever the seed.
	warm experiment.Grid
	// config is the sweep configuration; each round sets its seed.
	config experiment.SweepConfig
	// journal checkpoints every round to a fresh file.
	journal bool
	// plain is the production sweep, deploy its per-point deployment.
	plain  func(context.Context, experiment.Grid, experiment.SweepConfig, func(experiment.GridPoint) (wsn.Config, error)) ([]experiment.ProportionResult, error)
	deploy func(experiment.GridPoint) (wsn.Config, error)
	// traced builds a point's trial for traced rounds, which run the sweep
	// through experiment.SweepProportion with these trials instead.
	traced func(pt experiment.GridPoint, parent int64, trace string) (montecarlo.Trial, error)
}

// runSweeps sets up, runs rounds until the measuring time has passed, and
// returns the results of the plain rounds. Each traced round must reproduce
// the plain round with its seed exactly.
func (r *runner) runSweeps(w sweepWorkload) ([][]experiment.ProportionResult, error) {
	for range setupReps {
		start := time.Now()
		if _, _, err := r.sweepRound(w, w.warm, r.Seed, false, "setup"); err != nil {
			return nil, err
		}
		r.setup = append(r.setup, time.Since(start).Seconds())
	}
	r.measure()
	var plain [][]experiment.ProportionResult
	for i := 0; r.more(i); i++ {
		traced := r.traced(i)
		start := time.Now()
		res, lat, err := r.sweepRound(w, w.grid, r.roundSeed(i), traced, fmt.Sprintf("r%d", i))
		if err != nil {
			return nil, err
		}
		if traced {
			r.attempted += len(res)
			r.check(reflect.DeepEqual(res, plain[len(plain)-1]),
				"traced round %d differs from the plain round with its seed", i)
			continue
		}
		for _, d := range lat {
			r.op(d)
		}
		if r.tr == nil {
			r.walls = append(r.walls, time.Since(start).Seconds())
		}
		r.heapSample()
		plain = append(plain, res)
	}
	return plain, nil
}

// sweepRound runs one sweep of grid with the given seed: the production
// sweep on plain rounds, SweepProportion over traced trials on traced ones.
// It returns the results and each point's latency.
func (r *runner) sweepRound(w sweepWorkload, grid experiment.Grid, seed uint64, traced bool, round string) (
	[]experiment.ProportionResult, []time.Duration, error) {
	cfg := w.config
	cfg.Seed = seed
	var tr *tracer
	if traced {
		tr = r.tr
	}
	clock := newPointClock(tr, r.Workload+"/"+round, grid)
	cfg.PointDone = clock.done
	var journal *os.File
	if w.journal {
		var err error
		journal, err = os.OpenFile(filepath.Join(r.dir, r.Workload+".journal"),
			os.O_CREATE|os.O_TRUNC|os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			return nil, nil, fmt.Errorf("opening checkpoint journal: %w", err)
		}
		defer journal.Close()
		cfg.Checkpoint = journal
		if traced {
			cfg.Checkpoint = &journalSpans{w: journal, clock: clock}
		}
	}
	var res []experiment.ProportionResult
	var err error
	if traced {
		res, err = experiment.SweepProportion(r.ctx, grid, cfg, func(pt experiment.GridPoint) (montecarlo.Trial, error) {
			parent, trace := clock.begin(pt)
			return w.traced(pt, parent, trace)
		})
	} else {
		res, err = w.plain(r.ctx, grid, cfg, func(pt experiment.GridPoint) (wsn.Config, error) {
			clock.begin(pt)
			return w.deploy(pt)
		})
	}
	clock.end()
	if err != nil {
		return nil, nil, err
	}
	if journal != nil {
		if err := journal.Close(); err != nil {
			return nil, nil, fmt.Errorf("closing checkpoint journal: %w", err)
		}
	}
	return res, clock.lat, nil
}

// pointKey identifies a grid point by its parameters, as journal records do.
type pointKey struct {
	k, q int
	p, x float64
}

// pointClock times the points of one sweep from their build call to their
// PointDone callback. On a traced round it also records each point as an
// experiment.point span under the round's experiment.sweep span.
type pointClock struct {
	tr    *tracer
	trace string
	sweep Span
	index map[pointKey]int

	mu    sync.Mutex
	start map[int]time.Time
	spans map[int]Span
	lat   []time.Duration
}

func newPointClock(tr *tracer, trace string, grid experiment.Grid) *pointClock {
	pts := grid.Points()
	c := &pointClock{
		tr: tr, trace: trace, index: map[pointKey]int{},
		start: map[int]time.Time{}, spans: map[int]Span{}, lat: make([]time.Duration, len(pts)),
	}
	for _, pt := range pts {
		c.index[pointKey{pt.K, pt.Q, pt.P, pt.X}] = pt.Index
	}
	c.sweep = tr.start(trace, "experiment.sweep", 0)
	return c
}

// begin marks the start of point pt and returns its span ID and trace id.
func (c *pointClock) begin(pt experiment.GridPoint) (int64, string) {
	trace := fmt.Sprintf("%s/K=%d,q=%d,p=%g,x=%g", c.trace, pt.K, pt.Q, pt.P, pt.X)
	sp := c.tr.start(trace, "experiment.point", c.sweep.ID)
	c.mu.Lock()
	c.start[pt.Index] = time.Now()
	c.spans[pt.Index] = sp
	c.mu.Unlock()
	return sp.ID, trace
}

// done is the sweep's PointDone hook.
func (c *pointClock) done(pt experiment.GridPoint, _ bool) {
	c.mu.Lock()
	c.lat[pt.Index] = time.Since(c.start[pt.Index])
	sp := c.spans[pt.Index]
	c.mu.Unlock()
	c.tr.finish(sp)
}

func (c *pointClock) end() { c.tr.finish(c.sweep) }

// span returns the open span of the point with the given parameters.
func (c *pointClock) span(k pointKey) (Span, bool) {
	i, ok := c.index[k]
	if !ok {
		return Span{}, false
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	sp, ok := c.spans[i]
	return sp, ok
}

// journalSpans wraps a traced sweep's checkpoint writer: each record is an
// experiment.journal span under the point it checkpoints (the header, under
// the sweep).
type journalSpans struct {
	w     io.Writer
	clock *pointClock
}

func (j *journalSpans) Write(line []byte) (int, error) {
	parent, trace := j.clock.sweep.ID, j.clock.trace
	if _, p, err := experiment.ParseJournalRecord(bytes.TrimSpace(line)); err == nil && p != nil {
		if sp, ok := j.clock.span(pointKey{p.K, p.Q, p.P, p.X}); ok {
			parent, trace = sp.ID, sp.Trace
		}
	}
	sp := j.clock.tr.start(trace, "experiment.journal", parent)
	n, err := j.w.Write(line)
	sp.Counts = map[string]int64{"bytes": int64(n)}
	j.clock.tr.finish(sp)
	return n, err
}

// csrCheck re-runs every stride-th point of a plain round through the CSR
// path — SweepProportion over Deployer.DeployRand and Network.IsConnected
// (IsKConnected for k ≥ 2) — and checks that it reproduces the round's
// successes point for point. cfg must carry the round's seed.
func (r *runner) csrCheck(results []experiment.ProportionResult, stride int, cfg experiment.SweepConfig,
	deploy func(experiment.GridPoint) (wsn.Config, int, error)) error {
	cfg.PointWorkers, cfg.PointDone, cfg.Checkpoint = 0, nil, nil
	for _, res := range results {
		pt := res.Point
		if pt.Index%stride != 0 {
			continue
		}
		grid := experiment.Grid{Ks: []int{pt.K}, Qs: []int{pt.Q}, Ps: []float64{pt.P}, Xs: []float64{pt.X}}
		got, err := experiment.SweepProportion(r.ctx, grid, cfg, func(pt experiment.GridPoint) (montecarlo.Trial, error) {
			wcfg, k, err := deploy(pt)
			if err != nil {
				return nil, err
			}
			dp, err := wsn.NewDeployerPool(wcfg)
			if err != nil {
				return nil, err
			}
			return func(_ int, rnd *rng.Rand) (bool, error) {
				d := dp.Get()
				defer dp.Put(d)
				net, err := d.DeployRand(rnd)
				if err != nil {
					return false, err
				}
				if k == 1 {
					return net.IsConnected()
				}
				return net.IsKConnected(k)
			}, nil
		})
		if err != nil {
			return fmt.Errorf("CSR re-run of %v: %w", pt, err)
		}
		r.check(got[0].Value == res.Value, "CSR path at %v gives %v, the sweep gave %v", pt, got[0].Value, res.Value)
	}
	return nil
}

// checkRise checks that the curves of the plain rounds rise along the
// ring-size axis, summed over rounds: no curve has fewer successes at the
// largest fifth of ks than at the smallest fifth, and all curves together
// have more. A single curve may stay flat: the top of Figure 1's q = 3,
// p = 0.2 curve is just past its threshold (P ≈ 0.8 at K = 88, ≈ 0 at 80),
// so a round's few trials there can all fail.
func (r *runner) checkRise(rounds [][]experiment.ProportionResult, ks []int, curve func(experiment.GridPoint) string) {
	m := max(1, len(ks)/5)
	low, high := map[string]int{}, map[string]int{}
	for _, round := range rounds {
		for _, res := range round {
			c := curve(res.Point)
			switch {
			case res.Point.K <= ks[m-1]:
				low[c] += res.Value.Successes
			case res.Point.K >= ks[len(ks)-m]:
				high[c] += res.Value.Successes
			}
		}
	}
	lowSum, highSum := 0, 0
	for _, c := range sortedKeys(high) {
		r.check(high[c] >= low[c], "curve %s falls: %d successes at the largest ring sizes, %d at the smallest",
			c, high[c], low[c])
		lowSum, highSum = lowSum+low[c], highSum+high[c]
	}
	r.check(highSum > lowSum, "the curves do not rise: %d successes at the largest ring sizes, %d at the smallest",
		highSum, lowSum)
}

// parallel runs fn(0) … fn(n−1) on n goroutines and returns the first error.
func parallel(n int, fn func(g int) error) error {
	errs := make([]error, n)
	var wg sync.WaitGroup
	wg.Add(n)
	for g := range n {
		go func() {
			defer wg.Done()
			errs[g] = fn(g)
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}
