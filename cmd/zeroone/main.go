// Command zeroone demonstrates the zero–one law of Theorem 1, eqs. (8b) and
// (8c) (experiment E6): growing n along a schedule with the pool scaling
// linearly (P = 10·n, the paper's practicality condition), the ring size is
// chosen at each n so that the deviation α_n ≈ ±c·ln ln n → ±∞. The
// empirical probability of k-connectivity must march to 1 on the plus
// branch and to 0 on the minus branch.
//
// The sweep runs through experiment.CrossSweep over the (n × branch) grid
// with per-point deterministic seeding; each trial deploys through a
// reusable wsn.DeployerPool (zero steady-state allocation on the trial
// loop) as a verdict-only trial: the channel draw streams into union-find
// and degree sinks and stops once the verdict is decided either way. Only
// at k ≥ 2, and only for a network that spans with every degree ≥ k, is a
// CSR graph built for the exact k-connectivity decision.
package main

import (
	"context"
	"flag"
	"fmt"
	"math"
	"os"
	"time"

	"github.com/secure-wsn/qcomposite/internal/channel"
	"github.com/secure-wsn/qcomposite/internal/cmdutil"
	"github.com/secure-wsn/qcomposite/internal/experiment"
	"github.com/secure-wsn/qcomposite/internal/keys"
	"github.com/secure-wsn/qcomposite/internal/theory"
	"github.com/secure-wsn/qcomposite/internal/wsn"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "zeroone:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		q        = flag.Int("q", 2, "required key overlap")
		pOn      = flag.Float64("p", 0.5, "channel-on probability")
		k        = flag.Int("k", 2, "connectivity level k")
		c        = flag.Float64("c", 2.0, "deviation multiplier: alpha = ±c·ln ln n")
		poolMult = flag.Int("poolmult", 10, "pool size P = poolmult·n")
		nList    = flag.String("nlist", "200,400,800,1600,3200", "comma-separated n schedule")
		trials   = flag.Int("trials", 200, "samples per point")
		workers  = flag.Int("workers", 0, "parallel workers (0 = all CPUs)")
		pWorkers = flag.Int("pointworkers", 0, "grid-point shards (0 = sequential points; results identical either way)")
		seed     = flag.Uint64("seed", 1, "base RNG seed")
		csvPath  = flag.String("csv", "", "write series CSV to this path")
	)
	flag.Parse()

	ns, err := cmdutil.ParseList[int]("nlist", *nList)
	if err != nil {
		return err
	}
	for _, v := range ns {
		if v < 3 {
			return fmt.Errorf("n must be ≥ 3, got %d", v)
		}
	}

	fmt.Printf("Zero–one law (8b)/(8c): k=%d, q=%d, p=%g, P=%d·n, alpha_n = ±%.1f·ln ln n\n",
		*k, *q, *pOn, *poolMult, *c)
	fmt.Printf("%d trials/point\n\n", *trials)

	// Per-point design: the ring size realizing the targeted ±alpha at this
	// n. Derived from the point parameters only, so the sweep stays
	// reproducible point by point.
	type design struct {
		pool, ring      int
		alphaTarget     float64
		realized, limit float64
	}
	designFor := func(n int, sign float64) (design, error) {
		d := design{pool: *poolMult * n}
		d.alphaTarget = sign * *c * math.Log(math.Log(float64(n)))
		tTarget, err := theory.EdgeProbForAlpha(n, d.alphaTarget, *k)
		if err != nil {
			return d, err
		}
		d.ring, err = theory.RingSizeForEdgeProb(d.pool, *q, *pOn, tTarget)
		if err != nil {
			return d, fmt.Errorf("n=%d sign=%+g: %w", n, sign, err)
		}
		if d.ring < *q {
			d.ring = *q
		}
		tProb, err := theory.EdgeProb(d.pool, d.ring, *q, *pOn)
		if err != nil {
			return d, err
		}
		if d.realized, err = theory.Alpha(n, tProb, *k); err != nil {
			return d, err
		}
		if d.limit, err = theory.KConnProbLimit(d.realized, *k); err != nil {
			return d, err
		}
		return d, nil
	}

	// Grid: Ks carries the n schedule, Xs the branch sign.
	grid := experiment.Grid{Ks: ns, Qs: []int{*q}, Ps: []float64{*pOn}, Xs: []float64{1, -1}}
	ctx := context.Background()
	start := time.Now()
	results, err := experiment.CrossSweep(ctx, grid,
		experiment.SweepConfig{Trials: *trials, Workers: *workers, PointWorkers: *pWorkers, Seed: *seed},
		experiment.CrossSpec{
			K: *k,
			Build: func(pt experiment.GridPoint) (wsn.Config, error) {
				d, err := designFor(pt.K, pt.X)
				if err != nil {
					return wsn.Config{}, err
				}
				scheme, err := keys.NewQComposite(d.pool, d.ring, pt.Q)
				if err != nil {
					return wsn.Config{}, err
				}
				return wsn.Config{
					Sensors: pt.K,
					Scheme:  scheme,
					Channel: channel.OnOff{P: pt.P},
				}, nil
			},
		})
	if err != nil {
		return err
	}

	curveOf := func(pt experiment.GridPoint) string {
		if pt.X > 0 {
			return "alpha_n -> +inf (law: P -> 1)"
		}
		return "alpha_n -> -inf (law: P -> 0)"
	}
	presented := experiment.PivotSweep(experiment.PivotSpec{
		RowHeaders: []string{"n", "P"},
		RowCells: func(pt experiment.GridPoint) []string {
			return []string{fmt.Sprintf("%d", pt.K), fmt.Sprintf("%d", *poolMult*pt.K)}
		},
		FormatCell: func(m experiment.Measurement) string {
			d, err := designFor(m.Point.K, m.Point.X)
			if err != nil {
				return fmt.Sprintf("%.3f", m.Y)
			}
			return fmt.Sprintf("%.3f (K=%d, alpha %+0.2f, limit %.3f)", m.Y, d.ring, d.realized, d.limit)
		},
	}, experiment.ProportionMeasurements(results, 0,
		func(pt experiment.GridPoint) float64 { return float64(pt.K) },
		curveOf,
	))
	if err := presented.Table.Render(os.Stdout); err != nil {
		return err
	}
	fmt.Printf("\nelapsed: %v\n\n", time.Since(start).Round(time.Millisecond))

	if err := experiment.RenderChart(os.Stdout, presented.Series, experiment.ChartOptions{
		Title:  fmt.Sprintf("Zero–one law for %d-connectivity (markers: empirical P)", *k),
		XLabel: "number of sensors n",
		YLabel: "P[k-connected]",
		YMin:   0, YMax: 1,
		Width: 76, Height: 20,
	}); err != nil {
		return err
	}

	if *csvPath != "" {
		if err := presented.SaveSeriesCSV(*csvPath); err != nil {
			return err
		}
		fmt.Printf("\nwrote %s\n", *csvPath)
	}
	return nil
}
