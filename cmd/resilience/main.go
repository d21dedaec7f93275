// Command resilience evaluates node-capture resilience in two modes.
//
// The classic mode (default) reproduces the q-composite motivation
// (experiment E7, the paper's Section I claim after Chan–Perrig–Song): under
// random node capture, the fraction of compromised external links is lower
// for larger q at small capture scales and higher at large scales, when the
// schemes are dimensioned to the same link probability (each q gets its own
// pool size). Both the simulated attack on deployed networks and the
// closed-form prediction are reported.
//
// The timeline mode (-timeline) runs composable ATTACK CAMPAIGNS through
// adversary.RunCampaign: each semicolon-separated spec — e.g.
// "capture:20;capture:10,fail:10" — is one campaign of ordered steps
// (capture, capture-targeted, fail, fail-targeted, jam, revoke), swept over
// an attack-budget axis via experiment.SweepCampaign so the output reads
// "fraction of the network still securely connected vs attack budget", one
// curve per campaign. Compromise propagates across steps: keys captured
// early compromise links evaluated later.
//
// Both modes run on the sweep fabric — parameter-derived point seeds, grid
// points sharded under -pointworkers with bit-identical results, and
// -checkpoint/-resume journaling with SIGINT/SIGTERM draining — with
// per-point wsn.DeployerPools amortizing deployments.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"github.com/secure-wsn/qcomposite/internal/adversary"
	"github.com/secure-wsn/qcomposite/internal/channel"
	"github.com/secure-wsn/qcomposite/internal/cmdutil"
	"github.com/secure-wsn/qcomposite/internal/experiment"
	"github.com/secure-wsn/qcomposite/internal/keys"
	"github.com/secure-wsn/qcomposite/internal/montecarlo"
	"github.com/secure-wsn/qcomposite/internal/rng"
	"github.com/secure-wsn/qcomposite/internal/theory"
	"github.com/secure-wsn/qcomposite/internal/wsn"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "resilience:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		sensors  = flag.Int("sensors", 400, "deployed sensors")
		ring     = flag.Int("ring", 60, "key ring size K (shared by all schemes)")
		target   = flag.Float64("target", 0.33, "link probability all schemes are dimensioned to")
		qMax     = flag.Int("qmax", 3, "classic mode: largest q to compare (1..qmax)")
		xMax     = flag.Int("xmax", 120, "classic mode: largest capture count")
		xStep    = flag.Int("xstep", 10, "capture count / attack budget step")
		trials   = flag.Int("trials", 30, "deployments averaged per point")
		workers  = flag.Int("workers", 0, "parallel workers (0 = all CPUs)")
		pWorkers = flag.Int("pointworkers", 0, "grid-point shards (0 = points in order on one shared trial pool; results identical either way)")
		seed     = flag.Uint64("seed", 1, "base RNG seed")
		csvPath  = flag.String("csv", "", "write series CSV to this path")
		timeline = flag.String("timeline", "", `timeline mode: semicolon-separated attack campaigns, each "kind:count,kind:count,..." (kinds: capture, capture-targeted, fail, fail-targeted, jam, revoke)`)
		qTl      = flag.Int("q", 2, "timeline mode: overlap requirement q")
	)
	journal := cmdutil.RegisterJournal()
	flag.Parse()
	if err := journal.Open(); err != nil {
		return err
	}
	defer journal.Close()

	if *xStep <= 0 {
		return fmt.Errorf("-xstep %d must be positive", *xStep)
	}
	ctx, stop := cmdutil.SignalContext()
	defer stop()
	cfg := experiment.SweepConfig{Trials: *trials, Workers: *workers, PointWorkers: *pWorkers, Seed: *seed}

	if *timeline != "" {
		return runTimelines(ctx, journal, cfg, timelineOpts{
			specs: *timeline, sensors: *sensors, ring: *ring, target: *target,
			q: *qTl, xStep: *xStep, csvPath: *csvPath,
		})
	}
	return runClassic(ctx, journal, cfg, classicOpts{
		sensors: *sensors, ring: *ring, target: *target,
		qMax: *qMax, xMax: *xMax, xStep: *xStep, csvPath: *csvPath,
	})
}

// dimension returns the pool size giving key-share probability ≈ target at
// (ring, q) — Chan et al.'s same-link-probability comparison discipline.
func dimension(ring, q int, target float64) (int, error) {
	pool, err := theory.PoolSizeForKeyShareProb(ring, q, target)
	if err != nil {
		return 0, fmt.Errorf("dimension q=%d: %w", q, err)
	}
	return pool, nil
}

type classicOpts struct {
	sensors, ring     int
	target            float64
	qMax, xMax, xStep int
	csvPath           string
}

func runClassic(ctx context.Context, journal *cmdutil.Journal, cfg experiment.SweepConfig, opt classicOpts) error {
	fmt.Printf("Node-capture resilience: K=%d, schemes dimensioned to link probability %.2f\n",
		opt.ring, opt.target)

	pools := make(map[int]int, opt.qMax)
	for q := 1; q <= opt.qMax; q++ {
		pool, err := dimension(opt.ring, q, opt.target)
		if err != nil {
			return err
		}
		pools[q] = pool
		fmt.Printf("  q=%d: pool P=%d\n", q, pool)
	}
	fmt.Printf("%d sensors, %d deployments per point\n\n", opt.sensors, cfg.Trials)

	var qs []int
	for q := 1; q <= opt.qMax; q++ {
		qs = append(qs, q)
	}
	var captures []float64
	for x := 0; x <= opt.xMax; x += opt.xStep {
		captures = append(captures, float64(x))
	}

	start := time.Now()
	// One sweep over the (q, capture count) grid; each q dimension reuses a
	// single DeployerPool across all its capture counts and trials (built
	// up front so the map is read-only under point sharding — DeployerPool
	// itself is safe for concurrent Get/Put). A trial deploys from the
	// per-trial stream and runs the capture with the same stream, so every
	// point is reproducible in isolation.
	deployerPools := map[int]*wsn.DeployerPool{}
	for _, q := range qs {
		scheme, err := keys.NewQComposite(pools[q], opt.ring, q)
		if err != nil {
			return err
		}
		dp, err := wsn.NewDeployerPool(wsn.Config{
			Sensors: opt.sensors,
			Scheme:  scheme,
			Channel: channel.AlwaysOn{},
		})
		if err != nil {
			return err
		}
		deployerPools[q] = dp
	}
	sweepCfg := journal.Apply(cfg, fmt.Sprintf("resilience classic n=%d K=%d target=%g qmax=%d",
		opt.sensors, opt.ring, opt.target, opt.qMax))
	results, err := experiment.SweepMean(ctx,
		experiment.Grid{Ks: []int{opt.ring}, Qs: qs, Xs: captures},
		sweepCfg,
		func(pt experiment.GridPoint) (montecarlo.Sample, error) {
			dp := deployerPools[pt.Q]
			captured := int(pt.X)
			return func(trial int, r *rng.Rand) (float64, error) {
				d := dp.Get()
				defer dp.Put(d)
				net, err := d.DeployRand(r)
				if err != nil {
					return 0, err
				}
				res, err := adversary.CaptureRandom(net, r, captured)
				if err != nil {
					return 0, err
				}
				return res.Fraction(), nil
			}, nil
		})
	if err != nil {
		return journal.Hint(err)
	}

	// Simulated curves from the sweep plus the closed-form prediction as
	// theory-only curves, pivoted into one captured-count-rowed table.
	ms := experiment.MeanMeasurements(results, 1.96,
		func(pt experiment.GridPoint) float64 { return pt.X },
		func(pt experiment.GridPoint) string { return fmt.Sprintf("q=%d simulated", pt.Q) },
	)
	for _, res := range results {
		pt := res.Point
		anaFrac, err := adversary.AnalyticCompromiseFraction(pools[pt.Q], opt.ring, pt.Q, int(pt.X))
		if err != nil {
			return err
		}
		ms = append(ms, experiment.Measurement{
			Point: pt, Curve: fmt.Sprintf("q=%d analytic", pt.Q),
			X: pt.X, Y: anaFrac, Lo: anaFrac, Hi: anaFrac,
		})
	}
	presented := experiment.PivotSweep(experiment.PivotSpec{
		RowHeaders: []string{"captured"},
		RowCells: func(pt experiment.GridPoint) []string {
			return []string{fmt.Sprintf("%d", int(pt.X))}
		},
		FormatCell: func(m experiment.Measurement) string {
			return fmt.Sprintf("%.4f", m.Y)
		},
	}, ms)
	if err := presented.Table.Render(os.Stdout); err != nil {
		return err
	}
	fmt.Printf("\nelapsed: %v\n\n", time.Since(start).Round(time.Millisecond))

	if err := experiment.RenderChart(os.Stdout, presented.Series, experiment.ChartOptions{
		Title:  "Fraction of external links compromised vs sensors captured",
		XLabel: "captured sensors x",
		YLabel: "compromised fraction",
		YMin:   0, YMax: 1,
		Width: 76, Height: 20,
	}); err != nil {
		return err
	}
	fmt.Println("\nExpected shape (Chan et al.): larger q lower at small x, crossing over at large x.")

	if opt.csvPath != "" {
		if err := presented.SaveSeriesCSV(opt.csvPath); err != nil {
			return err
		}
		fmt.Printf("wrote %s\n", opt.csvPath)
	}
	return nil
}

type timelineOpts struct {
	specs         string
	sensors, ring int
	target        float64
	q, xStep      int
	csvPath       string
}

func runTimelines(ctx context.Context, journal *cmdutil.Journal, cfg experiment.SweepConfig, opt timelineOpts) error {
	var timelines []adversary.Timeline
	for _, spec := range strings.Split(opt.specs, ";") {
		if strings.TrimSpace(spec) == "" {
			continue
		}
		tl, err := adversary.ParseTimeline(spec)
		if err != nil {
			return fmt.Errorf("parse -timeline: %w", err)
		}
		timelines = append(timelines, tl)
	}
	if len(timelines) == 0 {
		return fmt.Errorf("parse -timeline: no campaigns in %q", opt.specs)
	}
	pool, err := dimension(opt.ring, opt.q, opt.target)
	if err != nil {
		return err
	}

	// One shared budget axis across the campaigns: 0 up to the largest total
	// budget in xstep strides, always including that total. Budgets past a
	// shorter campaign's end run the whole campaign (the curve flattens).
	maxBudget := 0
	for _, tl := range timelines {
		if b := tl.TotalBudget(); b > maxBudget {
			maxBudget = b
		}
	}
	var budgets []float64
	for x := 0; x < maxBudget; x += opt.xStep {
		budgets = append(budgets, float64(x))
	}
	budgets = append(budgets, float64(maxBudget))

	fmt.Printf("Attack campaigns: n=%d, K=%d, q=%d, pool P=%d (link probability %.2f)\n",
		opt.sensors, opt.ring, opt.q, pool, opt.target)
	for _, tl := range timelines {
		fmt.Printf("  campaign %q: total budget %d\n", tl, tl.TotalBudget())
	}
	fmt.Printf("%d deployments per point\n\n", cfg.Trials)

	build := func(pt experiment.GridPoint) (wsn.Config, error) {
		scheme, err := keys.NewQComposite(pool, pt.K, pt.Q)
		if err != nil {
			return wsn.Config{}, err
		}
		return wsn.Config{Sensors: opt.sensors, Scheme: scheme, Channel: channel.AlwaysOn{}}, nil
	}
	grid := experiment.Grid{Ks: []int{opt.ring}, Qs: []int{opt.q}, Xs: budgets}
	budgetOf := func(pt experiment.GridPoint) float64 { return pt.X }

	start := time.Now()
	var all, secure []experiment.Measurement
	for _, tl := range timelines {
		// Each campaign journals under its own label, so one -checkpoint file
		// holds every campaign's section and each resumes only its own.
		sweepCfg := journal.Apply(cfg, fmt.Sprintf("resilience timeline %s n=%d K=%d q=%d pool=%d",
			tl, opt.sensors, opt.ring, opt.q, pool))
		results, err := experiment.SweepCampaign(ctx, grid, sweepCfg,
			experiment.CampaignSpec{Timeline: tl, Build: build})
		if err != nil {
			return journal.Hint(err)
		}
		sec := experiment.MeanVecMeasurements(results, experiment.CampaignSecureFrac, 1.96,
			budgetOf, fmt.Sprintf("secure %s", tl))
		secure = append(secure, sec...)
		all = append(all, sec...)
		all = append(all, experiment.MeanVecMeasurements(results, experiment.CampaignCompromisedFrac, 1.96,
			budgetOf, fmt.Sprintf("compromised %s", tl))...)
	}

	presented := experiment.PivotSweep(experiment.PivotSpec{
		RowHeaders: []string{"budget"},
		RowCells: func(pt experiment.GridPoint) []string {
			return []string{fmt.Sprintf("%d", int(pt.X))}
		},
		FormatCell: func(m experiment.Measurement) string {
			return fmt.Sprintf("%.4f", m.Y)
		},
	}, all)
	if err := presented.Table.Render(os.Stdout); err != nil {
		return err
	}
	fmt.Printf("\nelapsed: %v\n\n", time.Since(start).Round(time.Millisecond))

	// The chart shows the headline statistic only: the securely connected
	// fraction per campaign (the table above carries the compromise curves).
	secureChart := experiment.PivotSweep(experiment.PivotSpec{
		RowHeaders: []string{"budget"},
		RowCells: func(pt experiment.GridPoint) []string {
			return []string{fmt.Sprintf("%d", int(pt.X))}
		},
	}, secure)
	if err := experiment.RenderChart(os.Stdout, secureChart.Series, experiment.ChartOptions{
		Title:  "Fraction of alive sensors still securely connected vs attack budget",
		XLabel: "attack budget (sensors captured/failed, links jammed, keys revoked)",
		YLabel: "securely connected fraction",
		YMin:   0, YMax: 1,
		Width: 76, Height: 20,
	}); err != nil {
		return err
	}
	fmt.Println("\nReading: 'secure' is the giant component of the uncompromised secure subgraph")
	fmt.Println("over alive sensors; compromise propagates, so keys captured early poison links")
	fmt.Println("counted later. Revocation steps trade liveness for clearing compromise.")

	if opt.csvPath != "" {
		if err := presented.SaveSeriesCSV(opt.csvPath); err != nil {
			return err
		}
		fmt.Printf("wrote %s\n", opt.csvPath)
	}
	return nil
}
