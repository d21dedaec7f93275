// Command hetero reproduces the zero–one connectivity transition of the
// heterogeneous key predistribution scheme under on/off channels (Eletreby
// and Yağan, arXiv:1604.00460; heterogeneous channels per arXiv:1908.09826):
// sensors independently join the small-ring class with probability μ (ring
// K₁) or the large-ring class otherwise (ring K₂), all drawing from one
// P-key pool. Sweeping K₁ drives the minimal-class mean edge probability
// λ_min through the (ln n)/n threshold, and the empirical probability of
// connectivity must transition from 0 to 1 tracking the exp(−e^{−β}) limit,
// where λ_min = (ln n + β)/n.
//
// The sweep runs over a (K₁ × μ) grid through experiment.SweepConnectivity
// with per-point deterministic seeding; each trial streams one class-aware
// deployment (keys.Heterogeneous + channel.HeterOnOff) through a reusable
// wsn.DeployerPool until its connectivity verdict is decided. The per-class on/off matrix defaults to uniform p; set
// -p12/-p22 to exercise the heterogeneous channel model.
//
// With -kconn k ≥ 1 the tool switches to the heterogeneous k-connectivity
// study of arXiv:1604.00460 §IV instead: the mixing probability is fixed
// (-mu) and the Grid's Xs axis carries the connectivity levels 1…k through
// experiment.SweepKConnectivity (the cross-sweep path), with the level-k
// limit exp(−e^{−β_k}/(k−1)!) as the theory overlay per curve.
package main

import (
	"flag"
	"fmt"
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
		fmt.Fprintln(os.Stderr, "hetero:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		n        = flag.Int("n", 500, "number of sensors")
		pool     = flag.Int("pool", 10000, "key pool size P")
		q        = flag.Int("q", 1, "required key overlap (1 = heterogeneous Eschenauer–Gligor)")
		k1Min    = flag.Int("k1min", 1, "smallest class-1 ring size K1")
		k1Max    = flag.Int("k1max", 25, "largest class-1 ring size K1")
		k1Step   = flag.Int("k1step", 2, "class-1 ring size step")
		k2       = flag.Int("k2", 120, "class-2 (large) ring size K2")
		muList   = flag.String("mus", "0.2,0.5,0.8", "comma-separated class-1 mixing probabilities μ")
		kConn    = flag.Int("kconn", 0, "run the k-connectivity study for k = 1..kconn at fixed -mu (0 = zero–one connectivity mode)")
		mu       = flag.Float64("mu", 0.5, "class-1 mixing probability of the -kconn study")
		p11      = flag.Float64("p", 0.5, "channel-on probability for class-1↔class-1 pairs (and default for the rest)")
		p12      = flag.Float64("p12", -1, "channel-on probability for class-1↔class-2 pairs (-1 = same as -p)")
		p22      = flag.Float64("p22", -1, "channel-on probability for class-2↔class-2 pairs (-1 = same as -p)")
		trials   = flag.Int("trials", 200, "samples per point")
		workers  = flag.Int("workers", 0, "parallel workers (0 = all CPUs)")
		pWorkers = flag.Int("pointworkers", 0, "grid-point shards (0 = sequential points; results identical either way)")
		seed     = flag.Uint64("seed", 1, "base RNG seed")
		csvPath  = flag.String("csv", "", "write series CSV to this path")
	)
	journal := cmdutil.RegisterJournal()
	flag.Parse()
	if err := journal.Open(); err != nil {
		return err
	}
	defer journal.Close()

	if *p12 < 0 {
		*p12 = *p11
	}
	if *p22 < 0 {
		*p22 = *p11
	}
	pOn := [][]float64{{*p11, *p12}, {*p12, *p22}}
	ch := channel.HeterOnOff{P: pOn}

	mus, err := cmdutil.ParseList[float64]("mus", *muList)
	if err != nil {
		return err
	}
	for _, mu := range mus {
		if mu <= 0 || mu >= 1 {
			return fmt.Errorf("μ=%v must lie strictly in (0,1): two classes need positive mass each", mu)
		}
	}
	if *k1Step < 1 {
		return fmt.Errorf("-k1step %d must be ≥ 1", *k1Step)
	}
	var k1s []int
	for k := *k1Min; k <= *k1Max; k += *k1Step {
		k1s = append(k1s, k)
	}

	classesFor := func(mu float64, k1 int) []keys.Class {
		return []keys.Class{{Mu: mu, RingSize: k1}, {Mu: 1 - mu, RingSize: *k2}}
	}

	if *kConn > 0 {
		if *mu <= 0 || *mu >= 1 {
			return fmt.Errorf("-mu %v must lie strictly in (0,1): two classes need positive mass each", *mu)
		}
		return runKConn(kconnStudy{
			n: *n, pool: *pool, q: *q, k2: *k2, kMax: *kConn, mu: *mu,
			k1s: k1s, ch: ch, pOn: pOn, classesFor: classesFor,
			trials: *trials, workers: *workers, pointWorkers: *pWorkers,
			seed: *seed, csvPath: *csvPath, journal: journal,
		})
	}

	fmt.Printf("Heterogeneous zero–one law (Eletreby–Yağan): P[connected] vs class-1 ring size K1\n")
	fmt.Printf("n=%d, P=%d, q=%d, K2=%d, channel p=[%g %g; %g %g], %d trials/point, seed %d\n\n",
		*n, *pool, *q, *k2, *p11, *p12, *p12, *p22, *trials, *seed)

	grid := experiment.Grid{Ks: k1s, Qs: []int{*q}, Ps: []float64{*p11}, Xs: mus}
	cfg := journal.Apply(
		experiment.SweepConfig{Trials: *trials, Workers: *workers, PointWorkers: *pWorkers, Seed: *seed},
		fmt.Sprintf("hetero zero-one n=%d pool=%d k2=%d p=[%g %g %g]", *n, *pool, *k2, *p11, *p12, *p22))
	ctx, stop := cmdutil.SignalContext()
	defer stop()
	start := time.Now()
	results, err := experiment.SweepConnectivity(ctx, grid, cfg,
		func(pt experiment.GridPoint) (wsn.Config, error) {
			scheme, err := keys.NewHeterogeneous(*pool, pt.Q, classesFor(pt.X, pt.K))
			if err != nil {
				return wsn.Config{}, err
			}
			return wsn.Config{Sensors: *n, Scheme: scheme, Channel: ch}, nil
		})
	if err != nil {
		return journal.Hint(err)
	}

	// Empirical curves from the sweep plus the exp(−e^{−β}) limit of
	// Theorem 1 as theory-only curves on the same x axis.
	ms := experiment.ProportionMeasurements(results, 1.96,
		func(pt experiment.GridPoint) float64 { return float64(pt.K) },
		func(pt experiment.GridPoint) string { return fmt.Sprintf("μ=%g", pt.X) },
	)
	for _, res := range results {
		pt := res.Point
		lambdaMin, err := theory.HeteroMinLambda(*pool, pt.Q, classesFor(pt.X, pt.K), pOn)
		if err != nil {
			return err
		}
		beta, err := theory.HeteroBeta(*n, lambdaMin)
		if err != nil {
			return err
		}
		limit := theory.HeteroConnProbLimit(beta)
		ms = append(ms, experiment.Measurement{
			Point: pt, Curve: fmt.Sprintf("limit μ=%g", pt.X),
			X: float64(pt.K), Y: limit, Lo: limit, Hi: limit,
		})
	}
	presented := experiment.PivotSweep(experiment.PivotSpec{
		RowHeaders: []string{"K1"},
		RowCells: func(pt experiment.GridPoint) []string {
			return []string{fmt.Sprintf("%d", pt.K)}
		},
	}, ms)
	if err := presented.Table.Render(os.Stdout); err != nil {
		return err
	}
	fmt.Printf("\nelapsed: %v\n\n", time.Since(start).Round(time.Millisecond))

	if err := experiment.RenderChart(os.Stdout, presented.Series, experiment.ChartOptions{
		Title: fmt.Sprintf("Heterogeneous zero–one transition (n=%d, P=%d, K2=%d, %d trials)",
			*n, *pool, *k2, *trials),
		XLabel: "class-1 ring size K1",
		YLabel: "P[connected]",
		YMin:   0, YMax: 1,
		Width: 76, Height: 22,
	}); err != nil {
		return err
	}

	fmt.Println("\nconnectivity-threshold K1* (smallest K1 with λ_min > ln n / n):")
	for _, mu := range mus {
		// The K1 in classesFor is a placeholder: HeteroThresholdRingSize
		// searches class 0's ring size and overwrites it.
		kStar, err := theory.HeteroThresholdRingSize(*n, *pool, *q, classesFor(mu, *k1Min), pOn, 0)
		if err != nil {
			return err
		}
		fmt.Printf("  μ=%-5g K1* = %d\n", mu, kStar)
	}
	fmt.Println("\nReading: the transition sharpens around K1*, where the minimal (small-ring)")
	fmt.Println("class crosses the (ln n)/n mean-edge-probability threshold — the class-1")
	fmt.Println("bottleneck of Eletreby–Yağan Theorem 1. Larger μ puts more sensors in the")
	fmt.Println("small class, but the threshold is driven by λ_min, so the curves cluster.")

	if *csvPath != "" {
		if err := presented.SaveSeriesCSV(*csvPath); err != nil {
			return err
		}
		fmt.Printf("\nwrote %s\n", *csvPath)
	}
	return nil
}

// kconnStudy carries the resolved parameters of the -kconn mode.
type kconnStudy struct {
	n, pool, q, k2, kMax  int
	mu                    float64
	k1s                   []int
	ch                    channel.HeterOnOff
	pOn                   [][]float64
	classesFor            func(mu float64, k1 int) []keys.Class
	trials                int
	workers, pointWorkers int
	seed                  uint64
	csvPath               string
	journal               *cmdutil.Journal
}

// runKConn is the heterogeneous k-connectivity study (arXiv:1604.00460 §IV):
// P[k-connected] vs the class-1 ring size K1 for k = 1…kMax at fixed μ,
// swept through the cross-sweep path (the Xs axis carries the connectivity
// levels) with the level-k Poisson limit as theory overlay.
func runKConn(s kconnStudy) error {
	fmt.Printf("Heterogeneous k-connectivity (Eletreby–Yağan §IV): P[k-connected] vs class-1 ring size K1\n")
	fmt.Printf("n=%d, P=%d, q=%d, K2=%d, μ=%g, k = 1..%d, %d trials/point, seed %d\n\n",
		s.n, s.pool, s.q, s.k2, s.mu, s.kMax, s.trials, s.seed)

	grid := experiment.Grid{Ks: s.k1s, Qs: []int{s.q}, Xs: experiment.KLevels(s.kMax)}
	cfg := s.journal.Apply(
		experiment.SweepConfig{Trials: s.trials, Workers: s.workers, PointWorkers: s.pointWorkers, Seed: s.seed},
		fmt.Sprintf("hetero kconn n=%d pool=%d k2=%d mu=%g", s.n, s.pool, s.k2, s.mu))
	ctx, stop := cmdutil.SignalContext()
	defer stop()
	start := time.Now()
	results, err := experiment.SweepKConnectivity(ctx, grid, cfg,
		func(pt experiment.GridPoint) (wsn.Config, error) {
			scheme, err := keys.NewHeterogeneous(s.pool, pt.Q, s.classesFor(s.mu, pt.K))
			if err != nil {
				return wsn.Config{}, err
			}
			return wsn.Config{Sensors: s.n, Scheme: scheme, Channel: s.ch}, nil
		})
	if err != nil {
		return s.journal.Hint(err)
	}

	ms := experiment.KConnMeasurements(results, 1.96)
	for _, pt := range grid.Points() {
		k, err := experiment.KOf(pt)
		if err != nil {
			return err
		}
		limit, err := theory.HeteroKConnProbability(s.n, s.pool, pt.Q, s.classesFor(s.mu, pt.K), s.pOn, k)
		if err != nil {
			return err
		}
		ms = append(ms, experiment.Measurement{
			Point: pt, Curve: fmt.Sprintf("limit k=%d", k),
			X: float64(pt.K), Y: limit, Lo: limit, Hi: limit,
		})
	}
	presented := experiment.PivotSweep(experiment.PivotSpec{
		RowHeaders: []string{"K1"},
		RowCells: func(pt experiment.GridPoint) []string {
			return []string{fmt.Sprintf("%d", pt.K)}
		},
	}, ms)
	if err := presented.Table.Render(os.Stdout); err != nil {
		return err
	}
	fmt.Printf("\nelapsed: %v\n\n", time.Since(start).Round(time.Millisecond))

	if err := experiment.RenderChart(os.Stdout, presented.Series, experiment.ChartOptions{
		Title: fmt.Sprintf("Heterogeneous k-connectivity (n=%d, P=%d, K2=%d, μ=%g, %d trials)",
			s.n, s.pool, s.k2, s.mu, s.trials),
		XLabel: "class-1 ring size K1",
		YLabel: "P[k-connected]",
		YMin:   0, YMax: 1,
		Width: 76, Height: 22,
	}); err != nil {
		return err
	}

	fmt.Println("\nReading: each level's transition tracks the exp(−e^{−β_k}/(k−1)!) limit with")
	fmt.Println("β_k = n·λ_min − ln n − (k−1)·ln ln n — higher k shifts the threshold right by")
	fmt.Println("ln ln n per level, all still driven by the minimal (small-ring) class.")

	if s.csvPath != "" {
		if err := presented.SaveSeriesCSV(s.csvPath); err != nil {
			return err
		}
		fmt.Printf("\nwrote %s\n", s.csvPath)
	}
	return nil
}
