// Command theorem1 validates the asymptotically exact probability of
// Theorem 1 (experiment E3): for k = 1 … kconn it sweeps the key ring size K
// and compares the empirical probability that G_{n,q}(n, K, P, p) is
// k-connected against the closed form exp(−e^{−α_n}/(k−1)!) of eq. (7),
// with α_n computed from the exact edge probability via eq. (6).
//
// The sweep runs through experiment.SweepKConnectivity over the (K × k)
// grid — the Xs axis carries the connectivity levels — with per-point
// deterministic seeding; each trial is a verdict-only deployment through a
// reusable wsn.DeployerPool (zero steady-state allocation: channel sampling,
// any CSR construction and the k-connectivity test all run on
// deployer-owned scratch), stopped as soon as its verdict is decided. With -pointworkers > 0 the grid points themselves shard across
// workers, bit-identically to the sequential run.
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
		fmt.Fprintln(os.Stderr, "theorem1:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		n        = flag.Int("n", 1000, "number of sensors")
		pool     = flag.Int("pool", 10000, "key pool size P")
		q        = flag.Int("q", 2, "required key overlap")
		pOn      = flag.Float64("p", 0.5, "channel-on probability")
		kMax     = flag.Int("kconn", 3, "largest connectivity level k to test")
		kMin     = flag.Int("kmin", 36, "smallest ring size K")
		kEnd     = flag.Int("kmax", 60, "largest ring size K")
		kStep    = flag.Int("kstep", 2, "ring size step")
		trials   = flag.Int("trials", 300, "samples per point")
		workers  = flag.Int("workers", 0, "parallel workers (0 = all CPUs)")
		pWorkers = flag.Int("pointworkers", 0, "grid-point shards (0 = points in order on one shared trial pool; results identical either way)")
		seed     = flag.Uint64("seed", 1, "base RNG seed")
		csvPath  = flag.String("csv", "", "write series CSV to this path")
	)
	journal := cmdutil.RegisterJournal()
	flag.Parse()
	if err := journal.Open(); err != nil {
		return err
	}
	defer journal.Close()

	var ks []int
	for ring := *kMin; ring <= *kEnd; ring += *kStep {
		ks = append(ks, ring)
	}

	fmt.Printf("Theorem 1 validation: empirical vs asymptotic P[k-connected]\n")
	fmt.Printf("n=%d, P=%d, q=%d, p=%g, %d trials/point\n\n", *n, *pool, *q, *pOn, *trials)

	grid := experiment.Grid{Ks: ks, Qs: []int{*q}, Ps: []float64{*pOn}, Xs: experiment.KLevels(*kMax)}
	ctx, stop := cmdutil.SignalContext()
	defer stop()
	start := time.Now()
	results, err := experiment.SweepKConnectivity(ctx, grid,
		journal.Apply(
			experiment.SweepConfig{Trials: *trials, Workers: *workers, PointWorkers: *pWorkers, Seed: *seed},
			fmt.Sprintf("theorem1 n=%d pool=%d", *n, *pool)),
		func(pt experiment.GridPoint) (wsn.Config, error) {
			scheme, err := keys.NewQComposite(*pool, pt.K, pt.Q)
			if err != nil {
				return wsn.Config{}, err
			}
			return wsn.Config{
				Sensors: *n,
				Scheme:  scheme,
				Channel: channel.OnOff{P: pt.P},
			}, nil
		})
	if err != nil {
		return journal.Hint(err)
	}

	// Empirical curves (Wilson CI) plus the eq. (7) theory overlay as extra
	// measurement curves, pivoted into one K-rowed table.
	ms := experiment.KConnMeasurements(results, 1.96)
	for _, pt := range grid.Points() {
		want, err := theory.KConnProbability(*n, *pool, pt.K, pt.Q, pt.P, int(pt.X))
		if err != nil {
			return err
		}
		ms = append(ms, experiment.Measurement{
			Point: pt,
			Curve: fmt.Sprintf("theory k=%d", int(pt.X)),
			X:     float64(pt.K),
			Y:     want, Lo: want, Hi: want,
		})
	}
	presented := experiment.PivotSweep(experiment.PivotSpec{
		RowHeaders: []string{"K"},
		RowCells: func(pt experiment.GridPoint) []string {
			return []string{fmt.Sprintf("%d", pt.K)}
		},
		FormatCell: func(m experiment.Measurement) string {
			if m.Lo == m.Hi {
				return fmt.Sprintf("%.3f", m.Y)
			}
			return fmt.Sprintf("%.3f [%.3f,%.3f]", m.Y, m.Lo, m.Hi)
		},
	}, ms)
	if err := presented.Table.Render(os.Stdout); err != nil {
		return err
	}
	fmt.Printf("\nelapsed: %v\n\n", time.Since(start).Round(time.Millisecond))

	if err := experiment.RenderChart(os.Stdout, presented.Series, experiment.ChartOptions{
		Title:  "Theorem 1: empirical (markers per k) vs theory",
		XLabel: "key ring size K",
		YLabel: "P[k-connected]",
		YMin:   0, YMax: 1,
		Width: 76, Height: 22,
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
