// Command figure1 reproduces Figure 1 of the paper (experiment E1): the
// empirical probability that G_{n,q}(n, K, P, p) is connected as a function
// of the key ring size K, for q ∈ {2, 3} and p ∈ {0.2, 0.5, 1} with
// n = 1000 and P = 10000, each point averaged over 500 independent sampled
// topologies. It also prints the eq. (9) thresholds K* next to each curve
// (both the exact and the asymptotic computation; the paper's published
// values track the asymptotic one).
//
// Output: an aligned table, a terminal ASCII rendering of the figure, and
// optional CSV (-csv) for external plotting.
//
// The sweep runs through experiment.SweepConnectivity over the (K, q, p)
// grid with per-point deterministic seeding. Connectivity is
// union-find-answerable, so every trial runs on the streaming edge path:
// rings are assigned, the channel draw is streamed edge by edge through the
// ring intersector into a union-find and degree counters, and the draw
// stops as soon as one component remains or a sensor the draw has passed
// is still isolated — no CSR graph, edge list or link key is ever
// materialized. Estimates are bit-identical to the previous CSR sweep.
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
		fmt.Fprintln(os.Stderr, "figure1:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		n        = flag.Int("n", 1000, "number of sensors")
		pool     = flag.Int("pool", 10000, "key pool size P")
		kMin     = flag.Int("kmin", 28, "smallest key ring size K")
		kMax     = flag.Int("kmax", 88, "largest key ring size K")
		kStep    = flag.Int("kstep", 4, "key ring size step")
		trials   = flag.Int("trials", 500, "samples per point (paper: 500)")
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

	type curve struct {
		q int
		p float64
	}
	qs := []int{2, 3}
	ps := []float64{1, 0.5, 0.2}
	curves := make([]curve, 0, len(qs)*len(ps))
	for _, q := range qs {
		for _, p := range ps {
			curves = append(curves, curve{q: q, p: p})
		}
	}
	var ks []int
	for k := *kMin; k <= *kMax; k += *kStep {
		ks = append(ks, k)
	}

	fmt.Printf("Figure 1 reproduction: P[G_{n,q}(n=%d, K, P=%d, p) is connected] vs K\n", *n, *pool)
	fmt.Printf("%d trials/point, seed %d\n\n", *trials, *seed)

	ctx, stop := cmdutil.SignalContext()
	defer stop()
	start := time.Now()
	results, err := experiment.SweepConnectivity(ctx,
		experiment.Grid{Ks: ks, Qs: qs, Ps: ps},
		journal.Apply(
			experiment.SweepConfig{Trials: *trials, Workers: *workers, PointWorkers: *pWorkers, Seed: *seed},
			fmt.Sprintf("figure1 n=%d pool=%d", *n, *pool)),
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
	// Pivot: one row per K, one column/series per (q, p) curve. The grid
	// enumerates (K, q, p) row-major, so curves appear in (q, p) order.
	presented := experiment.PivotSweep(experiment.PivotSpec{
		RowHeaders: []string{"K"},
		RowCells: func(pt experiment.GridPoint) []string {
			return []string{fmt.Sprintf("%d", pt.K)}
		},
	}, experiment.ProportionMeasurements(results, 1.96,
		func(pt experiment.GridPoint) float64 { return float64(pt.K) },
		func(pt experiment.GridPoint) string { return fmt.Sprintf("q=%d, p=%g", pt.Q, pt.P) },
	))
	if err := presented.Table.Render(os.Stdout); err != nil {
		return err
	}
	fmt.Printf("\nelapsed: %v\n\n", time.Since(start).Round(time.Millisecond))

	if err := experiment.RenderChart(os.Stdout, presented.Series, experiment.ChartOptions{
		Title:  fmt.Sprintf("Empirical probability of connectivity (n=%d, P=%d, %d trials)", *n, *pool, *trials),
		XLabel: "key ring size K",
		YLabel: "P[connected]",
		YMin:   0, YMax: 1,
		Width: 76, Height: 22,
	}); err != nil {
		return err
	}

	fmt.Println("\neq. (9) thresholds K* (exact | asymptotic; paper prints 35, 41, 52, 60, 67, 78):")
	for _, c := range curves {
		exact, err := theory.ThresholdRingSize(*n, *pool, c.q, c.p)
		if err != nil {
			return err
		}
		asym, err := theory.ThresholdRingSizeAsymptotic(*n, *pool, c.q, c.p)
		if err != nil {
			return err
		}
		fmt.Printf("  q=%d, p=%-4g  K* = %d | %d\n", c.q, c.p, exact, asym)
	}

	if *csvPath != "" {
		if err := presented.SaveSeriesCSV(*csvPath); err != nil {
			return err
		}
		fmt.Printf("\nwrote %s\n", *csvPath)
	}
	return nil
}
