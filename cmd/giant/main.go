// Command giant probes the giant-component phase transition of the secure
// WSN topology (experiment E11; Bloznelis–Jaworski–Rybarczyk, cited as [21]
// in the paper's related work): a linear-size connected component emerges
// once the secure-link probability t exceeds 1/n (mean degree 1), far below
// the ln n / n full-connectivity threshold of eq. (9).
//
// The tool sweeps the key ring size through mean degrees ≈ 0.2 … 4 and
// reports the largest-component fraction, its giant/subcritical shape, and
// the fraction of isolated nodes against the e^{−deg} prediction.
package main

import (
	"context"
	"flag"
	"fmt"
	"math"
	"os"
	"time"

	"github.com/secure-wsn/qcomposite/internal/channel"
	"github.com/secure-wsn/qcomposite/internal/experiment"
	"github.com/secure-wsn/qcomposite/internal/keys"
	"github.com/secure-wsn/qcomposite/internal/theory"
	"github.com/secure-wsn/qcomposite/internal/wsn"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "giant:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		n        = flag.Int("n", 2000, "number of sensors")
		pool     = flag.Int("pool", 20000, "key pool size P")
		q        = flag.Int("q", 2, "required key overlap")
		pOn      = flag.Float64("p", 0.5, "channel-on probability")
		trials   = flag.Int("trials", 100, "samples per point")
		workers  = flag.Int("workers", 0, "parallel workers (0 = all CPUs)")
		pWorkers = flag.Int("pointworkers", 0, "grid-point shards (0 = sequential points; results identical either way)")
		seed     = flag.Uint64("seed", 1, "base RNG seed")
		csvPath  = flag.String("csv", "", "write series CSV to this path")
	)
	flag.Parse()

	fmt.Printf("Giant component emergence in G_{n,%d}(n=%d, K, P=%d, p=%g)\n", *q, *n, *pool, *pOn)
	fmt.Printf("critical point: mean degree n·t = 1 (t = 1/n), %d trials/point\n\n", *trials)

	// Ring sizes giving mean degree ≈ 0.2 … 4.
	var rings []int
	for _, deg := range []float64{0.2, 0.5, 0.8, 1.0, 1.2, 1.5, 2, 3, 4} {
		target := deg / float64(*n)
		ring, err := theory.RingSizeForEdgeProb(*pool, *q, *pOn, target)
		if err != nil {
			return fmt.Errorf("ring for degree %v: %w", deg, err)
		}
		if len(rings) == 0 || ring != rings[len(rings)-1] {
			rings = append(rings, ring)
		}
	}

	ctx := context.Background()
	start := time.Now()

	// One sweep over the K axis measures both statistics on each deployed
	// topology, so no network is ever sampled twice. Giant and isolated
	// fractions are union-find-answerable, so every trial runs on the
	// streaming edge path (no CSR graph is ever built); the per-trial
	// observations equal the old LargestComponentSize/DegreeHistogram
	// measurements bit for bit.
	grid := experiment.Grid{Ks: rings, Qs: []int{*q}, Ps: []float64{*pOn}}
	cfg := experiment.SweepConfig{Trials: *trials, Workers: *workers, PointWorkers: *pWorkers, Seed: *seed}
	results, err := experiment.SweepConnStats(ctx, grid, cfg,
		[]experiment.ConnStat{experiment.ConnStatGiantFraction, experiment.ConnStatIsolatedFraction},
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
		return err
	}
	// Mean secure degree n·t per ring size — both the series' x axis and a
	// leading table column.
	degOf := make(map[int]float64, len(rings))
	for _, ring := range rings {
		tProb, err := theory.EdgeProb(*pool, ring, *q, *pOn)
		if err != nil {
			return err
		}
		degOf[ring] = float64(*n) * tProb
	}
	xDeg := func(pt experiment.GridPoint) float64 { return degOf[pt.K] }
	// Two measured curves from the paired SampleVec components, plus the
	// e^{-deg} isolated-node prediction as a third (theory-only) curve.
	ms := experiment.MeanVecMeasurements(results, 0, 0, xDeg, "largest component fraction")
	ms = append(ms, experiment.MeanVecMeasurements(results, 1, 0, xDeg, "isolated fraction")...)
	for _, res := range results {
		deg := degOf[res.Point.K]
		pred := math.Exp(-deg)
		ms = append(ms, experiment.Measurement{
			Point: res.Point, Curve: "e^{-deg} (isolated prediction)",
			X: deg, Y: pred, Lo: pred, Hi: pred,
		})
	}
	presented := experiment.PivotSweep(experiment.PivotSpec{
		RowHeaders: []string{"K", "mean degree n·t"},
		RowCells: func(pt experiment.GridPoint) []string {
			return []string{fmt.Sprintf("%d", pt.K), fmt.Sprintf("%.2f", degOf[pt.K])}
		},
		FormatCell: func(m experiment.Measurement) string { return fmt.Sprintf("%.4f", m.Y) },
	}, ms)
	if err := presented.Table.Render(os.Stdout); err != nil {
		return err
	}
	fmt.Printf("\nelapsed: %v\n\n", time.Since(start).Round(time.Millisecond))

	if err := experiment.RenderChart(os.Stdout,
		presented.Series, experiment.ChartOptions{
			Title:  "Giant component and isolated nodes vs mean secure degree",
			XLabel: "mean degree n·t",
			YLabel: "fraction of n",
			YMin:   0, YMax: 1,
			Width: 72, Height: 18,
		}); err != nil {
		return err
	}
	fmt.Println("\nReading: the largest-component fraction lifts off at mean degree ≈ 1")
	fmt.Println("(the [21] threshold s > 1/n at p·s = t), while full connectivity waits for")
	fmt.Println("mean degree ≈ ln n — the gap the paper's eq. (9) rule bridges.")

	if *csvPath != "" {
		if err := presented.SaveSeriesCSV(*csvPath); err != nil {
			return err
		}
		fmt.Printf("wrote %s\n", *csvPath)
	}
	return nil
}
