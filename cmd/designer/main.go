// Command designer is the WSN dimensioning tool built on the paper's
// "precise design guideline": given a deployment size n, pool size P,
// overlap requirement q, channel quality p, resilience level k, and a target
// probability, it prints
//
//   - the smallest key ring size K achieving the target k-connectivity
//     probability under Theorem 1 (memory is the scarce resource on
//     sensors, so the minimum K matters);
//   - the empirical P[k-connected] of networks deployed AT that ring size —
//     the design rule validated by simulation, not just by the asymptotic;
//   - the eq. (9) connectivity threshold K* for reference;
//   - the resulting edge probability, expected degree, and α_n.
//
// The validation is the sweepd job of kind "design" (the SweepKConnectivity
// trial: the Grid's Xs axis carries the levels k = 1…kmax and each point
// deploys at its own designed ring size through a reusable
// wsn.DeployerPool), run in process through sweepserve.RunLocal or on a
// server with -server, and the table is assembled by the shared
// Measurement/PivotSweep presenter.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"

	"github.com/secure-wsn/qcomposite/internal/experiment"
	"github.com/secure-wsn/qcomposite/internal/sweepserve"
	"github.com/secure-wsn/qcomposite/internal/theory"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "designer:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		n        = flag.Int("n", 1000, "number of sensors")
		pool     = flag.Int("pool", 10000, "key pool size P")
		q        = flag.Int("q", 2, "required key overlap")
		pOn      = flag.Float64("p", 0.5, "channel-on probability")
		kMax     = flag.Int("kmax", 3, "design for k = 1..kmax")
		target   = flag.Float64("target", 0.99, "target k-connectivity probability")
		trials   = flag.Int("trials", 150, "deployments per level validating the design empirically")
		workers  = flag.Int("workers", 0, "parallel workers (0 = all CPUs)")
		pWorkers = flag.Int("pointworkers", 0, "grid-point shards (0 = sequential points; results identical either way)")
		seed     = flag.Uint64("seed", 1, "base RNG seed")
		csvPath  = flag.String("csv", "", "write table CSV to this path")
		server   = flag.String("server", "", "run the validation sweep on this sweepd server (e.g. http://127.0.0.1:8322) instead of locally; estimates are bit-identical")
	)
	flag.Parse()

	if *target <= 0 || *target >= 1 {
		return fmt.Errorf("target must be in (0,1), got %v", *target)
	}
	if *kMax < 1 {
		return fmt.Errorf("-kmax %d must be ≥ 1", *kMax)
	}

	fmt.Printf("Design guideline for n=%d sensors, P=%d, q=%d, p=%g, target P[k-conn] ≥ %g\n",
		*n, *pool, *q, *pOn, *target)
	fmt.Printf("empirical column: P[k-connected] over %d deployments at the designed K, seed %d\n\n",
		*trials, *seed)

	ringFor := func(k int) (int, error) {
		ring, err := theory.DesignRingSize(*n, *pool, *q, *pOn, k, *target)
		if err != nil {
			return 0, fmt.Errorf("design k=%d: %w", k, err)
		}
		return ring, nil
	}

	// Empirical validation: a sweepd job of kind "design" puts the levels
	// k = 1..kmax on the Xs axis and deploys every level at its own designed
	// ring size. It runs in process, or on the -server (which caches the
	// points for the next caller); either way the grid, the
	// parameter-derived seeds and the trials are the same, so the estimates
	// are bit-identical.
	spec := sweepserve.JobSpec{
		Kind:    sweepserve.KindDesign,
		Sensors: *n,
		Pool:    *pool,
		Trials:  *trials,
		Seed:    *seed,
		Grid:    sweepserve.GridSpec{Qs: []int{*q}, Ps: []float64{*pOn}},
		Target:  *target,
		KMax:    *kMax,
	}
	var results []experiment.ProportionResult
	var err error
	if *server != "" {
		results, err = (&sweepserve.Client{Base: *server}).RunProportion(context.Background(), spec)
	} else {
		results, err = sweepserve.RunLocal(context.Background(), spec, *workers, *pWorkers)
	}
	if err != nil {
		return err
	}

	// One row per level k; every table column is a measurement curve.
	var ms []experiment.Measurement
	addCurve := func(pt experiment.GridPoint, curve string, y float64) {
		ms = append(ms, experiment.Measurement{Point: pt, Curve: curve, X: pt.X, Y: y, Lo: y, Hi: y})
	}
	for _, res := range results {
		pt := res.Point
		k, err := experiment.KOf(pt)
		if err != nil {
			return err
		}
		ring, err := ringFor(k)
		if err != nil {
			return err
		}
		tProb, err := theory.EdgeProb(*pool, ring, *q, *pOn)
		if err != nil {
			return err
		}
		alpha, err := theory.Alpha(*n, tProb, k)
		if err != nil {
			return err
		}
		achieved, err := theory.KConnProbLimit(alpha, k)
		if err != nil {
			return err
		}
		deg := theory.ExpectedDegree(*n, tProb)
		addCurve(pt, "min ring K", float64(ring))
		addCurve(pt, "theory P[k-conn]", achieved)
		lo, hi := res.Value.WilsonInterval(1.96)
		ms = append(ms, experiment.Measurement{
			Point: pt, Curve: "simulated P[k-conn]",
			X: pt.X, Y: res.Value.Estimate(), Lo: lo, Hi: hi,
		})
		addCurve(pt, "alpha", alpha)
		addCurve(pt, "edge prob t", tProb)
		addCurve(pt, "expected degree", deg)
	}
	presented := experiment.PivotSweep(experiment.PivotSpec{
		RowHeaders: []string{"k"},
		RowCells: func(pt experiment.GridPoint) []string {
			return []string{fmt.Sprintf("%d", int(pt.X))}
		},
		FormatCell: func(m experiment.Measurement) string {
			switch m.Curve {
			case "min ring K":
				return fmt.Sprintf("%d", int(m.Y))
			case "alpha":
				return fmt.Sprintf("%+.3f", m.Y)
			case "edge prob t":
				return fmt.Sprintf("%.6f", m.Y)
			case "expected degree":
				return fmt.Sprintf("%.2f", m.Y)
			case "theory P[k-conn]":
				return fmt.Sprintf("%.4f", m.Y)
			}
			return fmt.Sprintf("%.3f", m.Y)
		},
	}, ms)
	if err := presented.Table.Render(os.Stdout); err != nil {
		return err
	}

	exact, err := theory.ThresholdRingSize(*n, *pool, *q, *pOn)
	if err != nil {
		return err
	}
	asym, err := theory.ThresholdRingSizeAsymptotic(*n, *pool, *q, *pOn)
	if err != nil {
		return err
	}
	fmt.Printf("\neq. (9) connectivity threshold K*: exact %d, asymptotic %d\n", exact, asym)
	fmt.Println("(K* puts the network just above the connectivity scaling; the design table targets a probability.)")

	if *csvPath != "" {
		f, err := os.Create(*csvPath)
		if err != nil {
			return fmt.Errorf("create csv: %w", err)
		}
		defer f.Close()
		if err := presented.Table.RenderCSV(f); err != nil {
			return err
		}
		fmt.Printf("\nwrote %s\n", *csvPath)
	}
	return nil
}
