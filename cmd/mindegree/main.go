// Command mindegree validates Lemma 8 (experiment E4): the probability that
// the minimum node degree of G_{n,q} is at least k converges to the same
// limit exp(−e^{−α}/(k−1)!) as k-connectivity, and at finite n it upper
// bounds the k-connectivity probability (minimum degree ≥ k is necessary
// for k-connectivity — the upper-bound half of the paper's proof strategy).
//
// Two modes share the flag surface and presentation:
//
//   - "stream" (default) runs experiment.SweepMinDegree: every trial streams
//     its channel draw through the ring intersector into the degree
//     accumulator — no CSR graph at any n — so the min-degree curve scales to
//     n = 10^6 and beyond, limited by time rather than memory.
//   - "csr" keeps the legacy joint sweep: each trial deploys one full network
//     and measures BOTH min degree and k-connectivity on that topology, so
//     the sample-by-sample ordering (k-connected ⇒ min degree ≥ k) is checked
//     structurally, not just by seed pairing.
//
// Both modes seed per point deterministically, and at equal flags the stream
// mode's min-degree curve is bit-identical to the csr mode's (the streaming
// accumulator is pinned against FullSecureTopology().MinDegree()).
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
	"github.com/secure-wsn/qcomposite/internal/montecarlo"
	"github.com/secure-wsn/qcomposite/internal/rng"
	"github.com/secure-wsn/qcomposite/internal/theory"
	"github.com/secure-wsn/qcomposite/internal/wsn"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "mindegree:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		n        = flag.Int("n", 1000, "number of sensors")
		pool     = flag.Int("pool", 10000, "key pool size P")
		q        = flag.Int("q", 2, "required key overlap")
		pOn      = flag.Float64("p", 0.5, "channel-on probability")
		k        = flag.Int("k", 2, "connectivity / degree level k")
		kMin     = flag.Int("kmin", 38, "smallest ring size K")
		kEnd     = flag.Int("kmax", 58, "largest ring size K")
		kStep    = flag.Int("kstep", 2, "ring size step")
		trials   = flag.Int("trials", 300, "samples per point")
		workers  = flag.Int("workers", 0, "parallel workers (0 = all CPUs)")
		pWorkers = flag.Int("pointworkers", 0, "grid-point shards (0 = points in order on one shared trial pool; results identical either way)")
		seed     = flag.Uint64("seed", 1, "base RNG seed")
		mode     = flag.String("mode", "stream", `"stream" (graph-free min-degree sweep) or "csr" (joint min-degree + k-connectivity cross-check)`)
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

	grid := experiment.Grid{Ks: ks, Qs: []int{*q}, Ps: []float64{*pOn}}
	cfg := journal.Apply(
		experiment.SweepConfig{Trials: *trials, Workers: *workers, PointWorkers: *pWorkers, Seed: *seed},
		fmt.Sprintf("mindegree %s n=%d pool=%d k=%d", *mode, *n, *pool, *k))
	ctx, stop := cmdutil.SignalContext()
	defer stop()
	xOf := func(pt experiment.GridPoint) float64 { return float64(pt.K) }
	start := time.Now()

	var ms []experiment.Measurement
	switch *mode {
	case "stream":
		fmt.Printf("Lemma 8 validation (streaming): P[min degree ≥ %d] vs limit\n", *k)
		fmt.Printf("n=%d, P=%d, q=%d, p=%g, %d trials/point (graph-free: degree accumulator, no CSR at any n)\n\n",
			*n, *pool, *q, *pOn, *trials)
		results, err := experiment.SweepMinDegree(ctx, grid, cfg, *k,
			func(pt experiment.GridPoint) (wsn.Config, error) {
				scheme, err := keys.NewQComposite(*pool, pt.K, pt.Q)
				if err != nil {
					return wsn.Config{}, err
				}
				return wsn.Config{Sensors: *n, Scheme: scheme, Channel: channel.OnOff{P: pt.P}}, nil
			})
		if err != nil {
			return journal.Hint(err)
		}
		ms = experiment.ProportionMeasurements(results, 1.96, xOf,
			func(experiment.GridPoint) string { return fmt.Sprintf("P[min degree >= %d]", *k) })
	case "csr":
		fmt.Printf("Lemma 8 validation: P[min degree ≥ %d] vs P[%d-connected] vs limit\n", *k, *k)
		fmt.Printf("n=%d, P=%d, q=%d, p=%g, %d trials/point (both statistics from one deployment per trial)\n\n",
			*n, *pool, *q, *pOn, *trials)
		results, err := experiment.SweepMeanVec(ctx, grid, cfg, 2,
			func(pt experiment.GridPoint) (montecarlo.SampleVec, error) {
				scheme, err := keys.NewQComposite(*pool, pt.K, pt.Q)
				if err != nil {
					return nil, err
				}
				dp, err := wsn.NewDeployerPool(wsn.Config{
					Sensors: *n,
					Scheme:  scheme,
					Channel: channel.OnOff{P: pt.P},
				})
				if err != nil {
					return nil, err
				}
				return func(trial int, r *rng.Rand) ([]float64, error) {
					d := dp.Get()
					defer dp.Put(d)
					net, err := d.DeployRand(r)
					if err != nil {
						return nil, err
					}
					out := []float64{0, 0}
					if net.FullSecureTopology().MinDegree() >= *k {
						out[0] = 1
					}
					kc, err := net.IsKConnected(*k)
					if err != nil {
						return nil, err
					}
					if kc {
						out[1] = 1
						if out[0] == 0 {
							return nil, fmt.Errorf("K=%d trial %d: k-connected topology with min degree < k", pt.K, trial)
						}
					}
					return out, nil
				}, nil
			})
		if err != nil {
			return journal.Hint(err)
		}
		ms = experiment.MeanVecMeasurements(results, 0, 1.96, xOf,
			fmt.Sprintf("P[min degree >= %d]", *k))
		ms = append(ms, experiment.MeanVecMeasurements(results, 1, 1.96, xOf,
			fmt.Sprintf("P[%d-connected]", *k))...)
	default:
		return fmt.Errorf("unknown -mode %q (want \"stream\" or \"csr\")", *mode)
	}

	// Limit overlay: one row per K, the shared eq. (7)/(76) limit.
	for _, pt := range grid.Points() {
		want, err := theory.KConnProbability(*n, *pool, pt.K, pt.Q, pt.P, *k)
		if err != nil {
			return err
		}
		ms = append(ms, experiment.Measurement{
			Point: pt,
			Curve: "limit (7)=(76)",
			X:     float64(pt.K),
			Y:     want, Lo: want, Hi: want,
		})
	}
	alphaOf := func(ring int) (float64, error) {
		tProb, err := theory.EdgeProb(*pool, ring, *q, *pOn)
		if err != nil {
			return 0, err
		}
		return theory.Alpha(*n, tProb, *k)
	}
	presented := experiment.PivotSweep(experiment.PivotSpec{
		RowHeaders: []string{"K", "alpha"},
		RowCells: func(pt experiment.GridPoint) []string {
			alpha, err := alphaOf(pt.K)
			if err != nil {
				return []string{fmt.Sprintf("%d", pt.K), "?"}
			}
			return []string{fmt.Sprintf("%d", pt.K), fmt.Sprintf("%+.3f", alpha)}
		},
	}, ms)
	if err := presented.Table.Render(os.Stdout); err != nil {
		return err
	}
	fmt.Printf("\nelapsed: %v\n", time.Since(start).Round(time.Millisecond))
	if *mode == "csr" {
		fmt.Printf("(every trial measures both properties on one deployed topology, so\n")
		fmt.Printf(" P[k-connected] ≤ P[min degree ≥ k] holds sample by sample by construction)\n\n")
	} else {
		fmt.Printf("(streaming mode: each trial feeds the channel draw straight into the degree\n")
		fmt.Printf(" accumulator; run -mode=csr for the joint k-connectivity cross-check)\n\n")
	}

	if err := experiment.RenderChart(os.Stdout, presented.Series, experiment.ChartOptions{
		Title:  fmt.Sprintf("Lemma 8: min degree vs %d-connectivity (n=%d)", *k, *n),
		XLabel: "key ring size K",
		YLabel: "probability",
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
