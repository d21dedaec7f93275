package stattest

// Statistical validation of the simulator against internal/theory at fixed
// seeds: the zero–one plateau of a figure1-style connectivity sweep, the
// heterogeneous Theorem 1 limit, and — the exact, bias-detecting teeth —
// chi-square/z checks of fixed-pair secure-link frequencies against the
// closed-form edge probabilities (which hold exactly at finite n, unlike
// the asymptotic connectivity limits). All sweeps run through the
// experiment engine on wsn.DeployerPools, so a regression anywhere in the
// sampling stack (key assignment, channel marginals, class mixing,
// discovery) shifts these proportions and fails the gates.
//
// CI runs the small-budget variants on every push; the large-budget variant
// is skipped under -short.

import (
	"context"
	"fmt"
	"math"
	"testing"

	"github.com/secure-wsn/qcomposite/internal/channel"
	"github.com/secure-wsn/qcomposite/internal/experiment"
	"github.com/secure-wsn/qcomposite/internal/keys"
	"github.com/secure-wsn/qcomposite/internal/montecarlo"
	"github.com/secure-wsn/qcomposite/internal/rng"
	"github.com/secure-wsn/qcomposite/internal/stats"
	"github.com/secure-wsn/qcomposite/internal/theory"
	"github.com/secure-wsn/qcomposite/internal/wsn"
)

// connectivityTrial adapts a deployment config into a connectivity trial on
// a per-point DeployerPool.
func connectivityTrial(cfg wsn.Config) (montecarlo.Trial, error) {
	dp, err := wsn.NewDeployerPool(cfg)
	if err != nil {
		return nil, err
	}
	return func(trial int, r *rng.Rand) (bool, error) {
		d := dp.Get()
		defer dp.Put(d)
		net, err := d.DeployRand(r)
		if err != nil {
			return false, err
		}
		return net.IsConnected()
	}, nil
}

// pairLinkTrial adapts a deployment config into a "sensors 0 and 1 share a
// secure usable link" trial — the indicator whose success probability
// internal/theory predicts EXACTLY at finite n, making it the sharp bias
// detector of this suite.
func pairLinkTrial(cfg wsn.Config) (montecarlo.Trial, error) {
	dp, err := wsn.NewDeployerPool(cfg)
	if err != nil {
		return nil, err
	}
	return func(trial int, r *rng.Rand) (bool, error) {
		d := dp.Get()
		defer dp.Put(d)
		net, err := d.DeployRand(r)
		if err != nil {
			return false, err
		}
		return net.FullSecureTopology().HasEdge(0, 1), nil
	}, nil
}

// TestFigure1ZeroOnePlateauAgainstTheory pins the zero–one plateau of a
// figure1-style connectivity sweep: ring sizes chosen well below and well
// above the eq. (9) threshold must reproduce the Theorem 1 endpoints 0 and
// 1 within plateau tolerance. Small-budget variant, always run in CI.
func TestFigure1ZeroOnePlateauAgainstTheory(t *testing.T) {
	const (
		n      = 300
		pool   = 3000
		q      = 2
		pOn    = 0.5
		trials = 120
	)
	grid := experiment.Grid{Ks: []int{14, 18, 44, 52}, Qs: []int{q}, Ps: []float64{pOn}}
	results, err := experiment.SweepProportion(context.Background(), grid,
		experiment.SweepConfig{Trials: trials, Workers: 4, Seed: 20250730},
		func(pt experiment.GridPoint) (montecarlo.Trial, error) {
			scheme, err := keys.NewQComposite(pool, pt.K, pt.Q)
			if err != nil {
				return nil, err
			}
			return connectivityTrial(wsn.Config{Sensors: n, Scheme: scheme, Channel: channel.OnOff{P: pt.P}})
		})
	if err != nil {
		t.Fatal(err)
	}
	var obs []Observation
	for _, res := range results {
		pt := res.Point
		tProb, err := theory.EdgeProb(pool, pt.K, pt.Q, pt.P)
		if err != nil {
			t.Fatal(err)
		}
		alpha, err := theory.Alpha(n, tProb, 1)
		if err != nil {
			t.Fatal(err)
		}
		pred, err := theory.KConnProbLimit(alpha, 1)
		if err != nil {
			t.Fatal(err)
		}
		if pred > 0.005 && pred < 0.995 {
			t.Fatalf("K=%d prediction %v is not a plateau point; pick ring sizes further from the threshold", pt.K, pred)
		}
		obs = append(obs, Observation{
			Name:      fmt.Sprintf("figure1 K=%d", pt.K),
			Predicted: pred,
			Observed:  res.Value,
		})
	}
	rep, err := Compare(obs, Config{PlateauTol: 0.05})
	if err != nil {
		t.Fatal(err)
	}
	rep.Check(t)
}

// TestTheorem1KConnPlateauAgainstTheory extends the plateau gate from
// connectivity to the paper's main result, k-connectivity: ring sizes well
// below and well above the k = 2 and k = 3 thresholds, swept through
// SweepKConnectivity on CSR deployments, must reproduce the Theorem 1
// endpoints exp(−e^{−α}/(k−1)!) ≈ 0 and 1 within plateau tolerance.
// Small-budget variant, always run in CI.
func TestTheorem1KConnPlateauAgainstTheory(t *testing.T) {
	const (
		n      = 300
		pool   = 3000
		q      = 2
		pOn    = 0.5
		trials = 120
	)
	grid := experiment.Grid{Ks: []int{18, 24, 44, 52}, Qs: []int{q}, Ps: []float64{pOn}, Xs: []float64{2, 3}}
	results, err := experiment.SweepKConnectivity(context.Background(), grid,
		experiment.SweepConfig{Trials: trials, Workers: 4, Seed: 20261016},
		func(pt experiment.GridPoint) (wsn.Config, error) {
			scheme, err := keys.NewQComposite(pool, pt.K, pt.Q)
			if err != nil {
				return wsn.Config{}, err
			}
			return wsn.Config{Sensors: n, Scheme: scheme, Channel: channel.OnOff{P: pt.P}}, nil
		})
	if err != nil {
		t.Fatal(err)
	}
	var obs []Observation
	for _, res := range results {
		pt := res.Point
		k, err := experiment.KOf(pt)
		if err != nil {
			t.Fatal(err)
		}
		pred, err := theory.KConnProbability(n, pool, pt.K, pt.Q, pt.P, k)
		if err != nil {
			t.Fatal(err)
		}
		if pred > 0.005 && pred < 0.995 {
			t.Fatalf("k=%d K=%d prediction %v is not a plateau point; pick ring sizes further from the threshold", k, pt.K, pred)
		}
		obs = append(obs, Observation{
			Name:      fmt.Sprintf("theorem1 k=%d K=%d", k, pt.K),
			Predicted: pred,
			Observed:  res.Value,
		})
	}
	rep, err := Compare(obs, Config{PlateauTol: 0.05})
	if err != nil {
		t.Fatal(err)
	}
	rep.Check(t)
}

// figure1InteriorSweep runs the transition-interior slice of the figure1
// connectivity curve (n = 300, P = 3000, q = 2, p = 0.5; ring sizes on the
// steep part where the predicted probability is well inside (0, 1)) on the
// streaming edge path and zips it with the Theorem 1 predictions. The
// interior is where the curve is steepest, so these points are maximally
// sensitive to sampler bias — a plateau check cannot see a shifted
// threshold; an interior z can. Trials run through
// experiment.SweepConnectivity, so this also gates the streaming pipeline
// end to end against theory, not just against the CSR path.
func figure1InteriorSweep(t *testing.T, trials int, seed uint64) []Observation {
	t.Helper()
	const (
		n    = 300
		pool = 3000
		q    = 2
		pOn  = 0.5
	)
	grid := experiment.Grid{Ks: []int{30, 32, 34}, Qs: []int{q}, Ps: []float64{pOn}}
	results, err := experiment.SweepConnectivity(context.Background(), grid,
		experiment.SweepConfig{Trials: trials, Workers: 4, Seed: seed},
		func(pt experiment.GridPoint) (wsn.Config, error) {
			scheme, err := keys.NewQComposite(pool, pt.K, pt.Q)
			if err != nil {
				return wsn.Config{}, err
			}
			return wsn.Config{Sensors: n, Scheme: scheme, Channel: channel.OnOff{P: pt.P}}, nil
		})
	if err != nil {
		t.Fatal(err)
	}
	var obs []Observation
	for _, res := range results {
		pt := res.Point
		tProb, err := theory.EdgeProb(pool, pt.K, pt.Q, pt.P)
		if err != nil {
			t.Fatal(err)
		}
		alpha, err := theory.Alpha(n, tProb, 1)
		if err != nil {
			t.Fatal(err)
		}
		pred, err := theory.KConnProbLimit(alpha, 1)
		if err != nil {
			t.Fatal(err)
		}
		if pred < 0.05 || pred > 0.97 {
			t.Fatalf("K=%d prediction %v is not transition-interior; move the ring sizes onto the steep part", pt.K, pred)
		}
		obs = append(obs, Observation{
			Name:      fmt.Sprintf("figure1 interior K=%d", pt.K),
			Predicted: pred,
			Observed:  res.Value,
		})
	}
	return obs
}

// TestFigure1InteriorPointsAgainstTheory is the interior complement of the
// plateau check above: transition-interior connectivity proportions z-tested
// and chi-square-pooled against the Theorem 1 limit. Calibration at 4000
// trials measured the finite-n gap |est − pred| ≤ 0.009 across these points
// (the asymptotic limit is that sharp at n = 300 already), so the default
// gates carry ≥ 2× margin at this budget. Small-budget variant, always run
// in CI.
func TestFigure1InteriorPointsAgainstTheory(t *testing.T) {
	obs := figure1InteriorSweep(t, 250, 20250807)
	rep, err := Compare(obs, Config{})
	if err != nil {
		t.Fatal(err)
	}
	rep.Check(t)
	if rep.DF != len(obs) {
		t.Errorf("expected all %d interior points to feed the pooled χ², got DF = %d", len(obs), rep.DF)
	}
}

// TestFigure1InteriorChiSquareLargeBudget is the high-power variant: 4000
// streaming trials per point shrink the standard errors 4×, so threshold
// shifts of half a ring size become visible. At this budget the measured
// z-scores are (+1.2, +1.1, +2.1) — systematic finite-n gap plus sampling
// noise — against the ±4 per-point gate and a pooled χ² of ≈ 7.1 against
// the 16.3 critical value: ≈ 2× margin on both gates. Skipped under -short;
// CI's plain `go test ./...` runs it.
func TestFigure1InteriorChiSquareLargeBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("large-budget statistical validation skipped in -short mode")
	}
	obs := figure1InteriorSweep(t, 4000, 31337)
	rep, err := Compare(obs, Config{})
	if err != nil {
		t.Fatal(err)
	}
	rep.Check(t)
	if rep.DF != len(obs) {
		t.Errorf("expected all %d interior points to feed the pooled χ², got DF = %d", len(obs), rep.DF)
	}
}

// TestLargeNInteriorAgainstTheory is the nightly-scale gate: n = 10⁴
// deployments — 33× the other connectivity checks — through the streaming
// edge pipeline, at channel probabilities p_α = (ln n + α)/(n·s) chosen so
// the scaling parameter α lands at −1, 0, +1 and the Theorem 1 limit
// exp(−e^{−α}) sits deep in the transition interior (≈ 0.066, 0.368,
// 0.692). At this n the finite-size gap to the asymptotic limit is well
// under one standard error at 400 trials, so the per-point z gate tightens
// from the default 4 to 3 — a sampler bias that hides inside the loose
// small-n gates has to survive a 33× larger graph AND a tighter gate here.
// Exercises the kernelized geometric sampler in its bulk-skip regime
// (p ≈ 1.5×10⁻³, mean skip ≈ 645 slots). Skipped under -short; CI's plain
// `go test ./...` runs it.
func TestLargeNInteriorAgainstTheory(t *testing.T) {
	if testing.Short() {
		t.Skip("large-n statistical validation skipped in -short mode")
	}
	const (
		n      = 10_000
		pool   = 512
		ring   = 32
		q      = 2
		trials = 400
	)
	// s = P[two rings share ≥ q keys]: the key half of the edge probability,
	// so p_α·s reproduces t_α = (ln n + α)/n exactly.
	s, err := theory.EdgeProb(pool, ring, q, 1)
	if err != nil {
		t.Fatal(err)
	}
	var ps []float64
	for _, alpha := range []float64{-1, 0, 1} {
		ps = append(ps, (math.Log(n)+alpha)/(float64(n)*s))
	}
	grid := experiment.Grid{Ks: []int{ring}, Qs: []int{q}, Ps: ps}
	results, err := experiment.SweepConnectivity(context.Background(), grid,
		experiment.SweepConfig{Trials: trials, Workers: 0, Seed: 20260807},
		func(pt experiment.GridPoint) (wsn.Config, error) {
			scheme, err := keys.NewQComposite(pool, pt.K, pt.Q)
			if err != nil {
				return wsn.Config{}, err
			}
			return wsn.Config{Sensors: n, Scheme: scheme, Channel: channel.OnOff{P: pt.P}}, nil
		})
	if err != nil {
		t.Fatal(err)
	}
	var obs []Observation
	for _, res := range results {
		pt := res.Point
		tProb, err := theory.EdgeProb(pool, pt.K, pt.Q, pt.P)
		if err != nil {
			t.Fatal(err)
		}
		alpha, err := theory.Alpha(n, tProb, 1)
		if err != nil {
			t.Fatal(err)
		}
		pred, err := theory.KConnProbLimit(alpha, 1)
		if err != nil {
			t.Fatal(err)
		}
		if pred < 0.05 || pred > 0.97 {
			t.Fatalf("p=%g prediction %v is not transition-interior; re-derive the p_α schedule", pt.P, pred)
		}
		obs = append(obs, Observation{
			Name:      fmt.Sprintf("large-n interior alpha=%+.0f", alpha),
			Predicted: pred,
			Observed:  res.Value,
		})
	}
	rep, err := Compare(obs, Config{MaxAbsZ: 3})
	if err != nil {
		t.Fatal(err)
	}
	rep.Check(t)
	if rep.DF != len(obs) {
		t.Errorf("expected all %d interior points to feed the pooled χ², got DF = %d", len(obs), rep.DF)
	}
}

// TestHeteroTheorem1LimitPlateau pins the heterogeneous zero–one law
// (Eletreby–Yağan Theorem 1): class-1 ring sizes putting λ_min well below
// and well above (ln n)/n must reproduce the exp(−e^{−β}) endpoints within
// plateau tolerance, under a non-uniform per-class-pair channel matrix.
// Small-budget variant, always run in CI.
func TestHeteroTheorem1LimitPlateau(t *testing.T) {
	const (
		n      = 300
		pool   = 2000
		q      = 1
		mu     = 0.5
		k2     = 40
		trials = 100
	)
	pOn := [][]float64{{0.6, 0.6}, {0.6, 0.6}}
	classesFor := func(k1 int) []keys.Class {
		return []keys.Class{{Mu: mu, RingSize: k1}, {Mu: 1 - mu, RingSize: k2}}
	}
	grid := experiment.Grid{Ks: []int{1, 12}, Qs: []int{q}}
	results, err := experiment.SweepProportion(context.Background(), grid,
		experiment.SweepConfig{Trials: trials, Workers: 4, Seed: 424242},
		func(pt experiment.GridPoint) (montecarlo.Trial, error) {
			scheme, err := keys.NewHeterogeneous(pool, pt.Q, classesFor(pt.K))
			if err != nil {
				return nil, err
			}
			return connectivityTrial(wsn.Config{Sensors: n, Scheme: scheme, Channel: channel.HeterOnOff{P: pOn}})
		})
	if err != nil {
		t.Fatal(err)
	}
	var obs []Observation
	for _, res := range results {
		pt := res.Point
		pred, err := theory.HeteroConnProbability(n, pool, pt.Q, classesFor(pt.K), pOn)
		if err != nil {
			t.Fatal(err)
		}
		if pred > 0.005 && pred < 0.995 {
			t.Fatalf("K1=%d prediction %v is not a plateau point; move the ring sizes", pt.K, pred)
		}
		obs = append(obs, Observation{
			Name:      fmt.Sprintf("hetero K1=%d", pt.K),
			Predicted: pred,
			Observed:  res.Value,
		})
	}
	rep, err := Compare(obs, Config{PlateauTol: 0.05})
	if err != nil {
		t.Fatal(err)
	}
	rep.Check(t)
}

// TestPairLinkCurvesMatchTheoryExactly is the exact small-budget check:
// fixed-pair secure-link frequencies across three model families — the
// q-composite/on-off curve over K, the disk-channel curve over the radius,
// and a heterogeneous class-mixture point — z-tested and chi-square-pooled
// against the closed-form probabilities, which are exact at finite n.
// Always run in CI.
func TestPairLinkCurvesMatchTheoryExactly(t *testing.T) {
	const (
		sensors = 24
		trials  = 600
		seed    = 7
	)
	ctx := context.Background()
	cfg := experiment.SweepConfig{Trials: trials, Workers: 4, Seed: seed}
	var obs []Observation

	// Curve 1: q-composite under on/off channels, swept over K.
	const (
		pool1 = 500
		q1    = 1
		p1    = 0.6
	)
	onoff, err := experiment.SweepProportion(ctx,
		experiment.Grid{Ks: []int{8, 14, 20}, Qs: []int{q1}, Ps: []float64{p1}}, cfg,
		func(pt experiment.GridPoint) (montecarlo.Trial, error) {
			scheme, err := keys.NewQComposite(pool1, pt.K, pt.Q)
			if err != nil {
				return nil, err
			}
			return pairLinkTrial(wsn.Config{Sensors: sensors, Scheme: scheme, Channel: channel.OnOff{P: pt.P}})
		})
	if err != nil {
		t.Fatal(err)
	}
	for _, res := range onoff {
		pred, err := theory.EdgeProb(pool1, res.Point.K, q1, p1)
		if err != nil {
			t.Fatal(err)
		}
		obs = append(obs, Observation{
			Name:      fmt.Sprintf("on/off pair link K=%d", res.Point.K),
			Predicted: pred,
			Observed:  res.Value,
		})
	}

	// Curve 2: the same scheme under torus disk channels, swept over the
	// radius via the cross-sweep binding machinery's model (marginal π·r²).
	const ringDisk = 14
	disk, err := experiment.SweepProportion(ctx,
		experiment.Grid{Ks: []int{ringDisk}, Qs: []int{q1}, Xs: []float64{0.15, 0.25}}, cfg,
		func(pt experiment.GridPoint) (montecarlo.Trial, error) {
			scheme, err := keys.NewQComposite(pool1, pt.K, pt.Q)
			if err != nil {
				return nil, err
			}
			return pairLinkTrial(wsn.Config{Sensors: sensors, Scheme: scheme,
				Channel: channel.Disk{Radius: pt.X, Torus: true}})
		})
	if err != nil {
		t.Fatal(err)
	}
	for _, res := range disk {
		pred, err := theory.DiskEdgeProb(pool1, ringDisk, q1, res.Point.X)
		if err != nil {
			t.Fatal(err)
		}
		obs = append(obs, Observation{
			Name:      fmt.Sprintf("disk pair link r=%g", res.Point.X),
			Predicted: pred,
			Observed:  res.Value,
		})
	}

	// Point 3: heterogeneous scheme + per-class-pair channel matrix; the
	// pair probability is the class-mixture average Σ μ_i μ_j t_ij.
	const pool3 = 400
	classes := []keys.Class{{Mu: 0.4, RingSize: 6}, {Mu: 0.6, RingSize: 18}}
	pOn := [][]float64{{0.9, 0.5}, {0.5, 0.7}}
	hetero, err := experiment.SweepProportion(ctx, experiment.Grid{}, cfg,
		func(pt experiment.GridPoint) (montecarlo.Trial, error) {
			scheme, err := keys.NewHeterogeneous(pool3, 1, classes)
			if err != nil {
				return nil, err
			}
			return pairLinkTrial(wsn.Config{Sensors: sensors, Scheme: scheme, Channel: channel.HeterOnOff{P: pOn}})
		})
	if err != nil {
		t.Fatal(err)
	}
	tij, err := theory.HeteroEdgeProbs(pool3, 1, classes, pOn)
	if err != nil {
		t.Fatal(err)
	}
	mix := 0.0
	for i, ci := range classes {
		for j, cj := range classes {
			mix += ci.Mu * cj.Mu * tij[i][j]
		}
	}
	obs = append(obs, Observation{
		Name:      "hetero pair link (class mixture)",
		Predicted: mix,
		Observed:  hetero[0].Value,
	})

	rep, err := Compare(obs, Config{})
	if err != nil {
		t.Fatal(err)
	}
	rep.Check(t)
	if rep.DF < 6 {
		t.Errorf("expected ≥ 6 interior points feeding the pooled χ², got %d", rep.DF)
	}
}

// TestPairLinkChiSquareLargeBudget is the slow, high-power variant of the
// exact pair-link check: more curve points and 2500 trials each shrink the
// standard errors ~2×, so smaller sampler biases become visible. Skipped
// under -short; CI's plain `go test ./...` runs it.
func TestPairLinkChiSquareLargeBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("large-budget statistical validation skipped in -short mode")
	}
	const (
		sensors = 30
		pool    = 600
		pOn     = 0.75
		trials  = 2500
	)
	grid := experiment.Grid{Ks: []int{10, 16, 22, 28}, Qs: []int{1, 2}, Ps: []float64{pOn}}
	results, err := experiment.SweepProportion(context.Background(), grid,
		experiment.SweepConfig{Trials: trials, Workers: 0, PointWorkers: 2, Seed: 99991},
		func(pt experiment.GridPoint) (montecarlo.Trial, error) {
			scheme, err := keys.NewQComposite(pool, pt.K, pt.Q)
			if err != nil {
				return nil, err
			}
			return pairLinkTrial(wsn.Config{Sensors: sensors, Scheme: scheme, Channel: channel.OnOff{P: pt.P}})
		})
	if err != nil {
		t.Fatal(err)
	}
	var obs []Observation
	for _, res := range results {
		pt := res.Point
		pred, err := theory.EdgeProb(pool, pt.K, pt.Q, pt.P)
		if err != nil {
			t.Fatal(err)
		}
		obs = append(obs, Observation{
			Name:      fmt.Sprintf("pair link K=%d q=%d", pt.K, pt.Q),
			Predicted: pred,
			Observed:  res.Value,
		})
	}
	rep, err := Compare(obs, Config{})
	if err != nil {
		t.Fatal(err)
	}
	rep.Check(t)
	if rep.DF != grid.Len() {
		t.Errorf("expected all %d points interior, got DF = %d", grid.Len(), rep.DF)
	}
}

// TestObservationsFromSweep pins the glue most validation tests use: a
// SweepProportion result zipped with per-point predictions must carry the
// trial counts through (no silent budget truncation reading as agreement).
func TestObservationsFromSweep(t *testing.T) {
	grid := experiment.Grid{Ks: []int{3, 5}}
	results, err := experiment.SweepProportion(context.Background(), grid,
		experiment.SweepConfig{Trials: 40, Workers: 2, Seed: 2},
		func(pt experiment.GridPoint) (montecarlo.Trial, error) {
			return func(trial int, r *rng.Rand) (bool, error) {
				return r.Float64() < 0.5, nil
			}, nil
		})
	if err != nil {
		t.Fatal(err)
	}
	for _, res := range results {
		if res.Value.Trials != 40 {
			t.Errorf("point %+v ran %d trials, want 40", res.Point, res.Value.Trials)
		}
		if z := ZScore(res.Value, 0.5); z != ZScore(stats.Proportion{
			Successes: res.Value.Successes, Trials: res.Value.Trials}, 0.5) {
			t.Errorf("z-score not a pure function of the proportion: %v", z)
		}
	}
}
