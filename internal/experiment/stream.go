package experiment

// The streaming fast path: sweep entry points whose per-point measurements
// are answerable without a graph run their trials on wsn.Deployer's
// streaming modes, which pass the channel draw through the ring intersector
// into the Deployer's one row consumer: it feeds the union-find and degree
// sinks the mode names and stops once the union-find spans and every degree
// has reached the mode's k (or, on row-major channels, once a verdict's
// passed sensor is below k). Verdict sweeps — connectivity,
// min degree ≥ k, and k-connectivity through CrossSweep — run the
// verdict-only trials (wsn.Deployer.KConnectedRand, MinDegreeAtLeastRand),
// which stop each draw as soon as its answer is decided either way and build
// a CSR graph only to confirm a k ≥ 2 "yes". The statistics sweep
// (SweepConnStats) runs DeployConnectivityRand to the end of the draw or
// the connected plateau. Every verdict and statistic is bit-identical to
// the CSR path (same parameter-derived seeds, same booleans and sizes per
// trial); measurements that need the graph itself (spectral, positions)
// keep deploying CSR networks, while degree-h counts run the whole draw
// into the degree sink alone (DegreeCountRand).

import (
	"context"
	"fmt"

	"github.com/secure-wsn/qcomposite/internal/montecarlo"
	"github.com/secure-wsn/qcomposite/internal/rng"
	"github.com/secure-wsn/qcomposite/internal/wsn"
)

// SweepConnectivity estimates P[secure topology connected] at every grid
// point on the streaming path: build returns the point's deployment (like
// CrossSpec.Build), and each trial is one ConnectivityTrials verdict.
// Seeding, sharding (PointWorkers) and result order follow SweepProportion
// exactly, and the estimates are bit-identical to a CSR IsConnected sweep
// with the same grid, config and build.
func SweepConnectivity(ctx context.Context, grid Grid, cfg SweepConfig,
	build func(pt GridPoint) (wsn.Config, error)) ([]ProportionResult, error) {
	return SweepProportion(ctx, grid, cfg, ConnectivityTrials(build))
}

// ConnectivityTrials returns SweepConnectivity's per-point trial builder,
// for callers that run the trial loop themselves (the sweep server): each
// point's deployment goes into a DeployerPool, and each trial answers
// whether the secure topology is connected through KConnectedRand(r, 1).
// n ≤ 1 counts as connected, the Network.IsConnected convention.
func ConnectivityTrials(build func(pt GridPoint) (wsn.Config, error)) func(pt GridPoint) (montecarlo.Trial, error) {
	return verdictTrials(build, func(d *wsn.Deployer, r *rng.Rand, n int) (bool, error) {
		if n <= 1 {
			return true, nil
		}
		return d.KConnectedRand(r, 1)
	})
}

// SweepMinDegree estimates P[secure min degree ≥ k] at every grid point on
// the streaming path: each trial is one MinDegreeTrials verdict. This is
// the min-degree half of the paper's zero–one law, whose limit equals the
// k-connectivity limit (eq. (7) = (76)). Seeding, sharding and result order
// follow SweepProportion exactly, and the estimates are bit-identical to a
// CSR FullSecureTopology().MinDegree() >= k sweep with the same grid,
// config and build, except that n = 0 counts as vacuously true. k must be
// non-negative.
func SweepMinDegree(ctx context.Context, grid Grid, cfg SweepConfig, k int,
	build func(pt GridPoint) (wsn.Config, error)) ([]ProportionResult, error) {
	if k < 0 {
		return nil, fmt.Errorf("experiment: min-degree sweep with negative k = %d", k)
	}
	return SweepProportion(ctx, grid, cfg, MinDegreeTrials(k, build))
}

// MinDegreeTrials returns SweepMinDegree's per-point trial builder: each
// trial answers MinDegreeAtLeastRand(r, k) on a Deployer borrowed from the
// point's DeployerPool (no CSR graph at any n). A negative k fails every
// trial.
func MinDegreeTrials(k int, build func(pt GridPoint) (wsn.Config, error)) func(pt GridPoint) (montecarlo.Trial, error) {
	return verdictTrials(build, func(d *wsn.Deployer, r *rng.Rand, _ int) (bool, error) {
		return d.MinDegreeAtLeastRand(r, k)
	})
}

// verdictTrials builds each grid point's deployment into a DeployerPool and
// returns trials that answer verdict on a borrowed Deployer; n is the
// point's sensor count.
func verdictTrials(build func(pt GridPoint) (wsn.Config, error),
	verdict func(d *wsn.Deployer, r *rng.Rand, n int) (bool, error)) func(pt GridPoint) (montecarlo.Trial, error) {
	return func(pt GridPoint) (montecarlo.Trial, error) {
		dp, n, err := connectivityPool(pt, build)
		if err != nil {
			return nil, err
		}
		return func(trial int, r *rng.Rand) (bool, error) {
			d := dp.Get()
			defer dp.Put(d)
			return verdict(d, r, n)
		}, nil
	}
}

// ConnStat selects one union-find-answerable statistic of a deployment for
// SweepConnStats.
type ConnStat uint8

const (
	// ConnStatConnected is the connectivity indicator (1 if connected).
	ConnStatConnected ConnStat = iota + 1
	// ConnStatGiantFraction is the largest-component size divided by n.
	ConnStatGiantFraction
	// ConnStatIsolatedFraction is the degree-0 sensor count divided by n.
	ConnStatIsolatedFraction
	// ConnStatComponents is the number of connected components.
	ConnStatComponents
)

// String implements fmt.Stringer for validation errors and labels.
func (s ConnStat) String() string {
	switch s {
	case ConnStatConnected:
		return "connected"
	case ConnStatGiantFraction:
		return "giant fraction"
	case ConnStatIsolatedFraction:
		return "isolated fraction"
	case ConnStatComponents:
		return "components"
	}
	return fmt.Sprintf("ConnStat(%d)", uint8(s))
}

// value extracts the statistic from one trial's ConnStats.
func (s ConnStat) value(st wsn.ConnStats, n int) float64 {
	switch s {
	case ConnStatConnected:
		if st.Connected {
			return 1
		}
		return 0
	case ConnStatGiantFraction:
		if n == 0 {
			return 0
		}
		return float64(st.Giant) / float64(n)
	case ConnStatIsolatedFraction:
		if n == 0 {
			return 0
		}
		return float64(st.Isolated) / float64(n)
	case ConnStatComponents:
		return float64(st.Components)
	}
	return 0
}

// SweepConnStats estimates several union-find-answerable statistics per grid
// point from one set of streamed deployments — the streaming counterpart of
// the SweepMeanVec idiom "deploy once, measure giant and isolated fractions
// on the same topology". Values[i] of each result summarises stats[i]. The
// per-trial observations equal the CSR path's (LargestComponentSize/n,
// degree-0 fraction, …) bit for bit, so summaries match a SweepMeanVec over
// full deployments with the same grid, config and build.
func SweepConnStats(ctx context.Context, grid Grid, cfg SweepConfig, stats []ConnStat,
	build func(pt GridPoint) (wsn.Config, error)) ([]MeanVecResult, error) {
	if len(stats) == 0 {
		return nil, fmt.Errorf("experiment: connectivity-stats sweep needs at least one statistic")
	}
	for _, s := range stats {
		switch s {
		case ConnStatConnected, ConnStatGiantFraction, ConnStatIsolatedFraction, ConnStatComponents:
		default:
			return nil, fmt.Errorf("experiment: unknown connectivity statistic %v", s)
		}
	}
	return SweepMeanVec(ctx, grid, cfg, len(stats),
		func(pt GridPoint) (montecarlo.SampleVec, error) {
			dp, n, err := connectivityPool(pt, build)
			if err != nil {
				return nil, err
			}
			return func(trial int, r *rng.Rand) ([]float64, error) {
				d := dp.Get()
				defer dp.Put(d)
				st, err := d.DeployConnectivityRand(r)
				if err != nil {
					return nil, err
				}
				// Fresh slice per trial: trials of one point run across
				// montecarlo workers concurrently.
				vals := make([]float64, len(stats))
				for i, s := range stats {
					vals[i] = s.value(st, n)
				}
				return vals, nil
			}, nil
		})
}

// connectivityPool builds the deployment of one grid point and wraps it in a
// DeployerPool for the point's trials, returning the sensor count alongside.
func connectivityPool(pt GridPoint, build func(pt GridPoint) (wsn.Config, error)) (*wsn.DeployerPool, int, error) {
	deployCfg, err := build(pt)
	if err != nil {
		return nil, 0, err
	}
	dp, err := wsn.NewDeployerPool(deployCfg)
	if err != nil {
		return nil, 0, err
	}
	return dp, deployCfg.Sensors, nil
}
