package experiment

// The k-connectivity sweep path: Zhao–Yağan–Gligor (arXiv:1206.1531) and its
// heterogeneous analogue (Eletreby–Yağan, arXiv:1604.00460 §IV) study
// P[k-connected] over the same (K, q, p) grids as plain connectivity, with k
// itself a sweep axis. SweepKConnectivity runs that shape on the deployment
// pipeline: the Grid's Xs axis carries the connectivity levels, and every
// trial answers wsn.Deployer.KConnectedRand on a per-point
// wsn.DeployerPool — so the sweep composes with PointWorkers sharding and
// the zero-allocation trial loop like every other sweep.

import (
	"context"
	"fmt"

	"github.com/secure-wsn/qcomposite/internal/wsn"
)

// KLevels returns []float64{1, ..., kMax} — the Xs axis of a k-connectivity
// grid sweeping every connectivity level up to kMax.
func KLevels(kMax int) []float64 {
	if kMax < 1 {
		return nil
	}
	ks := make([]float64, kMax)
	for i := range ks {
		ks[i] = float64(i + 1)
	}
	return ks
}

// KOf returns the connectivity level a k-connectivity grid point encodes on
// its Xs axis. Levels must be positive integers stored exactly (KLevels
// produces them); anything else is a configuration error.
func KOf(pt GridPoint) (int, error) {
	k := int(pt.X)
	if float64(k) != pt.X || k < 1 {
		return 0, fmt.Errorf("experiment: grid point %v: Xs value %v is not a connectivity level (want a positive integer)", pt, pt.X)
	}
	return k, nil
}

// SweepKConnectivity estimates P[k-connected] at every grid point, reading
// the connectivity level k from the point's Xs axis (use KLevels to build
// it). build returns the deployment configuration of the point — scheme and
// channel typically depend on pt.K/pt.Q/pt.P — and each point runs its
// trials through a dedicated wsn.DeployerPool, so trial loops are
// allocation-free in steady state and shard cleanly under cfg.PointWorkers.
//
// Points that differ only in k share identical deployment parameters but
// NOT identical topologies: k is part of the point's seed derivation like
// any other axis value. Pair k-levels on common samples with SweepMeanVec
// instead when sample-by-sample monotonicity matters.
func SweepKConnectivity(ctx context.Context, grid Grid, cfg SweepConfig,
	build func(pt GridPoint) (wsn.Config, error)) ([]ProportionResult, error) {
	return CrossSweep(ctx, grid, cfg, CrossSpec{
		Bindings: []XBinding{BindK},
		Build:    build,
	})
}

// KConnMeasurements adapts SweepKConnectivity results into per-k empirical
// curves over the ring-size axis: x is the point's K and the curve is named
// by the connectivity level ("empirical k=2"), with a Wilson band at
// critical value z (z ≤ 0 omits it).
func KConnMeasurements(results []ProportionResult, z float64) []Measurement {
	return ProportionMeasurements(results, z,
		func(pt GridPoint) float64 { return float64(pt.K) },
		func(pt GridPoint) string {
			if k := int(pt.X); float64(k) == pt.X {
				return fmt.Sprintf("empirical k=%d", k)
			}
			return fmt.Sprintf("empirical k=%v", pt.X)
		})
}
