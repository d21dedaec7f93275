package experiment

import (
	"context"
	"fmt"
	"runtime"
	"testing"

	"github.com/secure-wsn/qcomposite/internal/channel"
	"github.com/secure-wsn/qcomposite/internal/graphalgo"
	"github.com/secure-wsn/qcomposite/internal/keys"
	"github.com/secure-wsn/qcomposite/internal/montecarlo"
	"github.com/secure-wsn/qcomposite/internal/rng"
	"github.com/secure-wsn/qcomposite/internal/wsn"
)

// streamTestGrid spans the connectivity transition at n = 60 so both
// verdicts occur, and pointWorkerCounts are the sharding levels every
// streaming-vs-CSR comparison must agree across.
var (
	streamTestGrid = Grid{Ks: []int{14, 20, 28}, Qs: []int{1, 2}, Ps: []float64{0.5}}
	streamTestCfg  = SweepConfig{Trials: 24, Workers: 2, Seed: 5}
)

func pointWorkerCounts() []int {
	return []int{0, 1, 3, runtime.NumCPU()}
}

// streamTestBuild is the shared deployment: n = 60 sensors, P = 500 keys.
func streamTestBuild(pt GridPoint) (wsn.Config, error) {
	scheme, err := keys.NewQComposite(500, pt.K, pt.Q)
	if err != nil {
		return wsn.Config{}, err
	}
	return wsn.Config{Sensors: 60, Scheme: scheme, Channel: channel.OnOff{P: pt.P}}, nil
}

// csrTrial builds the reference trial for one grid point: a full CSR
// deployment measured by fn.
func csrTrial(pt GridPoint, fn func(net *wsn.Network) (bool, error)) (montecarlo.Trial, error) {
	cfg, err := streamTestBuild(pt)
	if err != nil {
		return nil, err
	}
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
		return fn(net)
	}, nil
}

func requireSameProportions(t *testing.T, label string, want, got []ProportionResult) {
	t.Helper()
	if len(want) != len(got) {
		t.Fatalf("%s: %d results, want %d", label, len(got), len(want))
	}
	for i := range want {
		if want[i].Point != got[i].Point || want[i].Value != got[i].Value {
			t.Fatalf("%s: point %d = {%+v %+v}, want {%+v %+v}",
				label, i, got[i].Point, got[i].Value, want[i].Point, want[i].Value)
		}
	}
}

// TestSweepConnectivityMatchesCSRSweep pins the sweep-level half of the
// streaming equivalence (satellite 1): SweepConnectivity must reproduce a
// CSR IsConnected SweepProportion bit for bit — same points, same
// success counts — at every PointWorkers sharding level.
func TestSweepConnectivityMatchesCSRSweep(t *testing.T) {
	ctx := context.Background()
	for _, pw := range pointWorkerCounts() {
		cfg := streamTestCfg
		cfg.PointWorkers = pw
		want, err := SweepProportion(ctx, streamTestGrid, cfg,
			func(pt GridPoint) (montecarlo.Trial, error) {
				return csrTrial(pt, func(net *wsn.Network) (bool, error) {
					return net.IsConnected()
				})
			})
		if err != nil {
			t.Fatal(err)
		}
		// Sanity: the grid genuinely produces both verdicts.
		if pw == 0 {
			lo, hi := 1.0, 0.0
			for _, res := range want {
				est := res.Value.Estimate()
				if est < lo {
					lo = est
				}
				if est > hi {
					hi = est
				}
			}
			if lo > 0.5 || hi < 0.5 {
				t.Fatalf("test grid does not span the transition: %v … %v", lo, hi)
			}
		}
		got, err := SweepConnectivity(ctx, streamTestGrid, cfg, streamTestBuild)
		if err != nil {
			t.Fatal(err)
		}
		requireSameProportions(t, fmt.Sprintf("PointWorkers=%d", pw), want, got)
	}
}

// TestSweepMinDegreeMatchesCSRSweep pins the sweep-level half of the
// streaming degree equivalence: SweepMinDegree must reproduce a CSR
// MinDegree() >= k SweepProportion bit for bit — same points, same success
// counts — at every PointWorkers sharding level and for several degree
// levels. It also pins the coupling direction the paper's sandwich argument
// uses: per point, k-connected implies min degree ≥ k, so under the shared
// parameter-derived seeds (identical topologies trial for trial) the
// success counts must be ordered.
func TestSweepMinDegreeMatchesCSRSweep(t *testing.T) {
	ctx := context.Background()
	for _, k := range []int{1, 2} {
		for _, pw := range pointWorkerCounts() {
			cfg := streamTestCfg
			cfg.PointWorkers = pw
			want, err := SweepProportion(ctx, streamTestGrid, cfg,
				func(pt GridPoint) (montecarlo.Trial, error) {
					return csrTrial(pt, func(net *wsn.Network) (bool, error) {
						return net.FullSecureTopology().MinDegree() >= k, nil
					})
				})
			if err != nil {
				t.Fatal(err)
			}
			got, err := SweepMinDegree(ctx, streamTestGrid, cfg, k, streamTestBuild)
			if err != nil {
				t.Fatal(err)
			}
			requireSameProportions(t, fmt.Sprintf("k=%d PointWorkers=%d", k, pw), want, got)
			kconn, err := SweepProportion(ctx, streamTestGrid, cfg,
				func(pt GridPoint) (montecarlo.Trial, error) {
					return csrTrial(pt, func(net *wsn.Network) (bool, error) {
						return net.IsKConnected(k)
					})
				})
			if err != nil {
				t.Fatal(err)
			}
			for i := range got {
				if kconn[i].Value.Successes > got[i].Value.Successes {
					t.Fatalf("k=%d point %+v: %d k-connected trials but only %d with min degree >= k",
						k, got[i].Point, kconn[i].Value.Successes, got[i].Value.Successes)
				}
			}
		}
	}
	if _, err := SweepMinDegree(ctx, streamTestGrid, streamTestCfg, -1, streamTestBuild); err == nil {
		t.Error("negative k: want error")
	}
}

// TestSweepConnStatsMatchesCSRSweep compares SweepConnStats against a CSR
// SweepMeanVec measuring the same four statistics on full deployments: every
// summary (count, mean, min, max) must agree exactly at every sharding
// level.
func TestSweepConnStatsMatchesCSRSweep(t *testing.T) {
	ctx := context.Background()
	stats := []ConnStat{ConnStatConnected, ConnStatGiantFraction, ConnStatIsolatedFraction, ConnStatComponents}
	for _, pw := range pointWorkerCounts() {
		cfg := streamTestCfg
		cfg.PointWorkers = pw
		want, err := SweepMeanVec(ctx, streamTestGrid, cfg, len(stats),
			func(pt GridPoint) (montecarlo.SampleVec, error) {
				deployCfg, err := streamTestBuild(pt)
				if err != nil {
					return nil, err
				}
				dp, err := wsn.NewDeployerPool(deployCfg)
				if err != nil {
					return nil, err
				}
				n := deployCfg.Sensors
				return func(trial int, r *rng.Rand) ([]float64, error) {
					d := dp.Get()
					defer dp.Put(d)
					net, err := d.DeployRand(r)
					if err != nil {
						return nil, err
					}
					topo := net.FullSecureTopology()
					connected, err := net.IsConnected()
					if err != nil {
						return nil, err
					}
					_, comps := graphalgo.Components(topo)
					vals := make([]float64, 4)
					if connected {
						vals[0] = 1
					}
					vals[1] = float64(graphalgo.LargestComponentSize(topo)) / float64(n)
					vals[2] = float64(topo.DegreeHistogram()[0]) / float64(n)
					vals[3] = float64(comps)
					return vals, nil
				}, nil
			})
		if err != nil {
			t.Fatal(err)
		}
		got, err := SweepConnStats(ctx, streamTestGrid, cfg, stats, streamTestBuild)
		if err != nil {
			t.Fatal(err)
		}
		if len(want) != len(got) {
			t.Fatalf("%d results, want %d", len(got), len(want))
		}
		for i := range want {
			if want[i].Point != got[i].Point {
				t.Fatalf("PointWorkers=%d: point %d metadata differs", pw, i)
			}
			for j := range stats {
				w, g := want[i].Values[j], got[i].Values[j]
				if *w != *g {
					t.Fatalf("PointWorkers=%d: point %d stat %v: summary %+v, want %+v", pw, i, stats[j], *g, *w)
				}
			}
		}
	}
}

// TestCrossSweepK1MatchesCSRSweep pins the CrossSweep fast path: a k = 1
// cross sweep (which auto-selects streaming) must match a CSR
// IsKConnected(1) sweep exactly, at every sharding level.
func TestCrossSweepK1MatchesCSRSweep(t *testing.T) {
	ctx := context.Background()
	for _, pw := range pointWorkerCounts() {
		cfg := streamTestCfg
		cfg.PointWorkers = pw
		want, err := SweepProportion(ctx, streamTestGrid, cfg,
			func(pt GridPoint) (montecarlo.Trial, error) {
				return csrTrial(pt, func(net *wsn.Network) (bool, error) {
					return net.IsKConnected(1)
				})
			})
		if err != nil {
			t.Fatal(err)
		}
		got, err := CrossSweep(ctx, streamTestGrid, cfg, CrossSpec{K: 1, Build: streamTestBuild})
		if err != nil {
			t.Fatal(err)
		}
		requireSameProportions(t, fmt.Sprintf("PointWorkers=%d", pw), want, got)
	}
}

// TestSweepConnStatsValidation covers the eager statistic validation.
func TestSweepConnStatsValidation(t *testing.T) {
	ctx := context.Background()
	if _, err := SweepConnStats(ctx, streamTestGrid, streamTestCfg, nil, streamTestBuild); err == nil {
		t.Error("empty statistic list: want error")
	}
	if _, err := SweepConnStats(ctx, streamTestGrid, streamTestCfg, []ConnStat{ConnStat(99)}, streamTestBuild); err == nil {
		t.Error("unknown statistic: want error")
	}
}
