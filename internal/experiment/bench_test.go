package experiment

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"sync/atomic"
	"testing"
	"time"

	"github.com/secure-wsn/qcomposite/internal/channel"
	"github.com/secure-wsn/qcomposite/internal/keys"
	"github.com/secure-wsn/qcomposite/internal/montecarlo"
	"github.com/secure-wsn/qcomposite/internal/rng"
	"github.com/secure-wsn/qcomposite/internal/wsn"
)

// BenchmarkCheckpointOverhead measures the cost of the checkpoint journal on
// a sharded sweep: the same 24-point, 2000-trial grid once without a journal
// and once checkpointing every point to a real file. The journal writes one
// small JSON line per POINT (not per trial), so the on/off difference must
// stay well under 5% — the journal's cost is amortized over each point's
// full trial run.
func BenchmarkCheckpointOverhead(b *testing.B) {
	grid := Grid{Ks: []int{10, 20, 30, 40}, Qs: []int{1, 2}, Ps: []float64{0.2, 0.5, 0.8}}
	cfg := SweepConfig{Trials: 2000, Workers: 0, PointWorkers: 4, Seed: 9}
	build := func(pt GridPoint) (montecarlo.Trial, error) {
		return func(trial int, r *rng.Rand) (bool, error) {
			return r.Float64() < pt.P, nil
		}, nil
	}
	for _, journal := range []bool{false, true} {
		b.Run(fmt.Sprintf("journal=%v", journal), func(b *testing.B) {
			runCfg := cfg
			if journal {
				f, err := os.Create(filepath.Join(b.TempDir(), "bench.journal"))
				if err != nil {
					b.Fatal(err)
				}
				defer f.Close()
				runCfg.Checkpoint = f
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := SweepProportion(context.Background(), grid, runCfg, build); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkSupervisedPointOverhead isolates the per-point supervision cost
// (recover scope + retry loop bookkeeping) on a sequential sweep of cheap
// points — the fixed tax every point pays even when nothing ever fails.
func BenchmarkSupervisedPointOverhead(b *testing.B) {
	grid := Grid{Ks: []int{1, 2, 3, 4, 5, 6, 7, 8}}
	cfg := SweepConfig{Trials: 1, Workers: 1, Seed: 9}
	build := func(pt GridPoint) (montecarlo.Trial, error) {
		return func(trial int, r *rng.Rand) (bool, error) { return true, nil }, nil
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := SweepProportion(context.Background(), grid, cfg, build); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSequentialSweep is the traffic a sweepd job serves: a sequential
// sweep (PointWorkers = 0) of 8 connectivity points × 6 trials at n = 400,
// P = 4000, q = 2, p = 0.5 on 2 trial workers — SweepConnectivity's trials
// (ConnectivityTrials), each timed. busy_frac is Σ trial time / (Workers ×
// wall time): the share of the pool's worker time spent inside trials, which
// idle workers at point boundaries pull below 1.
func BenchmarkSequentialSweep(b *testing.B) {
	grid := Grid{Ks: []int{36, 40, 44, 48}, Qs: []int{2}, Ps: []float64{0.3, 0.4}}
	cfg := SweepConfig{Trials: 6, Workers: 2, Seed: 9}
	trials := ConnectivityTrials(func(pt GridPoint) (wsn.Config, error) {
		scheme, err := keys.NewQComposite(4000, pt.K, pt.Q)
		if err != nil {
			return wsn.Config{}, err
		}
		return wsn.Config{Sensors: 400, Scheme: scheme, Channel: channel.OnOff{P: pt.P}}, nil
	})
	var busy atomic.Int64
	timed := func(pt GridPoint) (montecarlo.Trial, error) {
		trial, err := trials(pt)
		if err != nil {
			return nil, err
		}
		return func(i int, r *rng.Rand) (bool, error) {
			start := time.Now()
			ok, err := trial(i, r)
			busy.Add(int64(time.Since(start)))
			return ok, err
		}, nil
	}
	b.ResetTimer()
	start := time.Now()
	for i := 0; i < b.N; i++ {
		if _, err := SweepProportion(context.Background(), grid, cfg, timed); err != nil {
			b.Fatal(err)
		}
	}
	wall := time.Since(start)
	b.ReportMetric(float64(busy.Load())/(float64(cfg.Workers)*float64(wall)), "busy_frac")
}
