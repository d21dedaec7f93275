package bench

import (
	"fmt"

	"github.com/secure-wsn/qcomposite/internal/channel"
	"github.com/secure-wsn/qcomposite/internal/experiment"
	"github.com/secure-wsn/qcomposite/internal/keys"
	"github.com/secure-wsn/qcomposite/internal/montecarlo"
	"github.com/secure-wsn/qcomposite/internal/rng"
	"github.com/secure-wsn/qcomposite/internal/wsn"
)

// runKConn is the Theorem-1 workload: each round is experiment.
// SweepKConnectivity over ring sizes × levels k. Levels k ≥ 2 deploy CSR
// networks (pair-count discovery, graph.Builder) and decide k-connectivity
// by max-flow, which no other workload reaches; k = 1 streams. Set-up
// sweeps the smallest-K column. Gates: every fourth point of the first round
// re-run on the CSR path (k = 1 included) gives identical successes, every
// traced round — SweepProportion over trials timed stage by stage — equals
// its plain round, and the level curves rise along K (checkRise).
func runKConn(r *runner) error {
	sc := r.Scale.KConn
	levels := make([]float64, len(sc.Levels))
	for i, k := range sc.Levels {
		levels[i] = float64(k)
	}
	deploy := func(pt experiment.GridPoint) (wsn.Config, error) {
		scheme, err := keys.NewQComposite(sc.Pool, pt.K, pt.Q)
		if err != nil {
			return wsn.Config{}, err
		}
		return wsn.Config{Sensors: sc.Sensors, Scheme: scheme, Channel: channel.OnOff{P: pt.P}}, nil
	}
	w := sweepWorkload{
		grid:   experiment.Grid{Ks: sc.Ks, Qs: []int{sc.Q}, Ps: []float64{sc.P}, Xs: levels},
		warm:   experiment.Grid{Ks: sc.Ks[:1], Qs: []int{sc.Q}, Ps: []float64{sc.P}, Xs: levels},
		config: experiment.SweepConfig{Trials: sc.Trials, Workers: Workers, PointWorkers: Workers},
		plain:  experiment.SweepKConnectivity,
		deploy: deploy,
		traced: func(pt experiment.GridPoint, parent int64, trace string) (montecarlo.Trial, error) {
			k, err := experiment.KOf(pt)
			if err != nil {
				return nil, err
			}
			if k == 1 {
				sd, err := newStreamDeploy(sc.Sensors, sc.Pool, pt.K, pt.Q, pt.P, 0)
				if err != nil {
					return nil, err
				}
				return r.tracedStreamTrial(sd, parent, trace, func(st wsn.DegreeStats) bool {
					return st.Connected && sc.Sensors > 1
				})
			}
			cfg, err := deploy(pt)
			if err != nil {
				return nil, err
			}
			dp, err := wsn.NewDeployerPool(cfg)
			if err != nil {
				return nil, err
			}
			kconn := fmt.Sprintf("graphalgo.kconn_k%d", k)
			return func(_ int, rnd *rng.Rand) (bool, error) {
				d := dp.Get()
				defer dp.Put(d)
				trial := r.tr.start(trace, "wsn.csr_trial", parent)
				defer r.tr.finish(trial)
				sp := r.tr.start(trace, "wsn.deploy", trial.ID)
				net, err := d.DeployRand(rnd)
				if err != nil {
					return false, err
				}
				sp.Counts = map[string]int64{"secure_edges": int64(net.FullSecureTopology().M())}
				r.tr.finish(sp)
				sp = r.tr.start(trace, kconn, trial.ID)
				ok, err := net.IsKConnected(k)
				r.tr.finish(sp)
				return ok, err
			}, nil
		},
	}
	plain, err := r.runSweeps(w)
	if err != nil {
		return err
	}
	cfg := w.config
	cfg.Seed = r.roundSeed(0)
	if err := r.csrCheck(plain[0], 4, cfg, func(pt experiment.GridPoint) (wsn.Config, int, error) {
		k, err := experiment.KOf(pt)
		if err != nil {
			return wsn.Config{}, 0, err
		}
		c, err := deploy(pt)
		return c, k, err
	}); err != nil {
		return err
	}
	r.checkRise(plain, sc.Ks, func(pt experiment.GridPoint) string { return fmt.Sprintf("k=%g", pt.X) })
	return nil
}
