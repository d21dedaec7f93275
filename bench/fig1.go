package bench

import (
	"fmt"

	"github.com/secure-wsn/qcomposite/internal/experiment"
	"github.com/secure-wsn/qcomposite/internal/montecarlo"
	"github.com/secure-wsn/qcomposite/internal/wsn"
)

// runFig1 is the Figure-1 workload: each round is experiment.
// SweepConnectivity over the paper's grid with a checkpoint journal, on the
// streaming path, where the sorted-merge ring intersection dominates.
// Set-up opens a fresh journal and sweeps the smallest-K column. Gates:
// every eighth point of the first round re-run on the CSR path gives
// identical successes, every traced round equals its plain round, and the
// (q, p) curves rise along K (checkRise).
func runFig1(r *runner) error {
	sc := r.Scale.Fig1
	deploy := func(pt experiment.GridPoint) (streamDeploy, error) {
		return newStreamDeploy(sc.Sensors, sc.Pool, pt.K, pt.Q, pt.P, 0)
	}
	w := sweepWorkload{
		grid: experiment.Grid{Ks: sc.Ks, Qs: sc.Qs, Ps: sc.Ps},
		warm: experiment.Grid{Ks: sc.Ks[:1], Qs: sc.Qs, Ps: sc.Ps},
		config: experiment.SweepConfig{
			Trials: sc.Trials, Workers: Workers, PointWorkers: Workers,
			JournalLabel: fmt.Sprintf("wsnbench fig1 n=%d pool=%d", sc.Sensors, sc.Pool),
		},
		journal: true,
		plain:   experiment.SweepConnectivity,
		deploy: func(pt experiment.GridPoint) (wsn.Config, error) {
			sd, err := deploy(pt)
			return sd.config(), err
		},
		traced: func(pt experiment.GridPoint, parent int64, trace string) (montecarlo.Trial, error) {
			sd, err := deploy(pt)
			if err != nil {
				return nil, err
			}
			return r.tracedStreamTrial(sd, parent, trace, func(st wsn.DegreeStats) bool { return st.Connected })
		},
	}
	plain, err := r.runSweeps(w)
	if err != nil {
		return err
	}
	cfg := w.config
	cfg.Seed = r.roundSeed(0)
	if err := r.csrCheck(plain[0], 8, cfg, func(pt experiment.GridPoint) (wsn.Config, int, error) {
		sd, err := deploy(pt)
		return sd.config(), 1, err
	}); err != nil {
		return err
	}
	r.checkRise(plain, sc.Ks, func(pt experiment.GridPoint) string { return fmt.Sprintf("q=%d p=%g", pt.Q, pt.P) })
	return nil
}
