package bench

import (
	"fmt"
	"time"

	"github.com/secure-wsn/qcomposite/internal/rng"
	"github.com/secure-wsn/qcomposite/internal/wsn"
)

// replayEvery is how often a traced plateau round replays a trial. A replay
// evicts the Deployer's arenas from the cache, so a traced round replays
// every third trial, kinds alternating, and each replayed trial's
// production call follows two plain ones.
const replayEvery = 3

// runPlateau is the graph-free workload on the connected plateau: Workers
// goroutines, each with its own wsn.Deployer, run Trials pairs of
// Deployer.DeployConnectivity and DeployDegreeStats trials per round, where
// ring assignment, the flat-bitmap intersector, the geometric skip draws and
// the union-find and degree sinks carry the trial. Its operation is one
// trial. Set-up builds fresh Deployers and runs one warm-up round on them.
// A traced round replays every third trial.
// Gate: every trial is connected and every min-degree trial reaches degree
// k.
func runPlateau(r *runner) error {
	sc := r.Scale.Plateau
	conn, err := newStreamDeploy(sc.Sensors, sc.Pool, sc.Ring, sc.Q, sc.P, 0)
	if err != nil {
		return err
	}
	mindeg := conn
	mindeg.degK = sc.MinDegree
	kinds := []struct {
		name string
		sd   streamDeploy
	}{{"conn", conn}, {"mindeg", mindeg}}

	// trial runs kind c on d from seed: the seed-taking production call, or
	// on traced rounds that call replayed stage by stage.
	trial := func(d *wsn.Deployer, c int, seed uint64, tr *tracer, trace string) (wsn.DegreeStats, error) {
		prod := func() (wsn.DegreeStats, error) {
			if c == 0 {
				st, err := d.DeployConnectivity(seed)
				return wsn.DegreeStats{ConnStats: st}, err
			}
			return d.DeployDegreeStats(seed, sc.MinDegree)
		}
		if tr == nil {
			return prod()
		}
		var r0 rng.Rand
		r0.Reseed(seed)
		return tracedTrial(tr, trace, 0, kinds[c].sd, r0, prod)
	}

	// round runs every goroutine's trials and returns, per goroutine, each
	// trial's statistics and latency, kinds alternating.
	deployers := make([]*wsn.Deployer, Workers)
	round := func(name string, seed uint64, tr *tracer) ([][]wsn.DegreeStats, [][]time.Duration, error) {
		stats := make([][]wsn.DegreeStats, Workers)
		lat := make([][]time.Duration, Workers)
		err := parallel(Workers, func(g int) error {
			for t := range sc.Trials {
				for c, kind := range kinds {
					j := (g*sc.Trials+t)*len(kinds) + c
					var trace string
					ttr := tr
					if j%replayEvery != 0 {
						ttr = nil
					} else if tr != nil {
						trace = fmt.Sprintf("plateau/%s/g%d/t%d/%s", name, g, t, kind.name)
					}
					t0 := time.Now()
					st, err := trial(deployers[g], c, rng.StreamSeed(seed, uint64(j)), ttr, trace)
					if err != nil {
						return err
					}
					stats[g] = append(stats[g], st)
					lat[g] = append(lat[g], time.Since(t0))
				}
			}
			return nil
		})
		return stats, lat, err
	}

	for i := range setupReps {
		start := time.Now()
		for g := range deployers {
			if deployers[g], err = wsn.NewDeployer(conn.config()); err != nil {
				return err
			}
		}
		if _, _, err := round("setup", rng.StreamSeed(^r.Seed, uint64(i)), nil); err != nil {
			return err
		}
		r.setup = append(r.setup, time.Since(start).Seconds())
	}

	r.measure()
	for i := 0; r.more(i); i++ {
		var tr *tracer
		if r.traced(i) {
			tr = r.tr
		}
		start := time.Now()
		stats, lat, err := round(fmt.Sprintf("r%d", i), r.roundSeed(i), tr)
		if err != nil {
			return err
		}
		if r.tr == nil {
			r.walls = append(r.walls, time.Since(start).Seconds())
		}
		r.heapSample()
		for g := range Workers {
			for j, st := range stats[g] {
				// A traced run's plain rounds time the trials its traced
				// rounds replay, as the reference for trace.overhead_frac.
				if tr == nil && (r.tr == nil || j%replayEvery == 0) {
					r.op(lat[g][j])
				} else {
					r.attempted++
				}
				c := j % len(kinds)
				r.check(st.Connected && (c == 0 || st.MinDegreeAtLeastK),
					"round %d goroutine %d %s trial: %+v, want connected with min degree ≥ %d",
					i, g, kinds[c].name, st, sc.MinDegree)
			}
		}
	}
	return nil
}
