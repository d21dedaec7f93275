package bench

import "math"

// Scale sizes the four workloads. Full is the benchmark; the tests run the
// same code on a tiny scale.
type Scale struct {
	Fig1    Fig1Scale
	Plateau PlateauScale
	KConn   KConnScale
	Sweepd  SweepdScale
}

// Fig1Scale sizes the Figure-1 sweep: one round sweeps the whole
// (Ks × Qs × Ps) grid on the streaming connectivity path.
type Fig1Scale struct {
	Sensors, Pool, Trials int
	Ks, Qs                []int
	Ps                    []float64
}

// PlateauScale sizes the graph-free trials on the connected plateau: each
// goroutine runs Trials connectivity and Trials min-degree trials per round.
type PlateauScale struct {
	Sensors, Pool, Ring, Q, Trials int
	// MinDegree is the level k of the min-degree trials.
	MinDegree int
	// P is the channel on-probability.
	P float64
}

// KConnScale sizes the Theorem-1 sweep: P[k-connected] over Ks × Levels
// at one (q, p).
type KConnScale struct {
	Sensors, Pool, Q, Trials int
	P                        float64
	Ks                       []int
	Levels                   []int
}

// SweepdScale sizes the service workload: the cold jobs are windows over
// the Ks × Ps ladders, and each round restarts the server and serves
// WarmPerRound jobs from its store.
type SweepdScale struct {
	Sensors, Pool, Trials int
	Ks                    []int
	Ps                    []float64
	ColdJobs              int
	WarmPerRound          int
}

// Full is the benchmark's scale: Figure 1 and Theorem 1 at the paper's
// n = 1000, P = 10000.
//
// The plateau runs at n = 5000, where a Deployer's arenas (≈ 1.2 MB) stay
// within a core's L2. At n = 10⁵ (≈ 20 MB) its medians moved by 11–17 %
// between runs on the 2-vCPU host this was sized on, whose memory latency
// drifts by ±25 % with the neighbours' load; no bound the benchmark may set
// holds that, and n = 10⁶ costs 4–6 s per trial besides.
//
// The Theorem-1 ring sizes bracket the k-connectivity thresholds (K = 36
// below every level, 54 and 60 above) instead of sampling the transition:
// there a trial's cost depends on its outcome (a 3-connected network needs
// the full max-flow verification, ~1 s; one that is not fails fast), so a
// transition point makes a round's cost a coin toss.
var Full = Scale{
	Fig1: Fig1Scale{
		Sensors: 1000, Pool: 10000, Trials: 2,
		Ks: steps(28, 88, 4), Qs: []int{2, 3}, Ps: []float64{1, 0.5, 0.2},
	},
	Plateau: PlateauScale{Sensors: 5000, Pool: 512, Ring: 32, Q: 2, Trials: 10, MinDegree: 2, P: plateauP(5000)},
	KConn: KConnScale{
		Sensors: 1000, Pool: 10000, Q: 2, Trials: 4, P: 0.5,
		Ks: []int{36, 54, 60}, Levels: []int{1, 2, 3},
	},
	Sweepd: SweepdScale{
		Sensors: 400, Pool: 4000, Trials: 6,
		Ks: steps(20, 80, 4), Ps: []float64{0.2, 0.3, 0.4, 0.5, 0.6, 0.8, 1},
		ColdJobs: 120, WarmPerRound: 1000,
	},
}

// plateauP is the plateau's channel on-probability at n sensors:
// p = 8·ln n / (0.594·n), where 0.594 is the probability that two 32-key
// rings from a 512-key pool share at least 2 keys. The mean secure degree is
// then 8·ln n, deep in the connected regime.
func plateauP(n int) float64 {
	return 8 * math.Log(float64(n)) / (0.594 * float64(n))
}

func steps(lo, hi, step int) []int {
	var out []int
	for v := lo; v <= hi; v += step {
		out = append(out, v)
	}
	return out
}
