// End-to-end integration tests: the full pipeline from key predistribution
// through channel sampling to k-connectivity, validated against the paper's
// theory at reduced-but-honest scales. These complement the per-package unit
// tests: everything here crosses at least three packages.
package qcomposite_test

import (
	"context"
	"reflect"
	"testing"

	"github.com/secure-wsn/qcomposite"
	"github.com/secure-wsn/qcomposite/internal/adversary"
	"github.com/secure-wsn/qcomposite/internal/channel"
	"github.com/secure-wsn/qcomposite/internal/experiment"
	"github.com/secure-wsn/qcomposite/internal/graph"
	"github.com/secure-wsn/qcomposite/internal/graphalgo"
	"github.com/secure-wsn/qcomposite/internal/keys"
	"github.com/secure-wsn/qcomposite/internal/montecarlo"
	"github.com/secure-wsn/qcomposite/internal/randgraph"
	"github.com/secure-wsn/qcomposite/internal/rng"
	"github.com/secure-wsn/qcomposite/internal/theory"
	"github.com/secure-wsn/qcomposite/internal/wsn"
)

// TestFigure1MiniSweep reproduces Figure 1's qualitative content at reduced
// scale: a sharp 0 → 1 connectivity threshold in K, positioned where the
// theory puts it, with larger p shifting the curve left.
func TestFigure1MiniSweep(t *testing.T) {
	const (
		n      = 400
		pool   = 4000
		q      = 2
		trials = 60
	)
	ctx := context.Background()
	cross := map[float64]int{} // channel p → first K with empirical ≥ 0.5
	for _, p := range []float64{0.5, 1.0} {
		prev := 0.0
		for K := 16; K <= 60; K += 2 {
			m := qcomposite.Model{N: n, K: K, P: pool, Q: q, ChannelOn: p}
			est, err := m.EstimateConnectivity(ctx, qcomposite.EstimateConfig{
				Trials: trials,
				Seed:   uint64(K),
			})
			if err != nil {
				t.Fatal(err)
			}
			cur := est.Estimate()
			// Allow small Monte Carlo wiggle but demand broad monotonicity.
			if cur < prev-0.25 {
				t.Errorf("p=%g: connectivity dropped sharply at K=%d (%.2f -> %.2f)", p, K, prev, cur)
			}
			if cross[p] == 0 && cur >= 0.5 {
				cross[p] = K
			}
			prev = cur
		}
		if prev < 0.9 {
			t.Errorf("p=%g: curve never saturated (final %.2f)", p, prev)
		}
		if cross[p] == 0 {
			t.Fatalf("p=%g: curve never crossed 0.5", p)
		}
		// The empirical 0.5-crossing must be near the theoretical one: the K
		// where Theorem 1 gives 0.5.
		wantK := 0
		for K := 16; K <= 60; K++ {
			m := qcomposite.Model{N: n, K: K, P: pool, Q: q, ChannelOn: p}
			tp, err := m.TheoreticalKConnProb(1)
			if err != nil {
				t.Fatal(err)
			}
			if tp >= 0.5 {
				wantK = K
				break
			}
		}
		if d := cross[p] - wantK; d < -4 || d > 4 {
			t.Errorf("p=%g: empirical 0.5-crossing K=%d vs theoretical K=%d", p, cross[p], wantK)
		}
	}
	// Better channels need fewer keys.
	if cross[1.0] >= cross[0.5] {
		t.Errorf("crossing for p=1 (K=%d) not left of p=0.5 (K=%d)", cross[1.0], cross[0.5])
	}
}

// TestDesignedNetworkSurvivesFailures closes the loop on the design rule:
// dimension a network for 3-connectivity at 99%, deploy it, kill 2 random
// sensors, and verify it stays connected in (nearly) every trial.
func TestDesignedNetworkSurvivesFailures(t *testing.T) {
	const (
		n      = 500
		pool   = 5000
		q      = 2
		pOn    = 0.7
		trials = 25
	)
	ring, err := qcomposite.DesignK(n, pool, q, pOn, 3, 0.99)
	if err != nil {
		t.Fatal(err)
	}
	scheme, err := keys.NewQComposite(pool, ring, q)
	if err != nil {
		t.Fatal(err)
	}
	survived := 0
	for seed := uint64(0); seed < trials; seed++ {
		net, err := wsn.Deploy(wsn.Config{
			Sensors: n, Scheme: scheme, Channel: channel.OnOff{P: pOn}, Seed: seed,
		})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := net.FailRandom(rng.NewStream(7, seed), 2); err != nil {
			t.Fatal(err)
		}
		ok, err := net.IsConnected()
		if err != nil {
			t.Fatal(err)
		}
		if ok {
			survived++
		}
	}
	// 99% design target, finite-n slack: demand ≥ 80% survival.
	if survived < trials*8/10 {
		t.Errorf("designed network survived only %d/%d double-failure trials", survived, trials)
	}
}

// TestKStarBracketsPaper pins E2 at the integration level through the
// public API.
func TestKStarBracketsPaper(t *testing.T) {
	paper := []struct {
		q     int
		p     float64
		value int
	}{
		{q: 2, p: 1, value: 35}, {q: 2, p: 0.5, value: 41}, {q: 2, p: 0.2, value: 52},
		{q: 3, p: 1, value: 60}, {q: 3, p: 0.5, value: 67}, {q: 3, p: 0.2, value: 78},
	}
	for _, c := range paper {
		exact, err := qcomposite.ThresholdK(1000, 10000, c.q, c.p)
		if err != nil {
			t.Fatal(err)
		}
		asym, err := qcomposite.ThresholdKAsymptotic(1000, 10000, c.q, c.p)
		if err != nil {
			t.Fatal(err)
		}
		if c.value < asym || c.value > exact {
			t.Errorf("paper K*=%d outside [asymptotic %d, exact %d] for q=%d p=%g",
				c.value, asym, exact, c.q, c.p)
		}
	}
}

// TestCouplingChainEndToEnd exercises the paper's proof machinery: the
// Lemma 5 coupling produces H_q ⊑ G_q, and intersecting both with the same
// channel graph preserves containment — the monotonicity Lemmas 3–6 rely on.
func TestCouplingChainEndToEnd(t *testing.T) {
	const (
		n    = 120
		pool = 2000
		ring = 40
		q    = 2
	)
	r := rng.New(11)
	x := theory.CouplingX(n, pool, ring)
	if x <= 0 {
		t.Fatal("coupling x out of regime for the chosen parameters")
	}
	pair, err := randgraph.SampleCoupled(r, n, ring, pool, q, x)
	if err != nil {
		t.Fatal(err)
	}
	if !pair.Binomial.IsSpanningSubgraphOf(pair.Uniform) {
		t.Fatal("H_q not contained in G_q")
	}
	er, err := randgraph.ErdosRenyi(r, n, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	interH, err := graph.Intersect(pair.Binomial, er)
	if err != nil {
		t.Fatal(err)
	}
	interG, err := graph.Intersect(pair.Uniform, er)
	if err != nil {
		t.Fatal(err)
	}
	if !interH.IsSpanningSubgraphOf(interG) {
		t.Error("intersection with channels broke the containment")
	}
	// k-connectivity is monotone: if the sub graph has it, the super must.
	for k := 1; k <= 2; k++ {
		if graphalgo.IsKConnected(interH, k) && !graphalgo.IsKConnected(interG, k) {
			t.Errorf("monotonicity violated at k=%d", k)
		}
	}
}

// TestAttackDoesNotAffectConnectivityState ensures the adversary model is
// side-effect free on the network (eavesdropping, not destruction).
func TestAttackDoesNotAffectConnectivityState(t *testing.T) {
	scheme, err := keys.NewQComposite(1000, 40, 2)
	if err != nil {
		t.Fatal(err)
	}
	net, err := wsn.Deploy(wsn.Config{
		Sensors: 200, Scheme: scheme, Channel: channel.OnOff{P: 0.8}, Seed: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	before, err := net.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := adversary.CaptureRandom(net, rng.New(4), 50); err != nil {
		t.Fatal(err)
	}
	after, err := net.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(before, after) {
		t.Errorf("capture mutated the network: %+v vs %+v", before, after)
	}
}

// TestSweepDeployerPipeline exercises the full zero-waste pipeline the cmd
// tools run on — experiment.SweepProportion fanning a (K, p) grid across the
// Monte Carlo engine, each trial deploying through a shared wsn.DeployerPool
// — and checks determinism (bit-identical repeat) plus the physics: the
// connectivity probability must be monotone in both K and p on average.
func TestSweepDeployerPipeline(t *testing.T) {
	const (
		n    = 200
		pool = 2000
		q    = 2
	)
	grid := experiment.Grid{Ks: []int{20, 30, 40}, Qs: []int{q}, Ps: []float64{0.4, 0.9}}
	cfg := experiment.SweepConfig{Trials: 40, Seed: 9}
	run := func() []experiment.ProportionResult {
		res, err := experiment.SweepProportion(context.Background(), grid, cfg,
			func(pt experiment.GridPoint) (montecarlo.Trial, error) {
				scheme, err := keys.NewQComposite(pool, pt.K, pt.Q)
				if err != nil {
					return nil, err
				}
				dp, err := wsn.NewDeployerPool(wsn.Config{
					Sensors: n, Scheme: scheme, Channel: channel.OnOff{P: pt.P},
				})
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
			})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := run(), run()
	if len(a) != grid.Len() {
		t.Fatalf("%d results, want %d", len(a), grid.Len())
	}
	byPoint := map[[2]interface{}]float64{}
	for i := range a {
		if a[i].Value != b[i].Value {
			t.Errorf("point %d not reproducible across sweep runs", i)
		}
		byPoint[[2]interface{}{a[i].Point.K, a[i].Point.P}] = a[i].Value.Estimate()
	}
	// Monotone in K at fixed p, and in p at fixed K (allowing MC wiggle).
	for _, p := range grid.Ps {
		if byPoint[[2]interface{}{20, p}] > byPoint[[2]interface{}{40, p}]+0.15 {
			t.Errorf("p=%g: connectivity not increasing in K", p)
		}
	}
	for _, K := range grid.Ks {
		if byPoint[[2]interface{}{K, 0.9}]+0.15 < byPoint[[2]interface{}{K, 0.4}] {
			t.Errorf("K=%d: connectivity decreasing in p", K)
		}
	}
}
