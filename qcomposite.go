// Package qcomposite analyses and simulates the secure connectivity of
// wireless sensor networks that use q-composite key predistribution over
// unreliable (on/off) channels, reproducing
//
//	Jun Zhao, "Secure connectivity of wireless sensor networks under key
//	predistribution with on/off channels", ICDCS 2017.
//
// The network topology is the random graph
//
//	G_{n,q}(n, K, P, p) = G_q(n, K, P) ∩ G(n, p)
//
// where G_q is the uniform q-intersection graph of the key scheme (each of
// n sensors holds K keys uniformly sampled from a pool of P; an edge needs
// ≥ q shared keys) and G(n, p) is the Erdős–Rényi graph of independent
// on/off channels.
//
// A Model fixes the five parameters (n, K, P, q, p) and exposes:
//
//   - the exact finite-n link probabilities s and t (eqs. (3)–(5));
//   - Theorem 1's asymptotic k-connectivity probability and the α_n
//     deviation it is driven by (eqs. (6)–(8));
//   - Monte Carlo estimation of P[k-connected], P[min degree ≥ k], and
//     degree-count distributions on sampled topologies;
//   - the design rules: the eq. (9) connectivity threshold K* and minimum
//     ring sizes achieving a target k-connectivity probability.
//
// Estimates deploy the model through the same wsn.Deployer pipeline every
// sweep runs on, across a worker pool with per-trial seed streams, so every
// number is reproducible from (Model, Seed) alone. The full substrate —
// graph algorithms, random-graph samplers, the WSN simulator, channel
// models, and the node-capture adversary — lives under internal/ and is
// exercised by the executables in cmd/ and the runnable walkthroughs in
// examples/.
package qcomposite

import (
	"context"
	"fmt"

	"github.com/secure-wsn/qcomposite/internal/channel"
	"github.com/secure-wsn/qcomposite/internal/graph"
	"github.com/secure-wsn/qcomposite/internal/keys"
	"github.com/secure-wsn/qcomposite/internal/montecarlo"
	"github.com/secure-wsn/qcomposite/internal/rng"
	"github.com/secure-wsn/qcomposite/internal/stats"
	"github.com/secure-wsn/qcomposite/internal/theory"
	"github.com/secure-wsn/qcomposite/internal/wsn"
)

// Model is the parameterisation of the secure WSN graph
// G_{n,q}(n, K, P, p).
type Model struct {
	// N is the number of sensors.
	N int
	// K is the key ring size K_n.
	K int
	// P is the key pool size P_n.
	P int
	// Q is the required key overlap q ≥ 1.
	Q int
	// ChannelOn is the on/off channel probability p_n ∈ (0, 1].
	ChannelOn float64
}

// Validate checks the model parameters.
func (m Model) Validate() error {
	switch {
	case m.N < 0:
		return fmt.Errorf("qcomposite: negative sensor count %d", m.N)
	case m.Q < 1:
		return fmt.Errorf("qcomposite: overlap requirement q=%d must be ≥ 1", m.Q)
	case m.K < m.Q:
		return fmt.Errorf("qcomposite: ring size %d below overlap requirement q=%d", m.K, m.Q)
	case m.P < m.K:
		return fmt.Errorf("qcomposite: pool size %d below ring size %d", m.P, m.K)
	case m.ChannelOn <= 0 || m.ChannelOn > 1:
		return fmt.Errorf("qcomposite: channel-on probability %v outside (0,1]", m.ChannelOn)
	}
	return nil
}

// String renders the model in the paper's notation.
func (m Model) String() string {
	return fmt.Sprintf("G_{n,%d}(n=%d, K=%d, P=%d, p=%g)", m.Q, m.N, m.K, m.P, m.ChannelOn)
}

// KeyShareProbability returns s(K, P, q) — eqs. (3)–(4).
func (m Model) KeyShareProbability() (float64, error) {
	if err := m.Validate(); err != nil {
		return 0, err
	}
	return theory.KeyShareProb(m.P, m.K, m.Q)
}

// EdgeProbability returns t(K, P, q, p) = p·s — eq. (5).
func (m Model) EdgeProbability() (float64, error) {
	if err := m.Validate(); err != nil {
		return 0, err
	}
	return theory.EdgeProb(m.P, m.K, m.Q, m.ChannelOn)
}

// Alpha returns the deviation α_n of eq. (6) for the given k.
func (m Model) Alpha(k int) (float64, error) {
	t, err := m.EdgeProbability()
	if err != nil {
		return 0, err
	}
	return theory.Alpha(m.N, t, k)
}

// TheoreticalKConnProb returns Theorem 1's asymptotic probability that the
// model graph is k-connected (eq. (7)) evaluated at the finite parameters.
func (m Model) TheoreticalKConnProb(k int) (float64, error) {
	alpha, err := m.Alpha(k)
	if err != nil {
		return 0, err
	}
	return theory.KConnProbLimit(alpha, k)
}

// TheoreticalMinDegProb returns Lemma 8's asymptotic probability that the
// minimum degree is at least k — the same limit as TheoreticalKConnProb.
func (m Model) TheoreticalMinDegProb(k int) (float64, error) {
	alpha, err := m.Alpha(k)
	if err != nil {
		return 0, err
	}
	return theory.MinDegreeProbLimit(alpha, k)
}

// ExpectedDegree returns the mean node degree (n−1)·t.
func (m Model) ExpectedDegree() (float64, error) {
	t, err := m.EdgeProbability()
	if err != nil {
		return 0, err
	}
	return theory.ExpectedDegree(m.N, t), nil
}

// PoissonDegreeCountMean returns λ_{n,h}, Lemma 9's asymptotic mean number
// of degree-h nodes.
func (m Model) PoissonDegreeCountMean(h int) (float64, error) {
	t, err := m.EdgeProbability()
	if err != nil {
		return 0, err
	}
	return theory.PoissonNodeCountMean(m.N, t, h)
}

// deployerPool returns a pool of Deployers for the model: the q-composite
// scheme over independent on/off channels.
func (m Model) deployerPool() (*wsn.DeployerPool, error) {
	if err := m.Validate(); err != nil {
		return nil, err
	}
	scheme, err := keys.NewQComposite(m.P, m.K, m.Q)
	if err != nil {
		return nil, err
	}
	return wsn.NewDeployerPool(wsn.Config{Sensors: m.N, Scheme: scheme, Channel: channel.OnOff{P: m.ChannelOn}})
}

// Sample draws one topology G_{n,q}(n, K, P, p).
func (m Model) Sample(r *rng.Rand) (*graph.Undirected, error) {
	dp, err := m.deployerPool()
	if err != nil {
		return nil, err
	}
	net, err := dp.Get().DeployRand(r)
	if err != nil {
		return nil, err
	}
	return net.FullSecureTopology(), nil
}

// EstimateConfig controls Monte Carlo estimation.
type EstimateConfig struct {
	// Trials is the number of sampled topologies (the paper uses 500).
	Trials int
	// Workers bounds parallelism; 0 = all CPUs.
	Workers int
	// Seed makes the estimate reproducible.
	Seed uint64
}

// estimate counts the trials whose deployment passes test, each trial on
// a Deployer borrowed from one pool for the model.
func (m Model) estimate(ctx context.Context, cfg EstimateConfig,
	test func(d *wsn.Deployer, r *rng.Rand) (bool, error)) (stats.Proportion, error) {
	dp, err := m.deployerPool()
	if err != nil {
		return stats.Proportion{}, err
	}
	return montecarlo.EstimateProportion(ctx, montecarlo.Config(cfg),
		func(trial int, r *rng.Rand) (bool, error) {
			d := dp.Get()
			defer dp.Put(d)
			return test(d, r)
		})
}

// EstimateKConnectivity estimates P[G_{n,q} is k-connected] by sampling
// cfg.Trials topologies (the empirical quantity of the paper's Figure 1,
// generalised to any k). Each trial is one verdict-only deployment
// (wsn.Deployer.KConnectedRand): the channel draw stops as soon as the
// verdict is decided, and a CSR graph is built only to confirm a k ≥ 2
// "yes". k must be non-negative; k = 0 is certain.
func (m Model) EstimateKConnectivity(ctx context.Context, k int, cfg EstimateConfig) (stats.Proportion, error) {
	if k < 0 {
		return stats.Proportion{}, fmt.Errorf("qcomposite: negative connectivity level %d", k)
	}
	return m.estimate(ctx, cfg, func(d *wsn.Deployer, r *rng.Rand) (bool, error) {
		return d.KConnectedRand(r, k)
	})
}

// EstimateConnectivity is EstimateKConnectivity with k = 1: the empirical
// probability plotted in Figure 1.
func (m Model) EstimateConnectivity(ctx context.Context, cfg EstimateConfig) (stats.Proportion, error) {
	return m.EstimateKConnectivity(ctx, 1, cfg)
}

// EstimateMinDegreeAtLeast estimates P[minimum degree ≥ k] (Lemma 8's
// quantity), the upper-bounding property in the paper's proof strategy.
// k must be non-negative.
func (m Model) EstimateMinDegreeAtLeast(ctx context.Context, k int, cfg EstimateConfig) (stats.Proportion, error) {
	if k < 0 {
		return stats.Proportion{}, fmt.Errorf("qcomposite: negative degree level %d", k)
	}
	return m.estimate(ctx, cfg, func(d *wsn.Deployer, r *rng.Rand) (bool, error) {
		return d.MinDegreeAtLeastRand(r, k)
	})
}

// DegreeCountDistribution samples the number of degree-h nodes across
// cfg.Trials topologies and returns the per-trial counts (Lemma 9's
// asymptotically-Poisson statistic).
func (m Model) DegreeCountDistribution(ctx context.Context, h int, cfg EstimateConfig) ([]int, error) {
	dp, err := m.deployerPool()
	if err != nil {
		return nil, err
	}
	if h < 0 {
		return nil, fmt.Errorf("qcomposite: negative degree %d", h)
	}
	vals, err := montecarlo.Collect(ctx, montecarlo.Config(cfg),
		func(trial int, r *rng.Rand) (float64, error) {
			d := dp.Get()
			defer dp.Put(d)
			c, err := d.DegreeCountRand(r, h)
			return float64(c), err
		})
	if err != nil {
		return nil, err
	}
	counts := make([]int, len(vals))
	for i, v := range vals {
		counts[i] = int(v)
	}
	return counts, nil
}

// ThresholdK returns the paper's eq. (9) design threshold: the minimum ring
// size K* with t(K*, P, q, p) > ln n / n, computed with the exact edge
// probability.
func ThresholdK(n, pool, q int, pOn float64) (int, error) {
	return theory.ThresholdRingSize(n, pool, q, pOn)
}

// ThresholdKAsymptotic is ThresholdK with s replaced by its Lemma 2
// asymptotic — the computation matching the paper's published values.
func ThresholdKAsymptotic(n, pool, q int, pOn float64) (int, error) {
	return theory.ThresholdRingSizeAsymptotic(n, pool, q, pOn)
}

// DesignK returns the smallest ring size whose Theorem 1 k-connectivity
// probability reaches target — the paper's "precise design guideline".
func DesignK(n, pool, q int, pOn float64, k int, target float64) (int, error) {
	return theory.DesignRingSize(n, pool, q, pOn, k, target)
}
