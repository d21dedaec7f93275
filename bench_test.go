// Benchmarks regenerating every evaluation artifact of the paper (one bench
// per experiment E1–E8; the experiment ids are documented in the cmd/ tool
// that produces each artifact). Each iteration performs one unit of the
// experiment — typically "sample one topology and test the property" — so
// ns/op measures the cost of one Monte Carlo trial and the full experiment
// cost is trials × points × ns/op.
//
// BenchmarkDeployPipeline tracks the wsn.Deployer hot path that the cmd
// tools' sweeps run on: connectivity-only trials (no link keys derived)
// versus link-key-materializing trials, against the fresh-allocation
// one-shot Deploy.
//
// Run all:  go test -bench=. -benchmem .
package qcomposite_test

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"testing"

	"github.com/secure-wsn/qcomposite"
	"github.com/secure-wsn/qcomposite/internal/adversary"
	"github.com/secure-wsn/qcomposite/internal/channel"
	"github.com/secure-wsn/qcomposite/internal/experiment"
	"github.com/secure-wsn/qcomposite/internal/graphalgo"
	"github.com/secure-wsn/qcomposite/internal/keys"
	"github.com/secure-wsn/qcomposite/internal/montecarlo"
	"github.com/secure-wsn/qcomposite/internal/rng"
	"github.com/secure-wsn/qcomposite/internal/stats"
	"github.com/secure-wsn/qcomposite/internal/theory"
	"github.com/secure-wsn/qcomposite/internal/wsn"
)

// benchDeployer returns a Deployer for G_{n,q}(n, ring, pool, pOn), the
// pipeline every cmd's trials run on.
func benchDeployer(b *testing.B, n, ring, pool, q int, pOn float64) *wsn.Deployer {
	b.Helper()
	scheme, err := keys.NewQComposite(pool, ring, q)
	if err != nil {
		b.Fatal(err)
	}
	d, err := wsn.NewDeployer(wsn.Config{Sensors: n, Scheme: scheme, Channel: channel.OnOff{P: pOn}})
	if err != nil {
		b.Fatal(err)
	}
	return d
}

// BenchmarkE1Figure1Trial measures one Figure 1 Monte Carlo trial (stream
// G_{n,q}(1000, K, 10000, p) into a union-find, as cmd/figure1 does) for
// each of the six curves at its paper K* threshold, where the work is
// maximal-interesting.
func BenchmarkE1Figure1Trial(b *testing.B) {
	curves := []struct {
		name string
		q    int
		p    float64
		k    int // paper's K* for the curve
	}{
		{name: "q2_p1.0_K35", q: 2, p: 1.0, k: 35},
		{name: "q2_p0.5_K41", q: 2, p: 0.5, k: 41},
		{name: "q2_p0.2_K52", q: 2, p: 0.2, k: 52},
		{name: "q3_p1.0_K60", q: 3, p: 1.0, k: 60},
		{name: "q3_p0.5_K67", q: 3, p: 0.5, k: 67},
		{name: "q3_p0.2_K78", q: 3, p: 0.2, k: 78},
	}
	for _, c := range curves {
		b.Run(c.name, func(b *testing.B) {
			d := benchDeployer(b, 1000, c.k, 10000, c.q, c.p)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := d.DeployConnectivity(uint64(i)); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkE2KStarTable regenerates the full in-text K* table (six exact
// eq. (5) solves plus six asymptotic solves) per iteration.
func BenchmarkE2KStarTable(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		for _, q := range []int{2, 3} {
			for _, p := range []float64{1, 0.5, 0.2} {
				if _, err := qcomposite.ThresholdK(1000, 10000, q, p); err != nil {
					b.Fatal(err)
				}
				if _, err := qcomposite.ThresholdKAsymptotic(1000, 10000, q, p); err != nil {
					b.Fatal(err)
				}
			}
		}
	}
}

// BenchmarkE3Theorem1Trial measures one Theorem 1 validation trial at the
// paper scale for k = 2, 3: deploy the CSR topology and run the exact
// k-connectivity decision (k = 1 is E1's streamed trial).
func BenchmarkE3Theorem1Trial(b *testing.B) {
	for _, k := range []int{2, 3} {
		b.Run(fmt.Sprintf("k=%d", k), func(b *testing.B) {
			d := benchDeployer(b, 1000, 48, 10000, 2, 0.5)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				net, err := d.Deploy(uint64(i))
				if err != nil {
					b.Fatal(err)
				}
				if _, err := net.IsKConnected(k); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkE4MinDegreeTrial measures one Lemma 8 trial: the streamed
// degree pass at k = 2.
func BenchmarkE4MinDegreeTrial(b *testing.B) {
	d := benchDeployer(b, 1000, 48, 10000, 2, 0.5)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := d.DeployDegreeStats(uint64(i), 2); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkE5DegreeDistTrial measures one Lemma 9 trial: the degree-1 count
// of one deployment (a full pass into the degree counters, no CSR graph)
// plus the Poisson comparison.
func BenchmarkE5DegreeDistTrial(b *testing.B) {
	d := benchDeployer(b, 1000, 43, 10000, 2, 0.5)
	tProb, err := theory.EdgeProb(10000, 43, 2, 0.5)
	if err != nil {
		b.Fatal(err)
	}
	lambda, err := theory.PoissonNodeCountMean(1000, tProb, 1)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	var r rng.Rand
	for i := 0; i < b.N; i++ {
		r.Reseed(uint64(i))
		count, err := d.DegreeCountRand(&r, 1)
		if err != nil {
			b.Fatal(err)
		}
		_ = stats.PoissonPMF(lambda, count)
	}
}

// BenchmarkE6ZeroOneTrial measures one zero–one law trial at the largest
// default schedule point (n = 3200, plus branch).
func BenchmarkE6ZeroOneTrial(b *testing.B) {
	const (
		n    = 3200
		pool = 32000
		k    = 2
	)
	tTarget, err := theory.EdgeProbForAlpha(n, 4.0, k)
	if err != nil {
		b.Fatal(err)
	}
	ring, err := theory.RingSizeForEdgeProb(pool, 2, 0.5, tTarget)
	if err != nil {
		b.Fatal(err)
	}
	d := benchDeployer(b, n, ring, pool, 2, 0.5)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		net, err := d.Deploy(uint64(i))
		if err != nil {
			b.Fatal(err)
		}
		if _, err := net.IsKConnected(k); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDeployPipeline measures one full-network deployment trial at the
// Figure 1 scale (n = 1000, P = 10000, K = 41, q = 2, p = 0.5) in the three
// modes a Monte Carlo workload runs in:
//
//   - connectivity-only: a reused Deployer, no Link/Links access, so no
//     per-edge SHA-256 is ever paid (the Figure 1 trial shape);
//   - materialize-links: the same reused Deployer plus a Links() call that
//     lazily derives every link key (the adversary/E7 trial shape);
//   - fresh-deploy: the one-shot wsn.Deploy plus Links(), paying full
//     allocation every trial — the pre-Deployer upper bound.
//
// For history: the eager-derivation Deploy this package shipped before the
// Deployer refactor ran this exact connectivity-only trial at ≈ 61200
// allocs/op and 6.5 MB/op; the first Deployer brought it to ≈ 2020 allocs/op
// and 5.25 MB/op; the zero-allocation trial loop (reusable CSR builders,
// buffered channel sampling, scratch-backed connectivity) brought it to ≈ 1
// alloc/op — the per-Deploy rng.New — and the reseedable RNG (rng.Reseed
// reused by Deploy) removed that last one: steady state is 0 allocs/op,
// with residual B/op and allocs/op in short runs being amortized buffer
// growth.
func BenchmarkDeployPipeline(b *testing.B) {
	scheme, err := keys.NewQComposite(10000, 41, 2)
	if err != nil {
		b.Fatal(err)
	}
	cfg := wsn.Config{Sensors: 1000, Scheme: scheme, Channel: channel.OnOff{P: 0.5}}

	b.Run("connectivity-only", func(b *testing.B) {
		d, err := wsn.NewDeployer(cfg)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			net, err := d.Deploy(uint64(i))
			if err != nil {
				b.Fatal(err)
			}
			if _, err := net.IsConnected(); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("materialize-links", func(b *testing.B) {
		d, err := wsn.NewDeployer(cfg)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			net, err := d.Deploy(uint64(i))
			if err != nil {
				b.Fatal(err)
			}
			if links := net.Links(); len(links) == 0 {
				b.Fatal("no links materialized")
			}
		}
	})
	b.Run("fresh-deploy", func(b *testing.B) {
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			cfg := cfg
			cfg.Seed = uint64(i)
			net, err := wsn.Deploy(cfg)
			if err != nil {
				b.Fatal(err)
			}
			if links := net.Links(); len(links) == 0 {
				b.Fatal("no links materialized")
			}
		}
	})

	// The size ladder: one connectivity trial per iteration at n = 10³ … 10⁶,
	// streaming (DeployConnectivity: edges flow through the intersector into a
	// union-find, early exit once connected) versus CSR (Deploy +
	// IsConnected). The design keeps the scheme fixed at K = 32, P = 512,
	// q = 2 (2-overlap probability s ≈ 0.59) and thins the channel with n —
	// p = d/n with d = 8·ln n / s — so the mean secure degree sits at 8·ln n,
	// deep in the connected plateau: the channel draw is Θ(n log n) edges
	// instead of Θ(n²), and the union-find spans after roughly the
	// (n/2)·ln n secure edges connectivity needs, so the early exit skips
	// ~7/8 of every draw (the CSR path must intersect all of it, then build
	// two CSR graphs and BFS). Each rung also runs the streaming degree mode
	// (DeployDegreeStats at k = 2), the graph-free Lemma 8 trial. The CSR arm
	// stops at n = 10⁵ (building 10⁶-node CSR graphs per iteration is the
	// cost the streaming paths exist to avoid); n = 10⁶ runs graph-free only
	// and is the scale acceptance artifact.
	b.Run("ladder", func(b *testing.B) {
		const (
			ladderPool = 512
			ladderRing = 32
			ladderQ    = 2
			sOverlap   = 0.594 // P[|ring∩ring| ≥ 2] at K=32, P=512
		)
		scheme, err := keys.NewQComposite(ladderPool, ladderRing, ladderQ)
		if err != nil {
			b.Fatal(err)
		}
		for _, n := range []int{1_000, 10_000, 100_000, 1_000_000} {
			p := 8 * math.Log(float64(n)) / sOverlap / float64(n)
			cfg := wsn.Config{Sensors: n, Scheme: scheme, Channel: channel.OnOff{P: p}}
			b.Run(fmt.Sprintf("n=%d/streaming", n), func(b *testing.B) {
				d, err := wsn.NewDeployer(cfg)
				if err != nil {
					b.Fatal(err)
				}
				connected := 0
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					st, err := d.DeployConnectivity(uint64(i))
					if err != nil {
						b.Fatal(err)
					}
					if st.Connected {
						connected++
					}
				}
				b.ReportMetric(float64(connected)/float64(b.N), "connected/op")
			})
			b.Run(fmt.Sprintf("n=%d/mindegree", n), func(b *testing.B) {
				// The streaming degree mode: the same graph-free pass with the
				// degree accumulator riding beside the union-find, answering
				// P[min degree ≥ 2] (the Lemma 8 statistic) at the same scale.
				// Its early exit needs every node at degree k, not just one
				// component, so it reads slightly more of each draw.
				d, err := wsn.NewDeployer(cfg)
				if err != nil {
					b.Fatal(err)
				}
				atLeast := 0
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					st, err := d.DeployDegreeStats(uint64(i), 2)
					if err != nil {
						b.Fatal(err)
					}
					if st.MinDegreeAtLeastK {
						atLeast++
					}
				}
				b.ReportMetric(float64(atLeast)/float64(b.N), "mindeg2/op")
			})
			if n > 100_000 {
				continue
			}
			b.Run(fmt.Sprintf("n=%d/csr", n), func(b *testing.B) {
				d, err := wsn.NewDeployer(cfg)
				if err != nil {
					b.Fatal(err)
				}
				connected := 0
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					net, err := d.Deploy(uint64(i))
					if err != nil {
						b.Fatal(err)
					}
					ok, err := net.IsConnected()
					if err != nil {
						b.Fatal(err)
					}
					if ok {
						connected++
					}
				}
				b.ReportMetric(float64(connected)/float64(b.N), "connected/op")
			})
		}
	})
}

// BenchmarkShardedSweep measures a full grid sweep at n = 4000 — eight ring
// sizes around the connectivity threshold, two connectivity trials each,
// every trial a complete deployment through the zero-allocation loop — with
// grid-point sharding off (PointWorkers = 1, one shard: the sequential
// upper bound) versus one shard per CPU. Per-point trial parallelism is
// pinned to 1 in both modes so the ratio isolates POINT-level scaling: with
// points ≫ shards it should approach the CPU count, and the estimates are
// bit-identical in both modes (pinned by the experiment package's
// equivalence tests). This is the perf-trajectory artifact for the sharded
// sweep runner.
func BenchmarkShardedSweep(b *testing.B) {
	const (
		n      = 4000
		pool   = 40000
		q      = 2
		pOn    = 0.5
		trials = 2
	)
	var ks []int
	for k := 40; k < 48; k++ {
		ks = append(ks, k)
	}
	grid := experiment.Grid{Ks: ks, Qs: []int{q}, Ps: []float64{pOn}}
	build := func(pt experiment.GridPoint) (montecarlo.Trial, error) {
		scheme, err := keys.NewQComposite(pool, pt.K, pt.Q)
		if err != nil {
			return nil, err
		}
		dp, err := wsn.NewDeployerPool(wsn.Config{
			Sensors: n,
			Scheme:  scheme,
			Channel: channel.OnOff{P: pt.P},
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
	}
	shardCounts := []int{1}
	if ncpu := runtime.NumCPU(); ncpu > 1 {
		shardCounts = append(shardCounts, ncpu)
	}
	for _, pw := range shardCounts {
		b.Run(fmt.Sprintf("n4000/pointworkers=%d", pw), func(b *testing.B) {
			ctx := context.Background()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				res, err := experiment.SweepProportion(ctx, grid,
					experiment.SweepConfig{Trials: trials, Workers: 1, PointWorkers: pw, Seed: 1},
					build)
				if err != nil {
					b.Fatal(err)
				}
				if len(res) != grid.Len() {
					b.Fatalf("got %d results, want %d", len(res), grid.Len())
				}
			}
		})
	}
}

// BenchmarkCrossSweep measures a radius-bound cross sweep at n = 2000 — six
// disk radii around the equivalent connectivity threshold, two trials each,
// every trial a full geometric-channel deployment — with one shard versus
// one shard per CPU (per-point trial workers pinned to 1, as in
// BenchmarkShardedSweep, so the ratio isolates point-level scaling). This is
// the perf-trajectory artifact for the cross-sweep layer: it tracks both the
// binding/deployment plumbing and the geometric sampler under the sweep.
func BenchmarkCrossSweep(b *testing.B) {
	const (
		n      = 2000
		pool   = 20000
		ring   = 45
		q      = 1
		trials = 2
	)
	radii := []float64{0.08, 0.09, 0.1, 0.11, 0.12, 0.13}
	grid := experiment.Grid{Ks: []int{ring}, Qs: []int{q}, Xs: radii}
	spec := experiment.CrossSpec{
		Bindings: []experiment.XBinding{experiment.BindDiskRadius},
		Torus:    true,
		Build: func(pt experiment.GridPoint) (wsn.Config, error) {
			scheme, err := keys.NewQComposite(pool, pt.K, pt.Q)
			if err != nil {
				return wsn.Config{}, err
			}
			return wsn.Config{Sensors: n, Scheme: scheme}, nil
		},
	}
	shardCounts := []int{1}
	if ncpu := runtime.NumCPU(); ncpu > 1 {
		shardCounts = append(shardCounts, ncpu)
	}
	for _, pw := range shardCounts {
		b.Run(fmt.Sprintf("n2000/pointworkers=%d", pw), func(b *testing.B) {
			ctx := context.Background()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				res, err := experiment.CrossSweep(ctx, grid,
					experiment.SweepConfig{Trials: trials, Workers: 1, PointWorkers: pw, Seed: 1}, spec)
				if err != nil {
					b.Fatal(err)
				}
				if len(res) != grid.Len() {
					b.Fatalf("got %d results, want %d", len(res), grid.Len())
				}
			}
		})
	}
}

// BenchmarkE7ResilienceTrial measures one resilience trial: deploy a
// 400-sensor network and run a 30-node capture attack.
func BenchmarkE7ResilienceTrial(b *testing.B) {
	pool, err := theory.PoolSizeForKeyShareProb(60, 2, 0.33)
	if err != nil {
		b.Fatal(err)
	}
	scheme, err := keys.NewQComposite(pool, 60, 2)
	if err != nil {
		b.Fatal(err)
	}
	r := rng.New(6)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		net, err := wsn.Deploy(wsn.Config{
			Sensors: 400,
			Scheme:  scheme,
			Channel: channel.AlwaysOn{},
			Seed:    uint64(i),
		})
		if err != nil {
			b.Fatal(err)
		}
		if _, err := adversary.CaptureRandom(net, r, 30); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkE8DiskModelTrial measures one disk-model trial: deploy under
// geometric channels and test connectivity of the secure topology.
func BenchmarkE8DiskModelTrial(b *testing.B) {
	scheme, err := keys.NewQComposite(5000, 36, 2)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		net, err := wsn.Deploy(wsn.Config{
			Sensors: 500,
			Scheme:  scheme,
			Channel: channel.Disk{Radius: 0.4, Torus: true},
			Seed:    uint64(i),
		})
		if err != nil {
			b.Fatal(err)
		}
		_ = graphalgo.IsConnected(net.FullSecureTopology())
	}
}
