package wsn

import (
	"fmt"
	"sync"

	"github.com/secure-wsn/qcomposite/internal/channel"
	"github.com/secure-wsn/qcomposite/internal/graph"
	"github.com/secure-wsn/qcomposite/internal/graphalgo"
	"github.com/secure-wsn/qcomposite/internal/keys"
	"github.com/secure-wsn/qcomposite/internal/rng"
)

// Deployer deploys networks repeatedly with amortized buffers: key-ring
// storage (one flat arena), the ring intersector, edge lists and liveness
// flags are all reused across calls, so a Monte Carlo trial pays only for
// what cannot be shared (the final CSR topology).
//
// The returned *Network aliases the Deployer's buffers and remains valid
// only until the next Deploy/DeployRand call (the storage is double-buffered,
// so the previous network is not corrupted *while* the next deployment is
// being built, but callers must not rely on more than one network at a
// time). Any other call on the Deployer — the streaming modes and the
// verdict-only trials KConnectedRand and MinDegreeAtLeastRand, which may
// build a CSR graph of their own — ends the lifetime of every Network
// deployed before it. Callers that need a long-lived network should use
// the package-level Deploy, which dedicates a Deployer to the one network.
// A Deployer is not safe for concurrent use — use a DeployerPool to share
// one configuration across Monte Carlo workers.
//
// Every deployment mode runs one pipeline: assign the key rings, reset a
// keys.Intersector on them, and stream the channel draw row by row — a
// sensor u with its channel neighbours (channel.RowDraw) — through the
// exact predicate |ring(u) ∩ ring(v)| ≥ q into one row consumer. What the
// consumer feeds and when it stops is set per call by a trial descriptor
// (see verdict.go): a secure edge list for Deploy, a union-find and degree
// counters for the graph-free modes, and one stop rule for all of them —
// stop once the union-find (if fed) spans and every degree has reached k.
// The consumer announces each row to the intersector (which counts u's row
// up front when the row is long enough to pay for it) and reads each
// neighbour's answer, in the common case an inlined counter read. The
// channel graph itself is never built during a deployment; a Network keeps
// the generator state the draw started from and re-emits it into CSR only
// if asked for it (Snapshot, SimulateDiscovery). Ring sizes may differ
// per class; the predicate reads the actual per-sensor rings.
type Deployer struct {
	cfg   Config
	arena keys.RingArena
	ix    *keys.Intersector
	edges []graph.Edge

	// Reseeded per Deploy call, so seed-taking deployments allocate no
	// per-trial generator.
	rand rng.Rand

	// Reusable CSR builder for the secure topology. It is double-buffered,
	// so a Network's graph stays valid while the *next* deployment is being
	// built and is reclaimed by the one after — the lifetime the Deployer
	// documents.
	secBld *graph.Builder

	// Shared connectivity scratch, threaded into every deployed Network.
	algo *graphalgo.Workspace

	// Double-buffered Network storage (headers, liveness flags, link-table
	// buffers, channel builders), matching the builder's lifetime.
	nets   [2]Network
	netIdx int

	// The pipeline's shared state: the row draw of the channel, the
	// generator position the draw starts from (kept by the Network for lazy
	// re-emission) and the overlap requirement.
	rows     channel.RowDraw
	chanRand rng.Rand
	streamQ  int

	// The sinks a pass may feed beside edges: the union-find and the degree
	// counters, which hold their current target k.
	suf graphalgo.StreamUnionFind
	sd  graphalgo.StreamDegrees

	// The current pass's descriptor and state, and the one row consumer
	// that reads it, bound once in newDeployer.
	tr    trial
	rowFn func(u int32, vs []int32) bool
}

// NewDeployer validates the configuration (including the channel model's
// Validate and the scheme/channel class pairing) and returns a Deployer for
// it. The configuration's Seed field is ignored; each Deploy call takes its
// own seed.
func NewDeployer(cfg Config) (*Deployer, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	return newDeployer(cfg), nil
}

// newDeployer constructs a Deployer for an already-validated configuration.
func newDeployer(cfg Config) *Deployer {
	d := &Deployer{
		cfg:    cfg,
		secBld: graph.NewBuilder(),
		algo:   graphalgo.NewWorkspace(),
	}
	// The row consumer crosses the channel.RowDraw boundary, where a method
	// value made per call would be heap-allocated every trial; binding it
	// once keeps the trials allocation-free.
	d.rowFn = d.rowSink
	return d
}

// Deploy deploys a network from the given seed. It is deterministic: equal
// seeds yield byte-identical secure topologies and link keys, matching the
// package-level Deploy with the same Config.
func (d *Deployer) Deploy(seed uint64) (*Network, error) {
	cfg := d.cfg
	cfg.Seed = seed
	d.rand.Reseed(seed)
	return d.deploy(cfg, &d.rand)
}

// DeployRand deploys a network drawing all randomness from r — the entry
// point for Monte Carlo trials that are handed a per-trial stream.
func (d *Deployer) DeployRand(r *rng.Rand) (*Network, error) {
	return d.deploy(d.cfg, r)
}

func (d *Deployer) deploy(cfg Config, r *rng.Rand) (*Network, error) {
	asg, err := d.pass(r, trial{edges: true})
	if err != nil {
		return nil, fmt.Errorf("wsn: deploy: %w", err)
	}
	secure, err := d.secBld.FromEdges(cfg.Sensors, d.edges)
	if err != nil {
		return nil, fmt.Errorf("wsn: deploy: %w", err)
	}

	// Assemble the Network in the double-buffered slot, keeping its grown
	// buffers (liveness flags, link table, channel builder) across reuse.
	net := &d.nets[d.netIdx]
	d.netIdx ^= 1
	net.reset(cfg, asg.Rings, asg.Labels, &d.chanRand, secure, d.algo)
	return net, nil
}

// DeployerPool shares one deployment configuration across concurrent Monte
// Carlo workers: each worker borrows a Deployer per trial, so buffers are
// amortized per worker without any locking on the deploy path.
type DeployerPool struct {
	cfg  Config
	pool sync.Pool
}

// NewDeployerPool validates the configuration once and returns the pool.
func NewDeployerPool(cfg Config) (*DeployerPool, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	return &DeployerPool{cfg: cfg}, nil
}

// Get borrows a Deployer. Return it with Put when the trial is done with
// the deployed network.
func (p *DeployerPool) Get() *Deployer {
	if d, ok := p.pool.Get().(*Deployer); ok {
		return d
	}
	return newDeployer(p.cfg)
}

// Put returns a borrowed Deployer to the pool. Networks deployed from it
// must no longer be used.
func (p *DeployerPool) Put(d *Deployer) { p.pool.Put(d) }
