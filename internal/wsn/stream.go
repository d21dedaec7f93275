package wsn

import (
	"fmt"
	"math"

	"github.com/secure-wsn/qcomposite/internal/channel"
	"github.com/secure-wsn/qcomposite/internal/keys"
	"github.com/secure-wsn/qcomposite/internal/rng"
)

// ConnStats are the union-find-answerable statistics of one deployment's
// secure topology, as computed by the streaming connectivity-only mode. The
// values match the CSR path bit for bit: Connected equals
// Network.IsConnected on a fresh deployment, Components and Giant equal
// graphalgo.Components / LargestComponentSize on FullSecureTopology, and
// Isolated equals its degree-0 count.
type ConnStats struct {
	// Connected reports whether the secure topology is one component
	// (n ≤ 1 counts as connected, the Report convention).
	Connected bool
	// Components is the number of connected components.
	Components int
	// Giant is the size of the largest component (0 when n = 0).
	Giant int
	// Isolated is the number of degree-0 sensors.
	Isolated int
}

// DeployConnectivity runs a deployment in connectivity-only mode from the
// given seed: key rings are assigned exactly as Deploy, but the channel draw
// is streamed row by row through the ring intersector into a union-find —
// no channel CSR, no secure CSR, no edge list, no link keys — so memory
// stays O(n + ΣK) however dense the channel is. The emitter is stopped as
// soon as one component remains (the verdict of every further edge is
// determined), which on the connected plateau skips most of each draw.
//
// Determinism: rings and channel randomness are drawn exactly as Deploy up
// to the early exit, and the reported statistics are order-independent
// functions of the secure edge set, so DeployConnectivity(seed) agrees with
// the statistics of Deploy(seed) for every channel model. Because the early
// exit leaves the remainder of the channel draw unconsumed, a generator
// handed to DeployConnectivityRand must not be used for anything afterwards
// within the same trial (per-trial streams, as montecarlo provides, satisfy
// this).
func (d *Deployer) DeployConnectivity(seed uint64) (ConnStats, error) {
	d.rand.Reseed(seed)
	return d.DeployConnectivityRand(&d.rand)
}

// DeployConnectivityRand is DeployConnectivity drawing all randomness from r
// — the entry point for Monte Carlo trials handed a per-trial stream.
func (d *Deployer) DeployConnectivityRand(r *rng.Rand) (ConnStats, error) {
	if _, err := d.pass(r, trial{uf: true, stop: true}); err != nil {
		return ConnStats{}, fmt.Errorf("wsn: deploy connectivity: %w", err)
	}
	return d.connStats(), nil
}

func (d *Deployer) connStats() ConnStats {
	return ConnStats{
		Connected:  d.suf.Connected(),
		Components: d.suf.Components(),
		Giant:      d.suf.GiantSize(),
		Isolated:   d.suf.IsolatedCount(),
	}
}

// DegreeStats extends ConnStats with the min-degree summary of one
// deployment's secure topology, as computed by the streaming degree mode.
type DegreeStats struct {
	ConnStats
	// K is the degree level the deployment was measured against.
	K int
	// MinDegreeAtLeastK reports whether every sensor has secure degree ≥ K
	// — the min-degree half of the paper's zero–one law (vacuously true for
	// n = 0 or K ≤ 0). Equals FullSecureTopology().MinDegree() >= K on a
	// fresh CSR deployment at the same seed.
	MinDegreeAtLeastK bool
	// MinDegree is the minimum secure degree TRUNCATED at K: exact whenever
	// it is below K, reported as K otherwise. The truncation makes the
	// value independent of whether the early exit fired mid-stream; it
	// equals min(K, true min degree) bit for bit against the CSR path.
	MinDegree int
	// BelowK is the number of sensors with secure degree < K (0 whenever
	// MinDegreeAtLeastK).
	BelowK int
}

// DeployDegreeStats runs a deployment in streaming degree mode from the
// given seed: like DeployConnectivity, the channel draw streams row by row
// through the ring intersector, but the secure edges feed a per-node
// degree accumulator BESIDE the union-find in the same pass. It answers the
// paper's min-degree figures — P[min degree ≥ k] and its coupling with
// k-connectivity — with O(n + ΣK) memory and no CSR graph at any n. The
// emitter is stopped as soon as both sinks are done: one component remains
// AND every sensor has reached degree k.
//
// The same determinism contract as DeployConnectivity applies; all reported
// statistics are order-independent functions of the secure edge set (which
// is why MinDegree truncates at K — past the early exit only "≥ K" is
// knowable). The channel emitter must yield each pair at most once, which
// every built-in model guarantees; degree counting is not idempotent.
func (d *Deployer) DeployDegreeStats(seed uint64, k int) (DegreeStats, error) {
	d.rand.Reseed(seed)
	return d.DeployDegreeStatsRand(&d.rand, k)
}

// DeployDegreeStatsRand is DeployDegreeStats drawing all randomness from r
// — the entry point for Monte Carlo trials handed a per-trial stream.
func (d *Deployer) DeployDegreeStatsRand(r *rng.Rand, k int) (DegreeStats, error) {
	if k < 0 {
		return DegreeStats{}, fmt.Errorf("wsn: deploy degree stats: negative degree level %d", k)
	}
	if _, err := d.pass(r, trial{k: int32(k), uf: true, stop: true}); err != nil {
		return DegreeStats{}, fmt.Errorf("wsn: deploy degree stats: %w", err)
	}
	st := DegreeStats{ConnStats: d.connStats(), K: k, MinDegreeAtLeastK: true}
	if k > 0 {
		st.MinDegreeAtLeastK = d.sd.AllAtLeastK()
		st.MinDegree = min(d.sd.MinDegree(), k)
		st.BelowK = d.sd.BelowK()
	}
	return st, nil
}

// DegreeCountRand returns the number of sensors of secure degree exactly h
// in one deployment drawn from r — the count whose law Lemma 9 makes
// asymptotically Poisson. It equals
// DeployRand(r).FullSecureTopology().DegreeHistogram()[h] (0 past the
// histogram's end) but runs the whole draw into the degree counters alone:
// no union-find, no edge list, no CSR graph. h must be non-negative.
func (d *Deployer) DegreeCountRand(r *rng.Rand, h int) (int, error) {
	if h < 0 {
		return 0, fmt.Errorf("wsn: degree count: negative degree %d", h)
	}
	// Any positive level feeds the counters; the pass never stops, so every
	// degree is exact at its end.
	if _, err := d.pass(r, trial{k: 1}); err != nil {
		return 0, fmt.Errorf("wsn: degree count: %w", err)
	}
	return d.sd.CountDegree(h), nil
}

// pass is the pipeline every deployment mode shares: reset the sinks tr
// feeds, assign the keys, reset the ring intersector, and stream the
// channel draw row by row (channel.RowDraw: a sensor u and its channel
// neighbours) into the one row consumer until tr's stop rule ends it. The
// generator position the draw starts from is saved in d.chanRand, and the
// assignment is returned, so the CSR mode can hand both to its Network.
func (d *Deployer) pass(r *rng.Rand, tr trial) (keys.Assignment, error) {
	n := d.cfg.Sensors
	if tr.edges {
		d.edges = d.edges[:0]
	}
	if tr.uf {
		d.suf.Reset(n)
	}
	if tr.k > 0 {
		d.sd.Reset(n, int(tr.k))
	}
	tr.row = math.MaxInt32
	if tr.rowExit && channel.RowMajor(d.cfg.Channel) {
		tr.row = 0
	}
	tr.prefixEdges = -1
	d.tr = tr

	asg, err := d.cfg.Scheme.AssignInto(r, n, &d.arena)
	if err != nil {
		return keys.Assignment{}, err
	}

	// The exact intersection predicate: the Intersector answers a long row
	// from one counted row of u (see keys.Intersector); short rows probe
	// ring(u)'s marks, or AND bitmap rows once rings are dense and enough
	// short rows have come to pay for the bitmaps. Rings drawn into the
	// Deployer's own arena skip the per-ID pool check; any other rings a
	// scheme returns are checked.
	if d.ix == nil {
		ix, err := keys.NewIntersector(d.cfg.Scheme.PoolSize())
		if err != nil {
			return keys.Assignment{}, err
		}
		d.ix = ix
	}
	if err := d.ix.ResetFrom(&d.arena, asg.Rings); err != nil {
		return keys.Assignment{}, err
	}
	d.streamQ = d.cfg.Scheme.RequiredOverlap()

	// Class-aware models receive the deployment's class labels, so the
	// scheme and channel observe one shared class assignment.
	d.chanRand = *r
	return asg, d.rows.Emit(d.cfg.Channel, r, n, asg.Labels, d.rowFn)
}
