package wsn

import (
	"fmt"

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
	return d.deployConnectivity(&d.rand)
}

// DeployConnectivityRand is DeployConnectivity drawing all randomness from r
// — the entry point for Monte Carlo trials handed a per-trial stream.
func (d *Deployer) DeployConnectivityRand(r *rng.Rand) (ConnStats, error) {
	return d.deployConnectivity(r)
}

func (d *Deployer) deployConnectivity(r *rng.Rand) (ConnStats, error) {
	d.suf.Reset(d.cfg.Sensors)
	if _, err := d.streamSecureEdges(r, d.connRow); err != nil {
		return ConnStats{}, fmt.Errorf("wsn: deploy connectivity: %w", err)
	}
	return d.connStats(), nil
}

// connSink is the connectivity-only mode's row consumer: secure edges into
// the union-find until one component remains.
func (d *Deployer) connSink(u int32, vs []int32) bool {
	ix, q := d.ix, d.streamQ
	ix.BeginRow(u, len(vs))
	for _, v := range vs {
		if ix.RowHasAtLeast(u, v, q) {
			d.suf.Add(u, v)
			if d.suf.Done() {
				return false
			}
		}
	}
	return true
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
	return d.deployDegreeStats(&d.rand, k)
}

// DeployDegreeStatsRand is DeployDegreeStats drawing all randomness from r
// — the entry point for Monte Carlo trials handed a per-trial stream.
func (d *Deployer) DeployDegreeStatsRand(r *rng.Rand, k int) (DegreeStats, error) {
	return d.deployDegreeStats(r, k)
}

func (d *Deployer) deployDegreeStats(r *rng.Rand, k int) (DegreeStats, error) {
	if k < 0 {
		return DegreeStats{}, fmt.Errorf("wsn: deploy degree stats: negative degree level %d", k)
	}
	n := d.cfg.Sensors
	d.suf.Reset(n)
	d.sd.Reset(n, k)
	if _, err := d.streamSecureEdges(r, d.degRow); err != nil {
		return DegreeStats{}, fmt.Errorf("wsn: deploy degree stats: %w", err)
	}
	minDeg := d.sd.MinDegree()
	if minDeg > k {
		minDeg = k
	}
	return DegreeStats{
		ConnStats:         d.connStats(),
		K:                 k,
		MinDegreeAtLeastK: d.sd.AllAtLeastK(),
		MinDegree:         minDeg,
		BelowK:            d.sd.BelowK(),
	}, nil
}

// degSink is the degree mode's row consumer: secure edges into the
// union-find and the degree accumulator until both are done.
func (d *Deployer) degSink(u int32, vs []int32) bool {
	ix, q := d.ix, d.streamQ
	ix.BeginRow(u, len(vs))
	for _, v := range vs {
		if ix.RowHasAtLeast(u, v, q) {
			d.suf.Add(u, v)
			d.sd.Add(u, v)
			if d.suf.Done() && d.sd.AllAtLeastK() {
				return false
			}
		}
	}
	return true
}

// streamSecureEdges is the pipeline every deployment mode shares: key
// predistribution, ring-intersector reset, and the channel draw streamed
// row by row into sink. A row is one sensor u and its channel neighbours
// (channel.RowDraw); the sink announces it to the intersector
// (keys.Intersector.BeginRow), which counts u's row up front when the row
// is long enough to pay for it, filters the row by secure overlap and
// feeds whatever sinks the mode maintains. The caller resets its sinks
// first; the sink's early-exit verdict stops the draw. The generator
// position the draw starts from is saved in d.chanRand, and the assignment
// is returned, so the CSR mode can hand both to its Network.
func (d *Deployer) streamSecureEdges(r *rng.Rand, sink func(u int32, vs []int32) bool) (keys.Assignment, error) {
	n := d.cfg.Sensors
	asg, err := d.cfg.Scheme.AssignInto(r, n, &d.arena)
	if err != nil {
		return keys.Assignment{}, err
	}

	// The exact intersection predicate: with sparse rings the Intersector
	// answers a long row from one counted row of u (see keys.Intersector);
	// short rows and dense rings query directly.
	if d.ix == nil {
		ix, err := keys.NewIntersector(d.cfg.Scheme.PoolSize())
		if err != nil {
			return keys.Assignment{}, err
		}
		d.ix = ix
	}
	if err := d.ix.Reset(asg.Rings); err != nil {
		return keys.Assignment{}, err
	}
	d.streamQ = d.cfg.Scheme.RequiredOverlap()

	// Class-aware models receive the deployment's class labels, so the
	// scheme and channel observe one shared class assignment.
	d.chanRand = *r
	return asg, d.rows.Emit(d.cfg.Channel, r, n, asg.Labels, sink)
}
