package wsn

import (
	"fmt"
	"math"

	"github.com/secure-wsn/qcomposite/internal/channel"
	"github.com/secure-wsn/qcomposite/internal/graph"
	"github.com/secure-wsn/qcomposite/internal/graphalgo"
	"github.com/secure-wsn/qcomposite/internal/rng"
)

// Verdict-only trials: a Monte Carlo estimate of P[k-connected] or
// P[min degree ≥ k] needs one boolean per deployment, and that boolean is
// often settled long before the channel draw ends. Both verdicts stream the
// draw through the ring intersector into the Deployer's union-find and
// degree sinks and stop as soon as the answer is decided either way:
//
//   - yes, on every channel model: every degree has reached k (and, for
//     k-connectivity, the union-find spans and the secure edges seen so far
//     are already k-connected — adding edges never lowers vertex
//     connectivity);
//   - no, on row-major channel models (channel.RowMajor): once the draw
//     moves past a sensor it yields no further edge at that sensor, so a
//     passed sensor whose degree is below k settles "no". The check runs
//     once per row, when the row of a new sensor arrives.
//
// A draw that ends undecided is decided on its full secure edge set, so the
// verdicts equal the CSR path exactly. Like the streaming modes, an early
// exit leaves the rest of the channel draw unconsumed: the generator handed
// in must not be used for anything else within the same trial.

// verdictExit records how the last verdict trial ended.
type verdictExit uint8

const (
	exitDrained verdictExit = iota // the draw ran to its end
	exitYes                        // stopped on a decided "yes"
	exitNo                         // stopped on a passed sensor below degree k
)

// verdictTrial is the state of one verdict trial, read by the Deployer's
// persistent verdict row consumer.
type verdictTrial struct {
	k    int32
	conn bool // k-connectivity (union-find and edges) or min degree alone
	// row is the row of the draw so far on row-major models: every sensor
	// below it has been checked against k. MaxInt32 on the other models
	// turns the row check off.
	row int32
	// prefixEdges is the secure edge count at the one prefix
	// k-connectivity check (k ≥ 2), or -1 before it: before the union-find
	// spans and every degree has reached k.
	prefixEdges int
	exit        verdictExit
	err         error
}

// KConnectedRand reports whether the secure topology of one deployment
// drawn from r is k-connected. It equals DeployRand(r) followed by
// Network.IsKConnected(k) on the same stream — k ≤ 0 is true and n ≤ k is
// false — but stops the channel draw as soon as the verdict is decided, and
// builds a CSR graph only for k ≥ 2 once the union-find spans and every
// degree has reached k. A trial that ends disconnected or below degree k
// builds none. It allocates nothing in steady state.
func (d *Deployer) KConnectedRand(r *rng.Rand, k int) (bool, error) {
	switch {
	case k <= 0:
		return true, nil
	case d.cfg.Sensors <= k:
		return false, nil
	}
	ok, err := d.verdict(r, k, true)
	if err != nil {
		return false, fmt.Errorf("wsn: k-connectivity verdict: %w", err)
	}
	return ok, nil
}

// MinDegreeAtLeastRand reports whether every sensor of one deployment drawn
// from r has secure degree ≥ k, stopping the channel draw as soon as the
// verdict is decided. It equals DegreeStats.MinDegreeAtLeastK on the same
// stream, which is DeployRand(r).FullSecureTopology().MinDegree() >= k
// except that n = 0 is vacuously true (an empty graph's MinDegree is 0).
// k must be non-negative, as for DeployDegreeStats.
func (d *Deployer) MinDegreeAtLeastRand(r *rng.Rand, k int) (bool, error) {
	switch {
	case k < 0:
		return false, fmt.Errorf("wsn: min-degree verdict: negative degree level %d", k)
	case k == 0 || d.cfg.Sensors == 0:
		return true, nil
	}
	ok, err := d.verdict(r, k, false)
	if err != nil {
		return false, fmt.Errorf("wsn: min-degree verdict: %w", err)
	}
	return ok, nil
}

// verdict runs one verdict trial at level k ≥ 1: k-connectivity when conn
// is set (the caller has ruled out n ≤ k), min degree ≥ k otherwise.
func (d *Deployer) verdict(r *rng.Rand, k int, conn bool) (bool, error) {
	n := d.cfg.Sensors
	d.sd.Reset(n, k)
	if conn {
		d.suf.Reset(n)
		d.edges = d.edges[:0]
	}
	d.vt = verdictTrial{k: int32(k), conn: conn, row: math.MaxInt32, prefixEdges: -1}
	if channel.RowMajor(d.cfg.Channel) {
		d.vt.row = 0
	}
	if _, err := d.streamSecureEdges(r, d.verdictRow); err != nil {
		return false, err
	}
	switch {
	case d.vt.err != nil:
		return false, d.vt.err
	case d.vt.exit != exitDrained:
		return d.vt.exit == exitYes, nil
	case d.vt.prefixEdges < 0 || d.vt.prefixEdges == len(d.edges):
		// The draw decides every "yes" but one: a failed prefix check
		// followed by more secure edges. Without a prefix check the sinks
		// never got there; without new edges the prefix was the network.
		return false, nil
	}
	return d.edgesKConnected()
}

// verdictSink is the verdict trial's row consumer: the no-exit on a
// passed sensor below degree k, once per row, then the row's secure edges
// into secureEdge.
func (d *Deployer) verdictSink(u int32, vs []int32) bool {
	vt := &d.vt
	if u > vt.row {
		if d.sd.AnyBelowK(vt.row, u) {
			vt.exit = exitNo
			return false
		}
		vt.row = u
	}
	ix, q := d.ix, d.streamQ
	ix.BeginRow(u, len(vs))
	for _, v := range vs {
		if ix.RowHasAtLeast(u, v, q) && !d.secureEdge(u, v) {
			return false
		}
	}
	return true
}

// secureEdge feeds one secure edge of a verdict trial to its sinks and
// reports whether the trial goes on: false on a decided "yes" or an error.
func (d *Deployer) secureEdge(u, v int32) bool {
	vt := &d.vt
	d.sd.Add(u, v)
	if !vt.conn {
		if d.sd.AllAtLeastK() {
			vt.exit = exitYes
			return false
		}
		return true
	}
	d.suf.Add(u, v)
	if vt.k >= 2 {
		d.edges = append(d.edges, graph.Edge{U: u, V: v})
	}
	if vt.prefixEdges >= 0 || !d.suf.Done() || !d.sd.AllAtLeastK() {
		return true
	}
	if vt.k == 1 {
		vt.exit = exitYes
		return false
	}
	// The one prefix check: k-connected now means k-connected at the end.
	vt.prefixEdges = len(d.edges)
	ok, err := d.edgesKConnected()
	if err != nil {
		vt.err = err
		return false
	}
	if ok {
		vt.exit = exitYes
		return false
	}
	return true
}

// edgesKConnected builds the CSR graph of the secure edges collected so far
// and decides k-connectivity on it at the trial's level.
func (d *Deployer) edgesKConnected() (bool, error) {
	g, err := d.secBld.FromEdges(d.cfg.Sensors, d.edges)
	if err != nil {
		return false, err
	}
	return graphalgo.IsKConnectedW(d.algo, g, int(d.vt.k)), nil
}
