package wsn

import (
	"fmt"

	"github.com/secure-wsn/qcomposite/internal/graph"
	"github.com/secure-wsn/qcomposite/internal/graphalgo"
	"github.com/secure-wsn/qcomposite/internal/rng"
)

// One row consumer serves every deployment mode, steered by a trial
// descriptor: which sinks the secure edges feed (degree counters at level
// k, the union-find, the edge list) and how the pass ends. A stopping pass
// stops as soon as its answer is decided either way:
//
//   - yes, on every channel model: the union-find (if fed) spans and every
//     degree has reached k; at k ≥ 2, k-connectivity first checks the edges
//     seen so far, once (adding edges never lowers vertex connectivity; a
//     failed check lets the pass run to its end);
//   - no, with the row exit on and a row-major model (channel.RowMajor):
//     once the draw moves past a sensor it yields no further edge at that
//     sensor, so a passed sensor below degree k settles "no". The check
//     runs once per row, when the row of a new sensor arrives.
//
// Deploy and the degree counts never stop. A verdict that ends undecided is
// decided on its full secure edge set, so every mode equals the CSR path
// exactly. An early exit leaves the rest of the channel draw unconsumed:
// the generator handed in must not be used again within the same trial.

// trial describes one pass of the pipeline and holds its state, read by the
// Deployer's row consumer.
type trial struct {
	k       int32 // degree level of the degree counters; 0 leaves them unfed
	uf      bool  // feed the union-find
	edges   bool  // collect the secure edges into Deployer.edges
	stop    bool  // stop on "yes": the union-find (if fed) spans and every degree has reached k
	check   bool  // before a "yes", check the edges so far for k-connectivity (k ≥ 2)
	rowExit bool  // stop on "no" at a passed sensor below degree k (row-major models)

	// row is the row of the draw so far when the row exit is on: every
	// sensor below it has been checked against k. MaxInt32 turns the row
	// check off.
	row int32
	// prefixEdges is the secure edge count at the one prefix
	// k-connectivity check, or -1 before it.
	prefixEdges int
	exit        verdictExit
	err         error
}

// verdictExit records how the last pass ended.
type verdictExit uint8

const (
	exitDrained verdictExit = iota // the draw ran to its end
	exitYes                        // stopped on a decided "yes"
	exitNo                         // stopped on a passed sensor below degree k
)

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
	ok, err := d.verdict(r, trial{k: int32(k), uf: true, edges: k >= 2, stop: true, check: k >= 2, rowExit: true})
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
	ok, err := d.verdict(r, trial{k: int32(k), stop: true, rowExit: true})
	if err != nil {
		return false, fmt.Errorf("wsn: min-degree verdict: %w", err)
	}
	return ok, nil
}

// verdict runs one verdict pass at level tr.k ≥ 1 and decides it.
func (d *Deployer) verdict(r *rng.Rand, tr trial) (bool, error) {
	if _, err := d.pass(r, tr); err != nil {
		return false, err
	}
	switch tr := &d.tr; {
	case tr.err != nil:
		return false, tr.err
	case tr.exit != exitDrained:
		return tr.exit == exitYes, nil
	case tr.prefixEdges < 0 || tr.prefixEdges == len(d.edges):
		// The draw decides every "yes" but one: a failed prefix check
		// followed by more secure edges. Without a prefix check the sinks
		// never got there; without new edges the prefix was the network.
		return false, nil
	}
	return d.edgesKConnected()
}

// rowSink is the one row consumer: the "no" exit once per row, then one
// intersector call that keeps the row's secure neighbours, then each secure
// edge, in row order, into the sinks of the pass and through its stop
// rule, whose test is inline; stopAt decides the rare edge that meets it.
func (d *Deployer) rowSink(u int32, vs []int32) bool {
	tr := &d.tr
	if u > tr.row {
		if d.sd.AnyBelowK(tr.row, u) {
			tr.exit = exitNo
			return false
		}
		tr.row = u
	}
	d.secureRow = d.ix.AppendAtLeast(u, vs, d.streamQ, d.secureRow[:0])
	for _, v := range d.secureRow {
		if tr.edges {
			d.edges = append(d.edges, graph.Edge{U: u, V: v})
		}
		if tr.uf {
			d.suf.Add(u, v)
		}
		if tr.k > 0 {
			d.sd.Add(u, v)
		}
		// The stop rule: the union-find (if fed) spans and every degree has
		// reached k, once per pass.
		if tr.stop && tr.prefixEdges < 0 && (!tr.uf || d.suf.Done()) && (tr.k == 0 || d.sd.AllAtLeastK()) && d.stopAt() {
			return false
		}
	}
	return true
}

// stopAt decides the first secure edge that meets the stop rule and reports
// whether the pass stops: on a "yes" or an error, but not when a k ≥ 2
// prefix check finds the edges so far not k-connected.
func (d *Deployer) stopAt() bool {
	tr := &d.tr
	if tr.check {
		// The one prefix check: k-connected now means k-connected at the end.
		tr.prefixEdges = len(d.edges)
		ok, err := d.edgesKConnected()
		if err != nil {
			tr.err = err
			return true
		}
		if !ok {
			return false
		}
	}
	tr.exit = exitYes
	return true
}

// edgesKConnected builds the CSR graph of the secure edges collected so far
// and decides k-connectivity on it at the trial's level.
func (d *Deployer) edgesKConnected() (bool, error) {
	g, err := d.secBld.FromEdges(d.cfg.Sensors, d.edges)
	if err != nil {
		return false, err
	}
	return graphalgo.IsKConnectedW(d.algo, g, int(d.tr.k)), nil
}
