package wsn

import (
	"fmt"

	"github.com/secure-wsn/qcomposite/internal/bitset"
	"github.com/secure-wsn/qcomposite/internal/graph"
	"github.com/secure-wsn/qcomposite/internal/graphalgo"
	"github.com/secure-wsn/qcomposite/internal/keys"
)

// Key revocation: when a sensor is detected as captured, the standard
// response (Eschenauer–Gligor Section 2.3, inherited by q-composite) is to
// revoke every key in its ring network-wide. Links that no longer have q
// unrevoked shared keys must be torn down and, if possible, re-established
// over the surviving key material.
//
// Revocation interacts with the paper's connectivity analysis: each
// revocation thins the effective key rings, sliding the network left along
// the Figure-1 curve — RevocationImpact quantifies that slide.

// RevokeNodeKeys revokes every key held by the given sensors (typically
// ones reported captured) and recomputes which secure links survive: a link
// survives iff it still has at least q unrevoked shared keys. Surviving
// links re-derive their link key from the surviving shared set; the revoked
// sensors themselves are failed.
//
// The operation is cumulative across calls. It returns the number of links
// torn down (among links between non-revoked, alive sensors).
func (n *Network) RevokeNodeKeys(ids ...int32) (int, error) {
	for _, id := range ids {
		if int(id) < 0 || int(id) >= n.cfg.Sensors {
			return 0, fmt.Errorf("wsn: revoke: sensor %d out of range", id)
		}
	}
	if n.revoked == nil {
		n.revoked = bitset.New(n.cfg.Scheme.PoolSize())
	}
	for _, id := range ids {
		n.rings[id].ForEachID(func(k keys.ID) bool {
			n.revoked.Add(int(k))
			return true
		})
	}
	// Fail the revoked sensors (idempotently).
	for _, id := range ids {
		if n.alive[id] {
			n.alive[id] = false
			n.deadN++
		}
	}
	// Rebuild the secure topology against the cumulative revocation list: a
	// link survives iff ≥ q of its shared keys are unrevoked. Link keys for
	// the surviving shared sets are re-derived lazily on next access.
	q := n.cfg.Scheme.RequiredOverlap()
	torn := 0
	var edges []graph.Edge
	n.forEachShared(n.secure, func(u, v int32, shared []keys.ID) {
		if len(n.surviving(shared)) >= q {
			edges = append(edges, graph.Edge{U: u, V: v})
		} else if n.alive[u] && n.alive[v] {
			torn++
		}
	})
	secure, err := graph.NewFromEdges(n.cfg.Sensors, edges)
	if err != nil {
		return 0, fmt.Errorf("wsn: revoke: %w", err)
	}
	n.secure = secure
	n.invalidateLinks()
	return torn, nil
}

// RevokedKeyCount returns the number of distinct keys revoked so far.
func (n *Network) RevokedKeyCount() int {
	if n.revoked == nil {
		return 0
	}
	return n.revoked.Count()
}

// RevocationImpact summarises the state after revocations.
type RevocationImpact struct {
	// RevokedKeys is the cumulative number of revoked pool keys.
	RevokedKeys int
	// EffectiveRingMean is the mean number of unrevoked keys per alive
	// sensor — the effective K the network now operates at.
	EffectiveRingMean float64
	// SecureLinks counts usable links among alive sensors.
	SecureLinks int
	// Connected reports connectivity of the surviving topology.
	Connected bool
}

// Impact computes the current RevocationImpact.
func (n *Network) Impact() (RevocationImpact, error) {
	imp := RevocationImpact{RevokedKeys: n.RevokedKeyCount()}
	aliveCount := 0
	totalEff := 0
	for v := 0; v < n.cfg.Sensors; v++ {
		if !n.alive[v] {
			continue
		}
		aliveCount++
		if n.revoked == nil {
			totalEff += n.rings[v].Len()
			continue
		}
		for _, k := range n.rings[v].IDs() {
			if !n.revoked.Contains(int(k)) {
				totalEff++
			}
		}
	}
	if aliveCount > 0 {
		imp.EffectiveRingMean = float64(totalEff) / float64(aliveCount)
	}
	sub, _, err := n.SecureTopology()
	if err != nil {
		return RevocationImpact{}, err
	}
	imp.SecureLinks = sub.M()
	imp.Connected = graphalgo.IsConnected(sub)
	return imp, nil
}
