package wsn

import (
	"fmt"

	"github.com/secure-wsn/qcomposite/internal/graph"
	"github.com/secure-wsn/qcomposite/internal/graphalgo"
	"github.com/secure-wsn/qcomposite/internal/rng"
)

// Link failures complement node failures: the paper's robustness notion is
// "connectivity despite the failure of any (k−1) sensors OR links". Failed
// links are tracked separately from node failures so both can be injected
// and restored independently.

// FailLink marks the secure link between u and v as failed. It is an error
// if no usable secure link exists between them.
func (n *Network) FailLink(u, v int32) error {
	if u == v {
		return fmt.Errorf("wsn: cannot fail a self-link (%d)", u)
	}
	if !n.Alive(u) || !n.Alive(v) {
		return fmt.Errorf("wsn: link endpoints must be alive (%d, %d)", u, v)
	}
	if u > v {
		u, v = v, u
	}
	key := [2]int32{u, v}
	if !n.secure.HasEdge(u, v) {
		return fmt.Errorf("wsn: no secure link between %d and %d", u, v)
	}
	if n.failedLinks == nil {
		n.failedLinks = make(map[[2]int32]bool)
	}
	if n.failedLinks[key] {
		return fmt.Errorf("wsn: link (%d,%d) already failed", u, v)
	}
	n.failedLinks[key] = true
	return nil
}

// FailRandomLinks fails count uniformly chosen usable secure links and
// returns them.
func (n *Network) FailRandomLinks(r *rng.Rand, count int) ([][2]int32, error) {
	usable := n.usableLinkKeys()
	if count < 0 || count > len(usable) {
		return nil, fmt.Errorf("wsn: cannot fail %d of %d usable links", count, len(usable))
	}
	for i := 0; i < count; i++ {
		j := i + r.Intn(len(usable)-i)
		usable[i], usable[j] = usable[j], usable[i]
	}
	chosen := usable[:count]
	for _, key := range chosen {
		if err := n.FailLink(key[0], key[1]); err != nil {
			return nil, err
		}
	}
	return append([][2]int32(nil), chosen...), nil
}

// usableLinkKeys lists secure links with both endpoints alive and the link
// itself not failed, in deterministic (sorted edge) order.
func (n *Network) usableLinkKeys() [][2]int32 {
	out := make([][2]int32, 0, n.secure.M())
	n.secure.ForEachEdge(func(u, v int32) bool {
		key := [2]int32{u, v}
		if n.alive[u] && n.alive[v] && !n.failedLinks[key] {
			out = append(out, key)
		}
		return true
	})
	return out
}

// UsableLinkCount returns the number of currently usable secure links: both
// endpoints alive and the link itself not failed — the sampling universe of
// FailRandomLinks, exposed so callers (e.g. jamming campaigns) can clamp a
// link-failure budget before drawing.
func (n *Network) UsableLinkCount() int {
	count := 0
	n.secure.ForEachEdge(func(u, v int32) bool {
		if n.alive[u] && n.alive[v] && !n.failedLinks[[2]int32{u, v}] {
			count++
		}
		return true
	})
	return count
}

// FailedLinkCount returns the number of currently failed links.
func (n *Network) FailedLinkCount() int { return len(n.failedLinks) }

// operationalTopology returns the secure topology restricted to alive
// sensors AND non-failed links, densely relabelled with the new→original
// mapping.
func (n *Network) operationalTopology() (*graph.Undirected, []int32, error) {
	if len(n.failedLinks) == 0 {
		return n.SecureTopology()
	}
	newID := make([]int32, n.cfg.Sensors)
	var orig []int32
	for v := 0; v < n.cfg.Sensors; v++ {
		if n.alive[v] {
			newID[v] = int32(len(orig))
			orig = append(orig, int32(v))
		} else {
			newID[v] = -1
		}
	}
	var edges []graph.Edge
	n.secure.ForEachEdge(func(u, v int32) bool {
		if n.alive[u] && n.alive[v] && !n.failedLinks[[2]int32{u, v}] {
			edges = append(edges, graph.Edge{U: newID[u], V: newID[v]})
		}
		return true
	})
	sub, err := graph.NewFromEdges(len(orig), edges)
	if err != nil {
		return nil, nil, fmt.Errorf("wsn: operational topology: %w", err)
	}
	return sub, orig, nil
}

// IsOperationallyConnected reports connectivity of the alive,
// non-failed-link topology.
func (n *Network) IsOperationallyConnected() (bool, error) {
	sub, _, err := n.operationalTopology()
	if err != nil {
		return false, err
	}
	return graphalgo.IsConnected(sub), nil
}

// IsKEdgeConnected reports whether the operational topology survives any
// k−1 link failures (λ ≥ k).
func (n *Network) IsKEdgeConnected(k int) (bool, error) {
	sub, _, err := n.operationalTopology()
	if err != nil {
		return false, err
	}
	return graphalgo.IsKEdgeConnected(sub, k), nil
}
