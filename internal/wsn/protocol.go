package wsn

import (
	"fmt"

	"github.com/secure-wsn/qcomposite/internal/stats"
)

// Message sizes (bytes) for the discovery protocol cost model. Key IDs
// travel as 4-byte integers; challenges/acknowledgements carry a hash-sized
// payload.
const (
	keyIDBytes     = 4
	headerBytes    = 8  // source, destination/broadcast marker, type
	challengeBytes = 32 // nonce/MAC under the candidate link key
)

// DiscoveryStats reports the communication cost of running shared-key
// discovery and link establishment over the deployed network, following the
// standard q-composite handshake: every sensor broadcasts its key IDs once;
// for every channel neighbor with ≥ q shared keys, a challenge/response
// pair under the derived link key confirms the link.
type DiscoveryStats struct {
	// Broadcasts is the number of key-ID broadcast frames (one per sensor).
	Broadcasts int
	// BroadcastBytes is the total bytes across all broadcast frames.
	BroadcastBytes int64
	// Unicasts is the number of challenge/response frames (two per
	// established link).
	Unicasts int
	// UnicastBytes is the total bytes across challenge/response frames.
	UnicastBytes int64
	// KeyComparisons counts pairwise ring-intersection work performed by
	// receivers (one sorted-merge step each).
	KeyComparisons int64
	// EstablishedLinks is the number of secure links confirmed.
	EstablishedLinks int
	// ChannelNeighborsMean is the mean number of channel neighbors per
	// sensor (the audience of each broadcast).
	ChannelNeighborsMean float64
	// PerSensorBytes summarises bytes transmitted per sensor — the radio
	// energy proxy (transmission dominates sensor energy budgets).
	PerSensorBytes SummaryStats
}

// SummaryStats is a plain-old-data summary of a per-sensor distribution.
type SummaryStats struct {
	Mean, Max, StdDev float64
}

// SimulateDiscovery computes the deterministic communication cost of the
// discovery handshake on the deployed network (it does not change network
// state; the links are already established by Deploy, which models the same
// exchange).
func (n *Network) SimulateDiscovery() (DiscoveryStats, error) {
	if n.cfg.Sensors == 0 {
		return DiscoveryStats{}, nil
	}
	channels, err := n.channelGraph()
	if err != nil {
		return DiscoveryStats{}, err
	}
	sent := make([]int64, n.cfg.Sensors)
	st := DiscoveryStats{}

	// Phase 1: one key-ID broadcast per sensor, heard by channel neighbors.
	// Frames are sized by the sensor's actual ring (per-class sizes under a
	// heterogeneous scheme); each neighbor merges the received ring against
	// its own, one sorted merge of |ring_v| + |ring_w| steps.
	totalNeighbors := 0
	for v := int32(0); int(v) < n.cfg.Sensors; v++ {
		broadcastFrame := int64(headerBytes + n.rings[v].Len()*keyIDBytes)
		st.Broadcasts++
		st.BroadcastBytes += broadcastFrame
		sent[v] += broadcastFrame
		totalNeighbors += channels.Degree(v)
	}
	channels.ForEachEdge(func(u, v int32) bool {
		// Both endpoints hear each other's broadcast; each runs one merge.
		st.KeyComparisons += 2 * int64(n.rings[u].Len()+n.rings[v].Len())
		return true
	})
	st.ChannelNeighborsMean = float64(totalNeighbors) / float64(n.cfg.Sensors)

	// Phase 2: challenge/response per qualifying channel edge. The
	// lower-indexed endpoint issues the challenge; the peer acknowledges.
	q := n.cfg.Scheme.RequiredOverlap()
	channels.ForEachEdge(func(u, v int32) bool {
		shared := n.rings[u].SharedCount(n.rings[v])
		if shared < q {
			return true
		}
		frame := int64(headerBytes + challengeBytes)
		st.Unicasts += 2
		st.UnicastBytes += 2 * frame
		sent[u] += frame
		sent[v] += frame
		st.EstablishedLinks++
		return true
	})

	var summary stats.Summary
	for _, b := range sent {
		summary.Add(float64(b))
	}
	st.PerSensorBytes = SummaryStats{
		Mean:   summary.Mean(),
		Max:    summary.Max(),
		StdDev: summary.StdDev(),
	}
	if st.EstablishedLinks != n.secure.M() {
		// Deploy and SimulateDiscovery must agree by construction.
		return DiscoveryStats{}, fmt.Errorf(
			"wsn: discovery found %d links but deployment established %d",
			st.EstablishedLinks, n.secure.M())
	}
	return st, nil
}
