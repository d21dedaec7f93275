// Package wsn is the wireless sensor network simulator: it deploys sensors
// with a key predistribution scheme, samples the physical channel model,
// runs shared-key discovery over usable channels, and exposes the resulting
// secure topology — exactly the graph G_{n,q}(n,K,P,p) = G_q(n,K,P) ∩ G(n,p)
// of the paper's Section II — together with the operational queries a
// deployment cares about: secure paths, k-connectivity, failure injection,
// and per-link keys.
package wsn

import (
	"fmt"

	"github.com/secure-wsn/qcomposite/internal/bitset"
	"github.com/secure-wsn/qcomposite/internal/channel"
	"github.com/secure-wsn/qcomposite/internal/graph"
	"github.com/secure-wsn/qcomposite/internal/graphalgo"
	"github.com/secure-wsn/qcomposite/internal/keys"
	"github.com/secure-wsn/qcomposite/internal/rng"
)

// Config describes a deployment. The scheme's sensor classes are a
// deployment-level concept: the per-sensor class labels drawn during key
// predistribution are shared with the channel model when it is class-aware
// (channel.ClassModel, e.g. channel.HeterOnOff), so both layers see one
// class assignment. validate checks that such a pairing is coherent.
type Config struct {
	// Sensors is the number of sensors n.
	Sensors int
	// Scheme is the key predistribution scheme (e.g. keys.NewQComposite for
	// the uniform model, keys.NewHeterogeneous for per-class ring sizes).
	Scheme keys.Scheme
	// Channel is the physical link model (e.g. channel.OnOff{P: 0.5}, or
	// channel.HeterOnOff for per-class on/off probabilities).
	Channel channel.Model
	// Seed drives all randomness of the deployment deterministically.
	Seed uint64
}

func (c Config) validate() error {
	if c.Sensors < 0 {
		return fmt.Errorf("wsn: negative sensor count %d", c.Sensors)
	}
	if c.Scheme == nil {
		return fmt.Errorf("wsn: missing key predistribution scheme")
	}
	if c.Channel == nil {
		return fmt.Errorf("wsn: missing channel model")
	}
	if err := c.Channel.Validate(); err != nil {
		return fmt.Errorf("wsn: invalid channel model: %w", err)
	}
	schemeClasses := len(c.Scheme.Classes())
	if schemeClasses == 0 {
		return fmt.Errorf("wsn: scheme %q declares no sensor classes", c.Scheme.Name())
	}
	// A multi-class scheme under a class-blind channel is the
	// heterogeneous-keys/uniform-channel model of arXiv:1604.00460 and needs
	// no check; a class-aware channel must agree with the scheme on the
	// number of classes, since they share one label assignment.
	if cm, ok := c.Channel.(channel.ClassModel); ok {
		if cm.ClassCount() != schemeClasses {
			return fmt.Errorf("wsn: channel model %q expects %d sensor classes but scheme %q declares %d",
				c.Channel.Name(), cm.ClassCount(), c.Scheme.Name(), schemeClasses)
		}
	}
	return nil
}

// Link is an established secure link between two sensors.
type Link struct {
	// A and B are the endpoints, A < B.
	A, B int32
	// SharedKeys are the key IDs both endpoints hold (≥ q of them).
	SharedKeys []keys.ID
	// Key is the derived pairwise link key.
	Key [keys.LinkKeySize]byte
}

// Network is a deployed WSN. It is not safe for concurrent mutation; treat
// a Network as owned by one goroutine.
//
// Link keys are derived lazily: shared-key discovery during deployment only
// decides which links exist, and the per-link SHA-256 key material is
// materialized on the first Link/Links access (and again after revocations,
// which change the surviving shared sets). Connectivity-only workloads
// therefore never pay for key derivation.
type Network struct {
	cfg         Config
	rings       []keys.Ring
	labels      []uint8 // per-sensor class labels; nil = single class
	secure      *graph.Undirected
	alive       []bool
	deadN       int
	failedLinks map[[2]int32]bool
	revoked     *bitset.Set

	// Connectivity scratch shared with the owning Deployer (nil for
	// networks assembled outside a Deployer); used transiently by
	// IsConnected/IsKConnected queries.
	algo *graphalgo.Workspace

	// The channel graph is not kept by the deployment: chanRand is the
	// generator state its draw started from, and channels is the CSR
	// re-emitted from it through chanBld on first use (nil until then).
	chanRand rng.Rand
	chanBld  *graph.Builder
	channels *graph.Undirected

	// Lazily materialized link table over the current secure topology.
	// sharedReady reports whether linkStore holds every link's endpoints
	// and shared keys for the current state, linksReady whether linkIdx
	// and the link keys are built too (revocation and redeployment
	// invalidate both, keeping the grown buffers).
	sharedReady bool
	linksReady  bool
	linkIdx     map[[2]int32]int32
	linkStore   []Link
	linkFlat    []keys.ID // flat arena behind linkStore[i].SharedKeys
	linkOffs    []int     // per-link offsets into linkFlat
	sharedBuf   []keys.ID // scratch for shared-set queries
}

// reset re-points the network at a fresh deployment's state, reusing the
// grown buffers (liveness flags, link-table storage, channel builder) it
// already owns. chanRand is the generator state the deployment's channel
// draw started from. Called by Deployer on its double-buffered Network
// slots.
func (n *Network) reset(cfg Config, rings []keys.Ring, labels []uint8,
	chanRand *rng.Rand, secure *graph.Undirected, algo *graphalgo.Workspace) {
	n.cfg = cfg
	n.rings = rings
	n.labels = labels
	n.chanRand = *chanRand
	n.channels = nil
	n.secure = secure
	n.algo = algo
	sensors := cfg.Sensors
	if cap(n.alive) < sensors {
		n.alive = make([]bool, sensors)
	}
	n.alive = n.alive[:sensors]
	for i := range n.alive {
		n.alive[i] = true
	}
	n.deadN = 0
	n.failedLinks = nil
	n.revoked = nil
	n.invalidateLinks()
}

// Deploy assigns key rings, samples the channel model, and performs
// shared-key discovery over every usable channel, establishing a secure link
// wherever at least q keys are shared.
//
// Deploy is the one-shot entry point; Monte Carlo workloads that deploy
// repeatedly should use a Deployer (or DeployerPool), which amortizes every
// internal buffer across deployments.
func Deploy(cfg Config) (*Network, error) {
	d, err := NewDeployer(cfg)
	if err != nil {
		return nil, err
	}
	return d.Deploy(cfg.Seed)
}

// materializeShared builds the shared-key half of the link table: one
// entry per secure edge with its endpoints and surviving shared keys, the
// keys collected into a flat arena. Called lazily from ForEachLink and
// materializeLinks. The arenas are reused across invalidations, so
// re-materializing (after revocation or Deployer reuse) allocates only on
// growth.
func (n *Network) materializeShared() {
	if n.sharedReady {
		return
	}
	if m := n.secure.M(); cap(n.linkStore) < m {
		n.linkStore = make([]Link, 0, m)
	}
	n.linkStore = n.linkStore[:0]
	flat := n.linkFlat[:0]
	offs := append(n.linkOffs[:0], 0)
	n.secure.ForEachEdge(func(u, v int32) bool {
		flat = n.appendSurvivingShared(u, v, flat)
		offs = append(offs, len(flat))
		n.linkStore = append(n.linkStore, Link{A: u, B: v})
		return true
	})
	n.linkFlat, n.linkOffs = flat, offs
	for i := range n.linkStore {
		n.linkStore[i].SharedKeys = flat[offs[i]:offs[i+1]:offs[i+1]]
	}
	n.sharedReady = true
}

// materializeLinks completes the link table for Link and Links: the index
// map and every link key. Called lazily from both; the index map is reused
// across invalidations.
func (n *Network) materializeLinks() {
	if n.linksReady {
		return
	}
	n.materializeShared()
	if n.linkIdx == nil {
		n.linkIdx = make(map[[2]int32]int32, len(n.linkStore))
	} else {
		clear(n.linkIdx)
	}
	for i := range n.linkStore {
		l := &n.linkStore[i]
		n.linkIdx[[2]int32{l.A, l.B}] = int32(i)
		l.Key = keys.DeriveLinkKey(l.SharedKeys)
	}
	n.linksReady = true
}

// invalidateLinks drops the materialized link table (after revocation or
// redeployment), keeping its storage for the next materialization.
func (n *Network) invalidateLinks() {
	n.sharedReady, n.linksReady = false, false
	n.linkStore = n.linkStore[:0]
}

// appendSurvivingShared appends the shared keys of u and v that have not
// been revoked, in ascending order.
func (n *Network) appendSurvivingShared(u, v int32, dst []keys.ID) []keys.ID {
	start := len(dst)
	dst = n.rings[u].AppendShared(n.rings[v], dst)
	if n.revoked == nil {
		return dst
	}
	w := start
	for _, k := range dst[start:] {
		if !n.revoked.Contains(int(k)) {
			dst[w] = k
			w++
		}
	}
	return dst[:w]
}

// Sensors returns the number of deployed sensors.
func (n *Network) Sensors() int { return n.cfg.Sensors }

// Scheme returns the key predistribution scheme the network was deployed
// with.
func (n *Network) Scheme() keys.Scheme { return n.cfg.Scheme }

// AliveCount returns the number of non-failed sensors.
func (n *Network) AliveCount() int { return n.cfg.Sensors - n.deadN }

// Alive reports whether sensor v has not failed.
func (n *Network) Alive(v int32) bool {
	return int(v) >= 0 && int(v) < len(n.alive) && n.alive[v]
}

// AppendAliveIDs appends the IDs of all alive sensors to dst in ascending
// order and returns the extended slice. It is the sampling universe for
// liveness-aware random processes (FailRandom, adversary.CaptureRandom): a
// partial Fisher–Yates over this list draws uniformly from alive sensors
// only.
func (n *Network) AppendAliveIDs(dst []int32) []int32 {
	for v, ok := range n.alive {
		if ok {
			dst = append(dst, int32(v))
		}
	}
	return dst
}

// Ring returns sensor v's key ring.
func (n *Network) Ring(v int32) (keys.Ring, error) {
	if int(v) < 0 || int(v) >= len(n.rings) {
		return keys.Ring{}, fmt.Errorf("wsn: sensor %d out of range", v)
	}
	return n.rings[v], nil
}

// channelGraph returns the sampled channel graph (ignores failures). The
// first call re-emits the deployment's channel draw from its saved starting
// state into CSR, drawing exactly the edges discovery streamed; later calls
// return the same graph. Neither touches any caller's generator.
func (n *Network) channelGraph() (*graph.Undirected, error) {
	if n.channels != nil {
		return n.channels, nil
	}
	if n.chanBld == nil {
		n.chanBld = graph.NewBuilder()
	}
	r := n.chanRand
	g, err := channel.Sample(n.cfg.Channel, &r, n.cfg.Sensors, n.labels, n.chanBld)
	if err != nil {
		return nil, fmt.Errorf("wsn: channel topology: %w", err)
	}
	n.channels = g
	return g, nil
}

// FullSecureTopology returns the secure topology over all sensors, failed or
// not — the graph G_{n,q} the paper analyses.
func (n *Network) FullSecureTopology() *graph.Undirected { return n.secure }

// SecureTopology returns the secure topology induced by the currently alive
// sensors, relabelled densely, along with the mapping from new index to
// original sensor ID.
func (n *Network) SecureTopology() (*graph.Undirected, []int32, error) {
	sub, orig, err := graph.InducedSubgraph(n.secure, n.alive)
	if err != nil {
		return nil, nil, fmt.Errorf("wsn: secure topology: %w", err)
	}
	return sub, orig, nil
}

// Link returns the established secure link between u and v, if any. Links
// to or from failed sensors are reported as absent. The first call (after
// deployment or revocation) materializes the link table, deriving every
// link key.
func (n *Network) Link(u, v int32) (*Link, bool) {
	if u == v || !n.Alive(u) || !n.Alive(v) {
		return nil, false
	}
	if u > v {
		u, v = v, u
	}
	n.materializeLinks()
	idx, ok := n.linkIdx[[2]int32{u, v}]
	if !ok {
		return nil, false
	}
	// Copy at the boundary: callers must not mutate internal state.
	l := &n.linkStore[idx]
	cp := *l
	cp.SharedKeys = append([]keys.ID(nil), l.SharedKeys...)
	return &cp, true
}

// Links returns all currently usable secure links (both endpoints alive).
// Like Link, the first call materializes the link table.
func (n *Network) Links() []Link {
	n.materializeLinks()
	out := make([]Link, 0, len(n.linkStore))
	for i := range n.linkStore {
		l := &n.linkStore[i]
		if n.alive[l.A] && n.alive[l.B] {
			cp := *l
			cp.SharedKeys = append([]keys.ID(nil), l.SharedKeys...)
			out = append(out, cp)
		}
	}
	return out
}

// ForEachLink calls yield with the endpoints and surviving shared keys of
// every currently usable secure link, in Links order, until yield returns
// false. The first call after deployment or revocation collects the shared
// keys; unlike Links it derives no link key, builds no index and copies
// nothing. shared is valid only during the call and must not be modified.
func (n *Network) ForEachLink(yield func(a, b int32, shared []keys.ID) bool) {
	n.materializeShared()
	for i := range n.linkStore {
		l := &n.linkStore[i]
		if n.alive[l.A] && n.alive[l.B] && !yield(l.A, l.B, l.SharedKeys) {
			return
		}
	}
}

// IsConnected reports whether the alive part of the network is connected.
// With no failed sensors it runs directly on the full secure topology,
// skipping the induced-subgraph copy — the hot path of connectivity trials,
// which runs through the Deployer's reusable graphalgo.Workspace (one-shot
// scratch for networks deployed outside a Deployer).
func (n *Network) IsConnected() (bool, error) {
	if n.deadN == 0 {
		return graphalgo.IsConnectedW(n.algo, n.secure), nil
	}
	sub, _, err := n.SecureTopology()
	if err != nil {
		return false, err
	}
	return graphalgo.IsConnectedW(n.algo, sub), nil
}

// IsKConnected reports whether the alive part of the network is k-connected
// (the paper's resilience property: it survives any k−1 further failures).
func (n *Network) IsKConnected(k int) (bool, error) {
	if n.deadN == 0 {
		return graphalgo.IsKConnectedW(n.algo, n.secure, k), nil
	}
	sub, _, err := n.SecureTopology()
	if err != nil {
		return false, err
	}
	return graphalgo.IsKConnectedW(n.algo, sub, k), nil
}

// SecurePath returns a shortest multi-hop path of secure links between alive
// sensors a and b (inclusive, in original sensor IDs), or nil when no such
// path exists.
func (n *Network) SecurePath(a, b int32) ([]int32, error) {
	if !n.Alive(a) || !n.Alive(b) {
		return nil, fmt.Errorf("wsn: secure path endpoints must be alive sensors (a=%d, b=%d)", a, b)
	}
	sub, orig, err := n.SecureTopology()
	if err != nil {
		return nil, err
	}
	// Map original IDs to induced indices.
	newID := make(map[int32]int32, len(orig))
	for i, o := range orig {
		newID[o] = int32(i)
	}
	path := graphalgo.ShortestPath(sub, newID[a], newID[b])
	if path == nil {
		return nil, nil
	}
	out := make([]int32, len(path))
	for i, v := range path {
		out[i] = orig[v]
	}
	return out, nil
}

// FailNodes marks the given sensors as failed. Failing an already-failed or
// out-of-range sensor is an error.
func (n *Network) FailNodes(ids ...int32) error {
	for _, id := range ids {
		if int(id) < 0 || int(id) >= len(n.alive) {
			return fmt.Errorf("wsn: sensor %d out of range", id)
		}
		if !n.alive[id] {
			return fmt.Errorf("wsn: sensor %d already failed", id)
		}
	}
	for _, id := range ids {
		n.alive[id] = false
		n.deadN++
	}
	return nil
}

// FailRandom fails count uniformly chosen alive sensors and returns their
// IDs.
func (n *Network) FailRandom(r *rng.Rand, count int) ([]int32, error) {
	aliveIDs := n.AppendAliveIDs(make([]int32, 0, n.AliveCount()))
	if count < 0 || count > len(aliveIDs) {
		return nil, fmt.Errorf("wsn: cannot fail %d of %d alive sensors", count, len(aliveIDs))
	}
	// Partial Fisher–Yates over the alive list.
	for i := 0; i < count; i++ {
		j := i + r.Intn(len(aliveIDs)-i)
		aliveIDs[i], aliveIDs[j] = aliveIDs[j], aliveIDs[i]
	}
	chosen := append([]int32(nil), aliveIDs[:count]...)
	if err := n.FailNodes(chosen...); err != nil {
		return nil, err
	}
	return chosen, nil
}

// ClassReport is the per-class slice of a Report: the deployment-level
// class assignment plus per-class topology statistics, serialized alongside
// the aggregate report.
type ClassReport struct {
	// Mu and RingSize echo the scheme's class profile.
	Mu       float64 `json:"mu"`
	RingSize int     `json:"ring_size"`
	// Sensors and Alive count the sensors the deployment assigned to the
	// class, and how many of those have not failed.
	Sensors int `json:"sensors"`
	Alive   int `json:"alive"`
	// MeanDegree is the mean secure degree of the class's alive sensors in
	// the alive secure topology (the heterogeneous analysis' per-class
	// degree: the smallest class bounds connectivity).
	MeanDegree float64 `json:"mean_degree"`
}

// Report summarises the deployed network. It is the stable serialized form
// of a Snapshot (JSON tags), so experiment tooling can persist deployment
// summaries alongside graph serializations.
type Report struct {
	Sensors        int     `json:"sensors"`
	Alive          int     `json:"alive"`
	SecureLinks    int     `json:"secure_links"`  // usable secure links among alive sensors
	ChannelEdges   int     `json:"channel_edges"` // raw channel graph edges
	MinDegree      int     `json:"min_degree"`    // of the alive secure topology
	MeanDegree     float64 `json:"mean_degree"`   // of the alive secure topology
	Components     int     `json:"components"`
	LargestComp    int     `json:"largest_component"`
	Connected      bool    `json:"connected"`
	SchemeName     string  `json:"scheme"`
	ChannelName    string  `json:"channel"`
	RequiredShared int     `json:"required_shared"`
	// Classes holds one entry per scheme class, in class-index order.
	// Single-class deployments report one entry covering every sensor.
	Classes []ClassReport `json:"classes"`
}

// Snapshot computes a Report for the current network state, including the
// per-class metadata of the deployment's class assignment.
func (n *Network) Snapshot() (Report, error) {
	sub, orig, err := n.SecureTopology()
	if err != nil {
		return Report{}, err
	}
	channels, err := n.channelGraph()
	if err != nil {
		return Report{}, err
	}
	_, comps := graphalgo.Components(sub)
	rep := Report{
		Sensors:        n.cfg.Sensors,
		Alive:          n.AliveCount(),
		SecureLinks:    sub.M(),
		ChannelEdges:   channels.M(),
		MinDegree:      sub.MinDegree(),
		Components:     comps,
		LargestComp:    graphalgo.LargestComponentSize(sub),
		Connected:      comps <= 1,
		SchemeName:     n.cfg.Scheme.Name(),
		ChannelName:    n.cfg.Channel.Name(),
		RequiredShared: n.cfg.Scheme.RequiredOverlap(),
	}
	if sub.N() > 0 {
		rep.MeanDegree = 2 * float64(sub.M()) / float64(sub.N())
	}

	classes := n.cfg.Scheme.Classes()
	rep.Classes = make([]ClassReport, len(classes))
	for i, c := range classes {
		rep.Classes[i].Mu = c.Mu
		rep.Classes[i].RingSize = c.RingSize
	}
	for v := 0; v < n.cfg.Sensors; v++ {
		c := 0
		if n.labels != nil {
			c = int(n.labels[v])
		}
		rep.Classes[c].Sensors++
		if n.alive[v] {
			rep.Classes[c].Alive++
		}
	}
	// Per-class mean secure degree over alive sensors (sub is the alive
	// topology; orig maps its vertices back to sensor IDs).
	degSum := make([]float64, len(classes))
	for i := 0; i < sub.N(); i++ {
		c := 0
		if n.labels != nil {
			c = int(n.labels[orig[i]])
		}
		degSum[c] += float64(sub.Degree(int32(i)))
	}
	for i := range rep.Classes {
		if rep.Classes[i].Alive > 0 {
			rep.Classes[i].MeanDegree = degSum[i] / float64(rep.Classes[i].Alive)
		}
	}
	return rep, nil
}
