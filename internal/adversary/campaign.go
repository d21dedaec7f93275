package adversary

// Attack campaigns: an ordered timeline of composable attack (and defender)
// steps executed against ONE deployment, with per-step accounting. This is
// the q-composite resilience story run forward in time — the adversary
// captures sensors and learns keys, the environment fails nodes and jams
// links, the defender revokes compromised key material — and after every
// step the campaign reports how much of the network is still securely
// connected (the zero–one curve of arXiv:1206.1531 / arXiv:1612.02466, with
// the x axis an attack budget instead of a design parameter).
//
// Compromise state PROPAGATES across steps: keys learned by a capture in
// step i compromise links evaluated in any step j > i. The engine keeps an
// amortized bitset of the adversary's key knowledge plus a key→link
// incidence index over a one-time link snapshot, so learning a key
// re-classifies exactly the links that hold it (an O(incidence) decrement)
// instead of re-walking the network's links once per step.

import (
	"fmt"
	"math"
	"strconv"
	"strings"

	"github.com/secure-wsn/qcomposite/internal/bitset"
	"github.com/secure-wsn/qcomposite/internal/graphalgo"
	"github.com/secure-wsn/qcomposite/internal/keys"
	"github.com/secure-wsn/qcomposite/internal/rng"
	"github.com/secure-wsn/qcomposite/internal/wsn"
)

// StepKind enumerates the composable campaign step kinds.
type StepKind uint8

const (
	// StepCapture captures uniformly chosen alive, not-yet-captured sensors
	// (eavesdropping: the adversary learns their rings; the sensors keep
	// operating).
	StepCapture StepKind = iota
	// StepCaptureTargeted captures the highest-degree alive, not-yet-captured
	// sensors, degrees ranked over the alive-induced secure topology.
	StepCaptureTargeted
	// StepFailRandom fails uniformly chosen alive sensors (environmental
	// loss, not adversarial knowledge: no keys are learned).
	StepFailRandom
	// StepFailTargeted fails the highest-degree alive sensors.
	StepFailTargeted
	// StepJam fails uniformly chosen usable secure links — jamming perturbs
	// the channel mask under the secure topology without touching sensors or
	// key material.
	StepJam
	// StepRevoke is the defender's move: revoke the key rings of captured
	// sensors (oldest capture first) network-wide via wsn.RevokeNodeKeys.
	// Links left with fewer than q unrevoked shared keys are torn down and
	// the revoked sensors are retired from the network.
	StepRevoke
)

var stepKindNames = [...]string{
	StepCapture:         "capture",
	StepCaptureTargeted: "capture-targeted",
	StepFailRandom:      "fail",
	StepFailTargeted:    "fail-targeted",
	StepJam:             "jam",
	StepRevoke:          "revoke",
}

// String returns the timeline-spec name of the kind ("capture", "fail", ...).
func (k StepKind) String() string {
	if int(k) < len(stepKindNames) {
		return stepKindNames[k]
	}
	return fmt.Sprintf("StepKind(%d)", uint8(k))
}

// Step is one timeline entry: a step kind and its budget (sensors to capture
// or fail, links to jam, captured sensors to revoke).
type Step struct {
	Kind  StepKind
	Count int
}

// Timeline is an ordered sequence of campaign steps.
type Timeline []Step

// ParseTimeline parses a comma-separated timeline spec such as
// "capture:10,fail:5,capture:10". Each entry is kind:count with a positive
// count; kinds are the StepKind names (capture, capture-targeted, fail,
// fail-targeted, jam, revoke).
func ParseTimeline(spec string) (Timeline, error) {
	var tl Timeline
	total := 0
	for _, part := range strings.Split(spec, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		kindStr, countStr, ok := strings.Cut(part, ":")
		if !ok {
			return nil, fmt.Errorf("adversary: timeline step %q: want kind:count", part)
		}
		kind, err := parseStepKind(strings.TrimSpace(kindStr))
		if err != nil {
			return nil, fmt.Errorf("adversary: timeline step %q: %w", part, err)
		}
		count, err := strconv.Atoi(strings.TrimSpace(countStr))
		if err != nil || count <= 0 {
			return nil, fmt.Errorf("adversary: timeline step %q: count must be a positive integer", part)
		}
		if total > math.MaxInt-count {
			return nil, fmt.Errorf("adversary: timeline step %q: total budget overflows int", part)
		}
		total += count
		tl = append(tl, Step{Kind: kind, Count: count})
	}
	if len(tl) == 0 {
		return nil, fmt.Errorf("adversary: empty timeline %q", spec)
	}
	return tl, nil
}

func parseStepKind(name string) (StepKind, error) {
	for k, n := range stepKindNames {
		if n == name {
			return StepKind(k), nil
		}
	}
	return 0, fmt.Errorf("unknown step kind %q (have %s)", name, strings.Join(stepKindNames[:], ", "))
}

// String renders the timeline in ParseTimeline syntax.
func (tl Timeline) String() string {
	parts := make([]string, len(tl))
	for i, s := range tl {
		parts[i] = fmt.Sprintf("%s:%d", s.Kind, s.Count)
	}
	return strings.Join(parts, ",")
}

// TotalBudget returns the sum of all step counts — the campaign's total
// attack budget, the natural x axis of a resilience curve.
func (tl Timeline) TotalBudget() int {
	total := 0
	for _, s := range tl {
		total += s.Count
	}
	return total
}

// Prefix returns the timeline truncated to the first budget actions: whole
// leading steps, plus a shortened copy of the step the budget runs out in.
// A non-positive budget yields an empty timeline (the untouched network); a
// budget of at least TotalBudget() yields the timeline itself re-sliced.
// Sweeping Prefix over a budget axis traces one campaign unfolding.
func (tl Timeline) Prefix(budget int) Timeline {
	var out Timeline
	for _, s := range tl {
		if budget <= 0 {
			break
		}
		if s.Count > budget {
			s.Count = budget
		}
		out = append(out, s)
		budget -= s.Count
	}
	return out
}

// StepResult is the accounting after one campaign step. Counters labelled
// cumulative reflect the whole campaign up to and including this step.
type StepResult struct {
	// Step echoes the timeline entry that produced this result.
	Step Step
	// Acted is the number of actions actually performed: a step's Count is
	// clamped to the eligible targets left (alive uncaptured sensors, usable
	// links, unrevoked captured sensors).
	Acted int
	// Captured lists the sensors captured by THIS step (capture kinds only).
	Captured []int32
	// Failed lists the sensors retired by THIS step (fail and revoke kinds).
	Failed []int32
	// KeysLearned is the cumulative number of distinct pool keys the
	// adversary holds; NewKeys is this step's contribution.
	KeysLearned int
	NewKeys     int
	// CompromisedLinks counts external links (below) whose full shared-key
	// set the adversary knows — including via keys learned in EARLIER steps.
	CompromisedLinks int
	// TotalLinks counts the external links: secure links between two alive,
	// uncaptured sensors that are not jammed.
	TotalLinks int
	// TornLinks is the number of links torn down by this step's revocations.
	TornLinks int
	// Alive and CapturedTotal are the cumulative liveness and capture counts.
	Alive         int
	CapturedTotal int
	// SecureGiant is the size of the largest component of the uncompromised
	// secure subgraph: external links minus compromised ones, over alive
	// uncaptured sensors. SecureFraction is SecureGiant over the alive count
	// — the "fraction of the network still securely connected" statistic (a
	// captured sensor is alive but never securely connected).
	SecureGiant    int
	SecureFraction float64
}

// Fraction returns the compromised fraction of external links after this
// step (0 when none remain).
func (s StepResult) Fraction() float64 {
	if s.TotalLinks == 0 {
		return 0
	}
	return float64(s.CompromisedLinks) / float64(s.TotalLinks)
}

// CampaignResult is the outcome of a full campaign run: the pre-attack
// baseline plus one StepResult per executed timeline step.
type CampaignResult struct {
	Timeline Timeline
	// Baseline is the accounting of the untouched deployment (zero Step).
	Baseline StepResult
	Steps    []StepResult
}

// Final returns the last step's accounting, or the baseline for an empty
// timeline.
func (c *CampaignResult) Final() StepResult {
	if len(c.Steps) == 0 {
		return c.Baseline
	}
	return c.Steps[len(c.Steps)-1]
}

// campaign is the engine state threaded through one RunCampaign call.
type campaign struct {
	net *wsn.Network
	r   *rng.Rand

	known    *bitset.Set // adversary's key knowledge over the scheme's pool
	captured []bool
	order    []int32 // capture order — the revoke hand-off queue
	revoked  int     // prefix of order already revoked

	// Link snapshot with incremental classification: links[i].unknown counts
	// the shared keys of snapshot link i the adversary does NOT yet know;
	// learning key k decrements it for exactly the links in k's incidence
	// list keyLinks[keyOffs[k]:keyOffs[k+1]]. Rebuilt only when revocation
	// replaces the secure topology.
	links    []campLink
	linkIdx  map[[2]int32]int32
	keyOffs  []int32
	keyLinks []int32
	jammed   map[[2]int32]bool

	uf       *graphalgo.UnionFind
	eligible []bool // scratch: alive && !captured
}

type campLink struct {
	a, b    int32
	unknown int32
	jammed  bool
}

// RunCampaign executes the timeline against the deployed network, mutating
// it (failures, jamming, revocations) as the steps demand, and returns the
// per-step accounting. Randomized steps draw from r in timeline order, so a
// campaign is reproducible from (deployment seed, campaign seed, timeline).
// An empty timeline is valid and reports only the baseline.
func RunCampaign(net *wsn.Network, r *rng.Rand, tl Timeline) (*CampaignResult, error) {
	for _, s := range tl {
		if int(s.Kind) >= len(stepKindNames) {
			return nil, fmt.Errorf("adversary: campaign: invalid step kind %d", s.Kind)
		}
		if s.Count <= 0 {
			return nil, fmt.Errorf("adversary: campaign: step %s has non-positive count %d", s.Kind, s.Count)
		}
	}
	c := &campaign{
		net:      net,
		r:        r,
		known:    bitset.New(net.Scheme().PoolSize()),
		captured: make([]bool, net.Sensors()),
		jammed:   make(map[[2]int32]bool),
		uf:       graphalgo.NewUnionFind(net.Sensors()),
		eligible: make([]bool, net.Sensors()),
	}
	c.snapshot()
	res := &CampaignResult{Timeline: tl, Baseline: c.account(Step{})}
	for _, s := range tl {
		sr, err := c.step(s)
		if err != nil {
			return nil, err
		}
		res.Steps = append(res.Steps, sr)
	}
	return res, nil
}

// snapshot (re)builds the link table and the key→link incidence index from
// the network's current secure topology. Called once at campaign start and
// again after each revocation step (the only step that replaces the
// topology); capture, failure and jamming reuse the standing snapshot.
func (c *campaign) snapshot() {
	pool := c.net.Scheme().PoolSize()
	counts := make([]int32, pool+1)
	nLinks := 0
	c.net.ForEachLink(func(_, _ int32, shared []keys.ID) bool {
		for _, k := range shared {
			counts[k]++
		}
		nLinks++
		return true
	})
	offs := make([]int32, pool+1)
	total := int32(0)
	for k := 0; k < pool; k++ {
		offs[k] = total
		total += counts[k]
	}
	offs[pool] = total
	cur := append([]int32(nil), offs...)
	keyLinks := make([]int32, total)

	c.links = c.links[:0]
	c.linkIdx = make(map[[2]int32]int32, nLinks)
	c.net.ForEachLink(func(a, b int32, shared []keys.ID) bool {
		i := int32(len(c.links))
		unknown := 0
		for _, k := range shared {
			keyLinks[cur[k]] = i
			cur[k]++
			if !c.known.Contains(int(k)) {
				unknown++
			}
		}
		edge := [2]int32{a, b}
		c.links = append(c.links, campLink{a: a, b: b, unknown: int32(unknown), jammed: c.jammed[edge]})
		c.linkIdx[edge] = i
		return true
	})
	c.keyOffs, c.keyLinks = offs, keyLinks
}

// learnKey adds k to the adversary's knowledge and re-classifies exactly the
// snapshot links holding it.
func (c *campaign) learnKey(k keys.ID) {
	if c.known.Contains(int(k)) {
		return
	}
	c.known.Add(int(k))
	for _, li := range c.keyLinks[c.keyOffs[k]:c.keyOffs[k+1]] {
		c.links[li].unknown--
	}
}

// capture marks the sensors captured and learns their rings.
func (c *campaign) capture(ids []int32) error {
	for _, id := range ids {
		ring, err := c.net.Ring(id)
		if err != nil {
			return fmt.Errorf("adversary: campaign capture: %w", err)
		}
		c.captured[id] = true
		c.order = append(c.order, id)
		ring.ForEachID(func(k keys.ID) bool {
			c.learnKey(k)
			return true
		})
	}
	return nil
}

// eligibleIDs returns the alive, not-yet-captured sensor IDs ascending — the
// capture sampling universe (CaptureRandom's alive list, minus sensors the
// campaign already holds).
func (c *campaign) eligibleIDs() []int32 {
	ids := c.net.AppendAliveIDs(make([]int32, 0, c.net.AliveCount()))
	w := 0
	for _, id := range ids {
		if !c.captured[id] {
			ids[w] = id
			w++
		}
	}
	return ids[:w]
}

func (c *campaign) step(s Step) (StepResult, error) {
	keysBefore := c.known.Count()
	var capturedNow, failedNow []int32
	acted, torn := 0, 0
	switch s.Kind {
	case StepCapture:
		// Partial Fisher–Yates over the eligible list: on an untouched
		// network this is draw-for-draw identical to CaptureRandom.
		ids := c.eligibleIDs()
		acted = min(s.Count, len(ids))
		for i := 0; i < acted; i++ {
			j := i + c.r.Intn(len(ids)-i)
			ids[i], ids[j] = ids[j], ids[i]
		}
		capturedNow = append([]int32(nil), ids[:acted]...)
		if err := c.capture(capturedNow); err != nil {
			return StepResult{}, err
		}
	case StepCaptureTargeted:
		ranked, err := rankAliveByDegree(c.net)
		if err != nil {
			return StepResult{}, err
		}
		w := 0
		for _, id := range ranked {
			if !c.captured[id] {
				ranked[w] = id
				w++
			}
		}
		acted = min(s.Count, w)
		capturedNow = append([]int32(nil), ranked[:acted]...)
		if err := c.capture(capturedNow); err != nil {
			return StepResult{}, err
		}
	case StepFailRandom:
		acted = min(s.Count, c.net.AliveCount())
		failed, err := c.net.FailRandom(c.r, acted)
		if err != nil {
			return StepResult{}, fmt.Errorf("adversary: campaign fail: %w", err)
		}
		failedNow = failed
	case StepFailTargeted:
		ranked, err := rankAliveByDegree(c.net)
		if err != nil {
			return StepResult{}, err
		}
		acted = min(s.Count, len(ranked))
		failedNow = append([]int32(nil), ranked[:acted]...)
		if err := c.net.FailNodes(failedNow...); err != nil {
			return StepResult{}, fmt.Errorf("adversary: campaign fail-targeted: %w", err)
		}
	case StepJam:
		acted = min(s.Count, c.net.UsableLinkCount())
		chosen, err := c.net.FailRandomLinks(c.r, acted)
		if err != nil {
			return StepResult{}, fmt.Errorf("adversary: campaign jam: %w", err)
		}
		for _, edge := range chosen {
			c.jammed[edge] = true
			if idx, ok := c.linkIdx[edge]; ok {
				c.links[idx].jammed = true
			}
		}
	case StepRevoke:
		acted = min(s.Count, len(c.order)-c.revoked)
		if acted > 0 {
			ids := c.order[c.revoked : c.revoked+acted]
			// Revocation retires the revoked sensors; report only the ones
			// that were still alive going in.
			for _, id := range ids {
				if c.net.Alive(id) {
					failedNow = append(failedNow, id)
				}
			}
			t, err := c.net.RevokeNodeKeys(ids...)
			if err != nil {
				return StepResult{}, fmt.Errorf("adversary: campaign revoke: %w", err)
			}
			torn = t
			c.revoked += acted
			// Revocation replaced the secure topology; re-index against it.
			c.snapshot()
		}
	}
	res := c.account(s)
	res.Acted = acted
	res.Captured = capturedNow
	res.Failed = failedNow
	res.NewKeys = c.known.Count() - keysBefore
	res.TornLinks = torn
	return res, nil
}

// account classifies every snapshot link against the current campaign state
// and measures the uncompromised secure subgraph. The pass is O(links) with
// no shared-key walks: compromise is the standing unknown == 0 counter kept
// incrementally by learnKey.
func (c *campaign) account(s Step) StepResult {
	res := StepResult{
		Step:          s,
		KeysLearned:   c.known.Count(),
		Alive:         c.net.AliveCount(),
		CapturedTotal: len(c.order),
	}
	c.uf.Reset(c.net.Sensors())
	for i := range c.links {
		l := &c.links[i]
		if l.jammed || !c.net.Alive(l.a) || !c.net.Alive(l.b) {
			continue
		}
		if c.captured[l.a] || c.captured[l.b] {
			continue // trivially lost: an endpoint is in adversary hands
		}
		res.TotalLinks++
		if l.unknown == 0 {
			res.CompromisedLinks++
			continue
		}
		c.uf.Union(l.a, l.b)
	}
	for v := range c.eligible {
		c.eligible[v] = c.net.Alive(int32(v)) && !c.captured[v]
	}
	res.SecureGiant = c.uf.LargestAmong(c.eligible)
	if res.Alive > 0 {
		res.SecureFraction = float64(res.SecureGiant) / float64(res.Alive)
	}
	return res
}
