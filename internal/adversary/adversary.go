// Package adversary implements the node-capture attack model that motivates
// the q-composite scheme (paper Section I, after Chan–Perrig–Song): an
// adversary physically captures x sensors, learns every key they hold, and
// can then eavesdrop on any other link whose full shared-key set it knows —
// the link key is a hash of all shared keys, so one unknown shared key keeps
// the link safe.
//
// The package provides both the simulated attack against a deployed
// wsn.Network and the closed-form compromise probability, enabling the E7
// experiment: q ≥ 2 beats q = 1 against small-scale capture and loses at
// large scale.
package adversary

import (
	"fmt"
	"math"

	"github.com/secure-wsn/qcomposite/internal/bitset"
	"github.com/secure-wsn/qcomposite/internal/combin"
	"github.com/secure-wsn/qcomposite/internal/keys"
	"github.com/secure-wsn/qcomposite/internal/rng"
	"github.com/secure-wsn/qcomposite/internal/wsn"
)

// CaptureResult reports the outcome of a node-capture attack.
type CaptureResult struct {
	// Captured lists the captured sensor IDs.
	Captured []int32
	// KeysLearned is the number of distinct pool keys the adversary holds.
	KeysLearned int
	// CompromisedLinks counts secure links between two NON-captured sensors
	// whose entire shared-key set is known to the adversary.
	CompromisedLinks int
	// TotalLinks counts all secure links between non-captured sensors.
	TotalLinks int
}

// Fraction returns the compromised fraction of external links (0 when the
// network has no such links).
func (c CaptureResult) Fraction() float64 {
	if c.TotalLinks == 0 {
		return 0
	}
	return float64(c.CompromisedLinks) / float64(c.TotalLinks)
}

// CaptureRandom captures count uniformly chosen ALIVE sensors of the network
// and evaluates which external secure links become compromised. The network
// is not mutated (capture is eavesdropping, not failure injection).
//
// Only alive sensors can be captured: a failed sensor is physically gone, so
// there is no device to seize and no link of it left in TotalLinks — spending
// capture budget on it would silently weaken the attack. The draw is a
// partial Fisher–Yates over the alive-ID list, mirroring wsn.FailRandom; on
// a fully-alive network that list is 0..n−1, so the randomness consumption
// (count Intn draws) and the captured set are draw-for-draw identical to the
// historical all-sensors implementation.
func CaptureRandom(net *wsn.Network, r *rng.Rand, count int) (CaptureResult, error) {
	ids := net.AppendAliveIDs(make([]int32, 0, net.AliveCount()))
	if count < 0 || count > len(ids) {
		return CaptureResult{}, fmt.Errorf("adversary: cannot capture %d of %d alive sensors", count, len(ids))
	}
	for i := 0; i < count; i++ {
		j := i + r.Intn(len(ids)-i)
		ids[i], ids[j] = ids[j], ids[i]
	}
	captured := append([]int32(nil), ids[:count]...)
	return Capture(net, captured)
}

// Capture evaluates a node-capture attack on the given sensors. Every
// captured sensor must be alive: capturing a failed sensor is rejected, so
// its keys are never counted as learned — a dead sensor's links are already
// excluded from TotalLinks, and crediting the adversary with its ring would
// overstate the attack against the links that remain.
func Capture(net *wsn.Network, captured []int32) (CaptureResult, error) {
	n := net.Sensors()
	isCaptured := make([]bool, n)
	for _, id := range captured {
		if int(id) < 0 || int(id) >= n {
			return CaptureResult{}, fmt.Errorf("adversary: captured sensor %d out of range", id)
		}
		if !net.Alive(id) {
			return CaptureResult{}, fmt.Errorf("adversary: cannot capture failed sensor %d", id)
		}
		if isCaptured[id] {
			return CaptureResult{}, fmt.Errorf("adversary: sensor %d captured twice", id)
		}
		isCaptured[id] = true
	}
	// Collect the adversary's key set over the scheme's pool.
	known := bitset.New(net.Scheme().PoolSize())
	for _, id := range captured {
		ring, err := net.Ring(id)
		if err != nil {
			return CaptureResult{}, fmt.Errorf("adversary: capture: %w", err)
		}
		for _, k := range ring.IDs() {
			known.Add(int(k))
		}
	}

	res := CaptureResult{
		Captured:    captured,
		KeysLearned: known.Count(),
	}
	net.ForEachLink(func(a, b int32, shared []keys.ID) bool {
		if isCaptured[a] || isCaptured[b] {
			return true // links touching captured nodes are trivially lost
		}
		res.TotalLinks++
		for _, k := range shared {
			if !known.Contains(int(k)) {
				return true
			}
		}
		res.CompromisedLinks++
		return true
	})
	return res, nil
}

// AnalyticCompromiseFraction returns the Chan–Perrig–Song closed form for
// the probability that a secure link between two non-captured sensors is
// compromised after x random captures:
//
//	Σ_{i=q}^{K} (1 − (1 − K/P)^x)^i · P[shared = i | link established]
//
// where P[shared = i | link] is the hypergeometric overlap pmf conditioned
// on overlap ≥ q. Each of the i shared keys must have leaked; a key leaks
// iff any captured ring holds it, which happens with probability
// 1 − (1 − K/P)^x independently per key (asymptotically, for rings drawn
// from a large pool).
func AnalyticCompromiseFraction(pool, ring, q, captured int) (float64, error) {
	if captured < 0 {
		return 0, fmt.Errorf("adversary: negative capture count %d", captured)
	}
	if q < 1 || ring < q || pool < ring {
		return 0, fmt.Errorf("adversary: invalid scheme parameters pool=%d ring=%d q=%d", pool, ring, q)
	}
	if captured == 0 {
		return 0, nil
	}
	pLeak := 1 - math.Pow(1-float64(ring)/float64(pool), float64(captured))
	tail, err := combin.HypergeomTail(pool, ring, q)
	if err != nil {
		return 0, fmt.Errorf("adversary: analytic compromise: %w", err)
	}
	if tail == 0 {
		return 0, nil
	}
	sum := 0.0
	for i := q; i <= ring; i++ {
		pmf, err := combin.HypergeomPMF(pool, ring, i)
		if err != nil {
			return 0, fmt.Errorf("adversary: analytic compromise: %w", err)
		}
		if pmf == 0 {
			continue
		}
		sum += math.Pow(pLeak, float64(i)) * pmf / tail
	}
	if sum > 1 {
		sum = 1
	}
	return sum, nil
}
