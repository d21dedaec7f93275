// Design guidelines: dimensioning a real deployment with the paper's
// theory, the workflow of Section III's discussion.
//
// Scenario: an operator must deploy n sensors in a harsh environment where
// only a fraction p of channels work. Sensor memory is scarce, so the key
// ring must be as small as possible — but the network must stay connected
// even if two sensors die (3-connectivity) with 99% probability. The example
// walks the trade-off across environments and overlap requirements and
// prints the memory cost of robustness.
//
// Run with: go run ./examples/design-guidelines
package main

import (
	"fmt"
	"log"

	"github.com/secure-wsn/qcomposite"
	"github.com/secure-wsn/qcomposite/internal/experiment"
	"os"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("design-guidelines: ")

	const (
		n      = 2000
		pool   = 20000 // pool scales linearly with n (paper's Section III)
		target = 0.99
	)

	fmt.Printf("Deployment: n=%d sensors, pool P=%d, target probability %.2f\n\n", n, pool, target)

	// 1. Memory cost of link unreliability: as channels degrade, each
	//    sensor must carry more keys to keep 2-connectivity.
	fmt.Println("Key ring size needed for 99% 2-connectivity as channels degrade (q=2):")
	t1 := experiment.NewTable("channel on-probability p", "min ring K", "keys of memory wasted vs p=1")
	base := 0
	for _, p := range []float64{1.0, 0.8, 0.6, 0.4, 0.2} {
		ring, err := qcomposite.DesignK(n, pool, 2, p, 2, target)
		if err != nil {
			log.Fatal(err)
		}
		if p == 1.0 {
			base = ring
		}
		t1.AddRow(fmt.Sprintf("%.1f", p), fmt.Sprintf("%d", ring), fmt.Sprintf("+%d", ring-base))
	}
	if err := t1.Render(os.Stdout); err != nil {
		log.Fatal(err)
	}

	// 2. Security/memory trade-off in q: a larger overlap requirement
	//    strengthens links against small-scale capture (see the
	//    attack-resilience example) but costs keys.
	fmt.Println("\nKey ring size needed for 99% 2-connectivity as q grows (p=0.5):")
	t2 := experiment.NewTable("q", "min ring K", "edge probability t at that K")
	for q := 1; q <= 4; q++ {
		ring, err := qcomposite.DesignK(n, pool, q, 0.5, 2, target)
		if err != nil {
			log.Fatal(err)
		}
		m := qcomposite.Model{N: n, K: ring, P: pool, Q: q, ChannelOn: 0.5}
		tProb, err := m.EdgeProbability()
		if err != nil {
			log.Fatal(err)
		}
		t2.AddRow(fmt.Sprintf("%d", q), fmt.Sprintf("%d", ring), fmt.Sprintf("%.5f", tProb))
	}
	if err := t2.Render(os.Stdout); err != nil {
		log.Fatal(err)
	}

	// 3. Robustness ladder: the marginal memory cost of each extra level of
	//    k-connectivity at fixed q and p.
	fmt.Println("\nMemory cost of robustness (q=2, p=0.5):")
	t3 := experiment.NewTable("k (survives k-1 failures)", "min ring K", "theory P[k-conn]")
	for k := 1; k <= 4; k++ {
		ring, err := qcomposite.DesignK(n, pool, 2, 0.5, k, target)
		if err != nil {
			log.Fatal(err)
		}
		m := qcomposite.Model{N: n, K: ring, P: pool, Q: 2, ChannelOn: 0.5}
		got, err := m.TheoreticalKConnProb(k)
		if err != nil {
			log.Fatal(err)
		}
		t3.AddRow(fmt.Sprintf("%d", k), fmt.Sprintf("%d", ring), fmt.Sprintf("%.4f", got))
	}
	if err := t3.Render(os.Stdout); err != nil {
		log.Fatal(err)
	}

	fmt.Println("\nReading: the dominant memory cost is channel unreliability, not robustness —")
	fmt.Println("doubling failures tolerated costs ~1-2 keys, but halving channel quality costs tens.")
}
