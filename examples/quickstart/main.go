// Quickstart: the five-minute tour of the library.
//
// It builds the paper's model G_{n,q}(n, K, P, p) for a realistic sensor
// deployment, asks the theory for the k-connectivity probability, checks it
// against a Monte Carlo estimate, and prints the design rule output.
//
// Run with: go run ./examples/quickstart
package main

import (
	"context"
	"fmt"
	"log"

	"github.com/secure-wsn/qcomposite"
	"github.com/secure-wsn/qcomposite/internal/rng"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("quickstart: ")

	// A WSN with 1000 sensors. Each sensor stores 50 keys drawn from a pool
	// of 10000; two sensors can talk securely iff they share ≥ 2 keys AND
	// their wireless channel is up, which happens with probability 0.5
	// (lossy environment).
	m := qcomposite.Model{N: 1000, K: 50, P: 10000, Q: 2, ChannelOn: 0.5}
	if err := m.Validate(); err != nil {
		log.Fatal(err)
	}
	fmt.Println("model:", m)

	// Exact finite-n link probabilities (eqs. (3)-(5) of the paper).
	s, err := m.KeyShareProbability()
	if err != nil {
		log.Fatal(err)
	}
	t, err := m.EdgeProbability()
	if err != nil {
		log.Fatal(err)
	}
	deg, err := m.ExpectedDegree()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("P[two sensors share >= 2 keys]   s = %.5f\n", s)
	fmt.Printf("P[secure usable link]            t = %.5f\n", t)
	fmt.Printf("expected secure degree               %.2f\n", deg)

	// Theorem 1: asymptotically exact probability of k-connectivity.
	for k := 1; k <= 3; k++ {
		p, err := m.TheoreticalKConnProb(k)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("theory: P[%d-connected] = %.4f\n", k, p)
	}

	// Check the k = 1 prediction empirically (Figure 1's estimator).
	est, err := m.EstimateConnectivity(context.Background(), qcomposite.EstimateConfig{
		Trials: 200,
		Seed:   7,
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("empirical: P[connected] = %s\n", est)

	// Sample one concrete topology and inspect it.
	g, err := m.Sample(rng.New(42))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("one sampled topology: %d nodes, %d secure links, min degree %d\n",
		g.N(), g.M(), g.MinDegree())

	// Design rules: how many keys must each sensor hold?
	kstar, err := qcomposite.ThresholdK(m.N, m.P, m.Q, m.ChannelOn)
	if err != nil {
		log.Fatal(err)
	}
	k99, err := qcomposite.DesignK(m.N, m.P, m.Q, m.ChannelOn, 2, 0.99)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("design: connectivity threshold K* = %d (eq. (9))\n", kstar)
	fmt.Printf("design: smallest K with P[2-connected] >= 0.99: %d\n", k99)
}
