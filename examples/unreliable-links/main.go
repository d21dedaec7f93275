// Unreliable links: what link unreliability does to a fixed deployment —
// the phenomenon that distinguishes this paper from the full-visibility
// literature it extends.
//
// A fleet of sensors is flashed with a fixed key configuration (K keys
// each). The example then sweeps the channel-on probability p from harsh
// (0.2) to perfect (1.0) and reports, at each quality level, the theoretical
// and empirical probability that the network is connected and 2-connected —
// showing the connectivity cliff an operator would fall off when deploying
// hardware tuned for clean channels into a noisy site.
//
// Run with: go run ./examples/unreliable-links
package main

import (
	"context"
	"fmt"
	"log"
	"os"

	"github.com/secure-wsn/qcomposite"
	"github.com/secure-wsn/qcomposite/internal/experiment"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("unreliable-links: ")

	const (
		n    = 1000
		pool = 10000
		ring = 55 // chosen so the network is comfortably connected at p = 1
		q    = 2
	)

	fmt.Printf("Fixed hardware: n=%d, K=%d, P=%d, q=%d. Sweeping channel quality p.\n\n",
		n, ring, pool, q)

	table := experiment.NewTable(
		"p", "edge prob t", "theory P[conn]", "empirical P[conn]", "theory P[2-conn]", "empirical P[2-conn]")
	var thConn, empConn experiment.Series
	thConn.Name = "theory P[connected]"
	empConn.Name = "empirical P[connected]"

	ctx := context.Background()
	for _, p := range []float64{0.2, 0.3, 0.4, 0.5, 0.6, 0.8, 1.0} {
		m := qcomposite.Model{N: n, K: ring, P: pool, Q: q, ChannelOn: p}
		tProb, err := m.EdgeProbability()
		if err != nil {
			log.Fatal(err)
		}
		th1, err := m.TheoreticalKConnProb(1)
		if err != nil {
			log.Fatal(err)
		}
		th2, err := m.TheoreticalKConnProb(2)
		if err != nil {
			log.Fatal(err)
		}
		cfg := qcomposite.EstimateConfig{Trials: 150, Seed: uint64(1000 * p)}
		e1, err := m.EstimateConnectivity(ctx, cfg)
		if err != nil {
			log.Fatal(err)
		}
		e2, err := m.EstimateKConnectivity(ctx, 2, cfg)
		if err != nil {
			log.Fatal(err)
		}
		thConn.Add(p, th1)
		empConn.Add(p, e1.Estimate())
		table.AddRow(
			fmt.Sprintf("%.1f", p),
			fmt.Sprintf("%.5f", tProb),
			fmt.Sprintf("%.3f", th1),
			fmt.Sprintf("%.3f", e1.Estimate()),
			fmt.Sprintf("%.3f", th2),
			fmt.Sprintf("%.3f", e2.Estimate()),
		)
	}
	if err := table.Render(os.Stdout); err != nil {
		log.Fatal(err)
	}
	fmt.Println()

	if err := experiment.RenderChart(os.Stdout, []experiment.Series{empConn, thConn}, experiment.ChartOptions{
		Title:  "Connectivity vs channel quality (fixed K)",
		XLabel: "channel-on probability p",
		YLabel: "P[connected]",
		YMin:   0, YMax: 1,
		Width: 72, Height: 18,
	}); err != nil {
		log.Fatal(err)
	}

	fmt.Println("\nReading: the same hardware that is reliably connected at p ≥ 0.6 is almost")
	fmt.Println("never connected at p = 0.3 — link unreliability must be budgeted into K")
	fmt.Println("up front (see examples/design-guidelines).")
}
