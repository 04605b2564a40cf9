// Custom trust graphs: build direct trust from observed interactions,
// compute global reputation with the paper's power method, compare it with
// the classic centrality measures, and watch how eviction reshapes the
// reputation distribution.
//
//	go run ./examples/customtrust
package main

import (
	"fmt"
	"log"
	"os"

	"gridvo/internal/matrix"
	"gridvo/internal/reputation"
	"gridvo/internal/trust"
)

func main() {
	// A small federation: five providers with asymmetric history.
	// delta is flaky (fails half its deliveries), eve is new (almost no
	// history, hence almost no trust).
	names := []string{"alpha", "beta", "gamma", "delta", "eve"}
	h := trust.NewHistory(5, 1)
	record := func(requester, provider int, outcomes ...bool) {
		for _, ok := range outcomes {
			if err := h.Record(requester, provider, ok); err != nil {
				log.Fatal(err)
			}
		}
	}
	record(0, 1, true, true, true, true) // alpha saw beta deliver 4/4
	record(0, 2, true, true, true)
	record(1, 0, true, true, true, true)
	record(1, 2, true, true)
	record(2, 0, true, true, true)
	record(2, 1, true, true, true)
	record(0, 3, true, false, false, true) // delta: 2/4
	record(1, 3, false, false, true)       // delta: 1/3
	record(2, 3, true, false)              // delta: 1/2
	record(3, 0, true, true)
	record(4, 0, true) // eve only ever asked alpha once
	record(0, 4, true) // and delivered once

	g := trust.NewGraph(5)
	if err := h.ApplyTo(g); err != nil {
		log.Fatal(err)
	}
	g.SetLabels(names)
	fmt.Println("derived trust graph:")
	for _, e := range g.Edges() {
		fmt.Printf("  %-5s → %-5s  %.3f\n", names[e.From], names[e.To], e.Weight)
	}

	// Global reputation: the power method of Algorithm 2 (eq. 6).
	x, diag, err := reputation.Global(g, reputation.DefaultOptions())
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\npower method converged in %d iterations (δ = %.2g)\n", diag.Iterations, diag.Delta)

	// Compare against the related-work centrality measures.
	fmt.Printf("\n%-12s", "GSP")
	measures := []reputation.Centrality{
		reputation.CentralityPower,
		reputation.CentralityInDegree,
		reputation.CentralityCloseness,
		reputation.CentralityBetweenness,
		reputation.CentralityPageRank,
	}
	for _, m := range measures {
		fmt.Printf("%12s", m)
	}
	fmt.Println()
	scores := make([][]float64, len(measures))
	for i, m := range measures {
		scores[i], err = reputation.Scores(g, m)
		if err != nil {
			log.Fatal(err)
		}
	}
	for gsp := 0; gsp < 5; gsp++ {
		fmt.Printf("%-12s", names[gsp])
		for i := range measures {
			fmt.Printf("%12.4f", scores[i][gsp])
		}
		fmt.Println()
	}

	// Evict the lowest-reputation member, TVOF-style, and recompute.
	lowest := matrix.ArgMin(x)
	fmt.Printf("\nlowest reputation: %s — evicting and recomputing within the rest\n", names[lowest])
	sub, keep := g.Without(lowest)
	x2, _, err := reputation.Global(sub, reputation.DefaultOptions())
	if err != nil {
		log.Fatal(err)
	}
	for i, orig := range keep {
		fmt.Printf("  %-5s %.4f → %.4f\n", names[orig], x[orig], x2[i])
	}

	// Export for visual inspection.
	fmt.Println("\nGraphviz DOT of the federation (pipe to `dot -Tsvg`):")
	if err := g.WriteDOT(os.Stdout); err != nil {
		log.Fatal(err)
	}
}
