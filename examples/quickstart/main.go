// Quickstart: form a virtual organization for one grid application using
// the gridvo facade.
//
// The experiment environment reproduces the paper's Table I setup in a
// reduced "quick" variant (small synthetic trace, small programs) so this
// example finishes in a couple of seconds:
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"log"
	"os"

	"gridvo"
)

func main() {
	// A reproducible experiment environment: synthetic Atlas-like trace,
	// 16 GSPs, Erdős–Rényi trust graph.
	exp, err := gridvo.NewQuickExperiment(42)
	if err != nil {
		log.Fatal(err)
	}

	// One scenario: a 128-task program extracted from the trace, plus
	// generated cost/time matrices, deadline and payment.
	sc, err := exp.Scenario(128, 0)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("scenario: %d tasks on %d GSPs, deadline %.0fs, payment %.0f\n",
		sc.N(), sc.M(), sc.Deadline, sc.Payment)

	// Run the trust-based VO formation mechanism (Algorithm 1).
	res, err := gridvo.FormVO(sc, gridvo.TVOF, 7)
	if err != nil {
		log.Fatal(err)
	}

	// Wall-clock time goes to stderr so stdout is the same on every run.
	fmt.Printf("\nTVOF explored %d VOs (%d feasible)\n", len(res.Iterations), res.FeasibleCount())
	fmt.Fprintf(os.Stderr, "TVOF ran in %s\n", res.Duration)
	for i := range res.Iterations {
		rec := &res.Iterations[i]
		marker := " "
		if i == res.Selected {
			marker = "*"
		}
		fmt.Printf("%s |C|=%2d feasible=%-5v payoff=%8.2f avg_reputation=%.4f\n",
			marker, rec.Size(), rec.Feasible, rec.Payoff, rec.AvgReputation)
	}

	final := res.Final()
	fmt.Printf("\nselected VO: GSPs %v\n", final.Members)
	fmt.Printf("each member earns %.2f for the job\n", final.Payoff)
}
