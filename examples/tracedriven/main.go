// Trace-driven pipeline: the full path from a Parallel Workloads Archive
// trace to a formed VO, mirroring Section IV-A of the paper step by step —
// generate (or load) an SWF trace, filter the large completed jobs, derive
// an application program, generate Table I parameters, and compare TVOF
// against the RVOF baseline on the same scenario.
//
//	go run ./examples/tracedriven
package main

import (
	"context"
	"fmt"
	"log"
	"os"

	"gridvo/internal/assign"
	"gridvo/internal/grid"
	"gridvo/internal/mechanism"
	"gridvo/internal/swf"
	"gridvo/internal/trust"
	"gridvo/internal/workload"
	"gridvo/internal/xrand"
)

func main() {
	rng := xrand.New(2026)

	// 1. The workload trace. GenerateAtlas reproduces the marginal
	//    statistics of LLNL-Atlas-2006-2.1-cln; to use the real file:
	//    f, _ := os.Open("LLNL-Atlas-2006-2.1-cln.swf"); tr, _ := swf.Parse(f)
	tr := swf.GenerateAtlas(rng.Split("trace"), swf.GenOptions{NumJobs: 8000})
	fmt.Println("trace:", tr.Summarize(swf.LargeRunTimeSec))

	// 2. The paper's job selection: completed, runtime ≥ 7200 s.
	cat := workload.NewCatalog(tr, 0, 0)
	fmt.Printf("eligible program sizes: %d distinct, 256-task supply: %d jobs\n",
		len(cat.Sizes()), cat.Count(256))

	// 3. A 256-task application program (the size Figs. 4–8 use).
	prog, err := cat.Pick(rng.Split("prog"), 256, "A")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("program %s: %d tasks, %.0f GFLOP total, source job %d\n",
		prog.Name, prog.N(), prog.TotalWork(), prog.SourceJob)

	// 4. Table I parameters: 16 GSPs, Braun costs, consistent times,
	//    Erdős–Rényi p=0.1 trust.
	gsps := grid.GenerateGSPs(rng.Split("gsps"), 16)
	sc := &mechanism.Scenario{
		Program: prog,
		GSPs:    gsps,
		Cost:    grid.CostMatrix(rng.Split("cost"), 16, prog),
		Time:    grid.TimeMatrix(gsps, prog),
		Trust:   trust.ErdosRenyi(rng.Split("trust"), 16, 0.1),
	}
	// Resample deadline/payment until the grand coalition is feasible,
	// as the paper guarantees.
	grand := make([]int, 16)
	for i := range grand {
		grand[i] = i
	}
	dp := rng.Split("dp")
	for {
		sc.Deadline = grid.Deadline(dp, prog)
		sc.Payment = grid.Payment(dp, prog.N())
		if assign.Solve(sc.Instance(grand), assign.Options{}).Feasible {
			break
		}
	}
	fmt.Printf("deadline %.0fs, payment %.0f\n\n", sc.Deadline, sc.Payment)

	// 5. TVOF vs RVOF on the identical scenario.
	for _, rule := range []mechanism.EvictionRule{
		mechanism.EvictLowestReputation, mechanism.EvictRandom,
	} {
		res, err := mechanism.RunContext(context.Background(), sc, mechanism.Options{Eviction: rule}, rng.Split("run-"+rule.String()))
		if err != nil {
			log.Fatal(err)
		}
		final := res.Final()
		fmt.Printf("%-5s: final |C|=%2d payoff=%9.2f avg_reputation=%.4f (%d iterations)\n",
			rule, final.Size(), final.Payoff, final.AvgReputation, len(res.Iterations))
		// Wall-clock time goes to stderr so stdout is the same on every run.
		fmt.Fprintf(os.Stderr, "%s ran in %s\n", rule, res.Duration.Round(1000))
	}
	fmt.Println("\nTVOF keeps the high-reputation core; RVOF matches payoff but not reputation.")
}
