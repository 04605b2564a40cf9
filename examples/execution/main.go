// Execution with failure injection: form a VO with TVOF, then actually
// *run* the program on its members with a discrete-event simulator in
// which unreliable providers renege mid-execution. Orphaned tasks are
// rescheduled onto surviving members; delivery outcomes feed back into
// direct trust, and a re-formed VO avoids the provider that burned it.
//
//	go run ./examples/execution
package main

import (
	"context"
	"fmt"
	"log"

	"gridvo/internal/assign"
	"gridvo/internal/exec"
	"gridvo/internal/grid"
	"gridvo/internal/mechanism"
	"gridvo/internal/trust"
	"gridvo/internal/workload"
	"gridvo/internal/xrand"
)

func main() {
	rng := xrand.New(99)
	const m = 8

	// Hidden reliabilities: provider 3 is a lemon.
	reliability := []float64{0.99, 0.95, 0.97, 0.05, 0.96, 0.98, 0.94, 0.97}

	prog := workload.Synthetic(rng.Split("prog"), "job", 96, 30000, 9000)
	gsps := grid.GenerateGSPs(rng.Split("gsps"), m)
	tg := trust.ErdosRenyi(rng.Split("trust"), m, 0.5)
	// On paper the lemon looks great: every provider starts out trusting
	// it highly, so the first VO will include it.
	for i := 0; i < m; i++ {
		if i != 3 {
			tg.SetTrust(i, 3, 1.0)
		}
	}
	sc := &mechanism.Scenario{
		Program: prog,
		GSPs:    gsps,
		Cost:    grid.CostMatrix(rng.Split("cost"), m, prog),
		Time:    grid.TimeMatrix(gsps, prog),
		Trust:   tg,
	}
	grand := make([]int, m)
	for i := range grand {
		grand[i] = i
	}
	dp := rng.Split("dp")
	for {
		sc.Deadline = 1.2 * grid.Deadline(dp, prog)
		sc.Payment = grid.Payment(dp, prog.N())
		if assign.Solve(sc.Instance(grand), assign.Options{}).Feasible {
			break
		}
	}

	hist := trust.NewHistory(m)
	for round := 1; round <= 3; round++ {
		fmt.Printf("── round %d ──────────────────────────────\n", round)
		res, err := mechanism.TVOFContext(context.Background(), sc, rng.Split(fmt.Sprintf("tvof-%d", round)))
		if err != nil {
			log.Fatal(err)
		}
		final := res.Final()
		if final == nil {
			fmt.Println("no feasible VO this round")
			continue
		}
		fmt.Printf("formed VO %v (payoff %.2f, reputation %.4f)\n",
			final.Members, final.Payoff, final.AvgReputation)

		// Execute the mapping on the members with failure injection.
		rep, members, err := mechanism.ExecuteFinal(sc, res, reliability,
			exec.Options{}, rng.Split(fmt.Sprintf("exec-%d", round)))
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("executed: completed=%v makespan=%.0fs/%.0fs rescheduled=%d tasks\n",
			rep.Completed, rep.MakespanSec, sc.Deadline, rep.Rescheduled)
		for i, g := range members {
			status := "delivered"
			if !rep.Delivered[i] {
				status = "RENEGED"
			}
			fmt.Printf("  %s: %-9s busy %5.1fs\n", gsps[g].Name, status, rep.BusySec[i])
		}

		// Every member observed every other member's behaviour.
		if err := mechanism.RecordOutcomes(hist, members, rep); err != nil {
			log.Fatal(err)
		}
		if err := hist.ApplyTo(sc.Trust); err != nil {
			log.Fatal(err)
		}
		fmt.Println()
	}
	fmt.Println("after the lemon reneges once, trust collapses and TVOF stops inviting it.")
}
