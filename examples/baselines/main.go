// Baselines and game analytics: compare the branch-and-bound assignment
// solver against the classic mapping heuristics on one scenario, then
// analyze the induced coalitional game — equal shares vs Shapley values,
// core membership, and the Definition-1 stability of TVOF's output.
//
//	go run ./examples/baselines
package main

import (
	"context"
	"fmt"
	"log"

	"gridvo/internal/assign"
	"gridvo/internal/coalition"
	"gridvo/internal/grid"
	"gridvo/internal/mechanism"
	"gridvo/internal/trust"
	"gridvo/internal/workload"
	"gridvo/internal/xrand"
)

func main() {
	rng := xrand.New(7)

	// A 5-GSP, 60-task scenario, small enough for exact analytics.
	const m, n = 5, 60
	prog := workload.Synthetic(rng.Split("prog"), "demo", n, 40000, 9000)
	gsps := grid.GenerateGSPs(rng.Split("gsps"), m)
	sc := &mechanism.Scenario{
		Program: prog,
		GSPs:    gsps,
		Cost:    grid.CostMatrix(rng.Split("cost"), m, prog),
		Time:    grid.TimeMatrix(gsps, prog),
		Trust:   trust.ErdosRenyi(rng.Split("trust"), m, 0.4),
	}
	grand := []int{0, 1, 2, 3, 4}
	dp := rng.Split("dp")
	for {
		sc.Deadline = 4 * grid.Deadline(dp, prog)
		sc.Payment = grid.Payment(dp, prog.N())
		if assign.Solve(sc.Instance(grand), assign.Options{}).Feasible {
			break
		}
	}

	// --- Part 1: assignment solver vs heuristics -----------------------
	in := sc.Instance(grand)
	exact := assign.Solve(in, assign.Options{})
	fmt.Printf("IP-B&B:       cost %9.2f  optimal=%v  nodes=%d\n", exact.Cost, exact.Optimal, exact.Nodes)
	for _, h := range []assign.Heuristic{
		assign.HeuristicGreedyCost, assign.HeuristicMCT,
		assign.HeuristicMinMin, assign.HeuristicMaxMin, assign.HeuristicSufferage,
	} {
		a := assign.RunHeuristic(in, h)
		if a == nil || assign.Verify(in, a) != nil {
			fmt.Printf("%-12s  infeasible\n", h)
			continue
		}
		c := assign.TotalCost(in, a)
		fmt.Printf("%-12s  cost %9.2f  (+%.1f%% over optimal)\n", h, c, 100*(c-exact.Cost)/exact.Cost)
	}

	// --- Part 2: the coalitional game ----------------------------------
	// v(C) = P − C(T,C) when the IP is feasible (eq. 15). Memoized: the
	// 2^5 = 32 coalitions cost 31 IP solves.
	game := coalition.NewGame(m, func(members []int) float64 {
		sol := assign.Solve(sc.Instance(members), assign.Options{})
		if !sol.Feasible {
			return 0
		}
		return sc.Payment - sol.Cost
	})
	grandValue := game.Value(grand)
	equal := game.EqualShares(grand)
	shapley := game.Shapley()
	fmt.Printf("\nv(grand) = %.2f; equal share = %.2f each\n", grandValue, equal)
	fmt.Println("Shapley values (the rule the paper rejects as intractable at scale):")
	for i, phi := range shapley {
		fmt.Printf("  %-4s φ = %9.2f (equal-share delta %+.2f)\n", gsps[i].Name, phi, phi-equal)
	}
	equalVec := make([]float64, m)
	for i := range equalVec {
		equalVec[i] = equal
	}
	if ok, blocking := game.InCore(equalVec, 1e-6); ok {
		fmt.Println("equal sharing lies in the core of this instance")
	} else {
		fmt.Printf("equal sharing is blocked by coalition %v — the core motivates TVOF's\n", blocking)
		fmt.Println("restriction to a single selected VO instead of a grand-coalition split")
	}

	// --- Part 3: TVOF and stability ------------------------------------
	ctx := context.Background()
	res, err := mechanism.TVOFContext(ctx, sc, rng.Split("tvof"))
	if err != nil {
		log.Fatal(err)
	}
	final := res.Final()
	fmt.Printf("\nTVOF selected VO %v: payoff %.2f, avg reputation %.4f\n",
		final.Members, final.Payoff, final.AvgReputation)
	stable, who, err := mechanism.StabilityCheckContext(ctx, sc, res, mechanism.Options{}, mechanism.CriterionTotal)
	if err != nil {
		log.Fatal(err)
	}
	if stable {
		fmt.Println("individually stable (Definition 1, total-reputation criterion): yes")
	} else {
		fmt.Printf("individually stable: NO — %s could leave\n", gsps[who].Name)
	}
}
