// Trust evolution: the paper motivates trust by providers that promise
// resources and fail to deliver. This example closes that loop over
// repeated VO formations: GSPs have hidden reliabilities, every formed VO
// generates deliver/fail interactions, interactions update direct trust,
// and TVOF's reputation-based eviction progressively steers formation
// toward the reliable providers — while RVOF never learns.
//
//	go run ./examples/evolution
package main

import (
	"context"
	"fmt"
	"log"
	"strings"

	"gridvo/internal/mechanism"
	"gridvo/internal/sim"
)

func main() {
	cfg := sim.QuickConfig(11)
	cfg.NumGSPs = 10
	cfg.TrustEdgeProb = 0.4
	cfg.ProgramSizes = []int{64}
	cfg.TraceJobs = 3000
	env, err := sim.NewEnv(cfg)
	if err != nil {
		log.Fatal(err)
	}

	// Half the federation is reliable (95%), half is flaky (15%).
	rel := make([]float64, cfg.NumGSPs)
	for i := range rel {
		if i%2 == 0 {
			rel[i] = 0.95
		} else {
			rel[i] = 0.15
		}
	}
	fmt.Println("hidden reliabilities:", rel)

	const rounds = 8
	for _, rule := range []mechanism.EvictionRule{
		mechanism.EvictLowestReputation, mechanism.EvictRandom,
	} {
		res, err := env.RunEvolution(context.Background(), sim.EvolutionConfig{
			Rounds:      rounds,
			Rule:        rule,
			ProgramSize: 64,
			Reliability: rel,
		})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("\n%s — mean intrinsic reliability of the selected VO per round:\n", rule)
		for _, rd := range res.Rounds {
			bar := strings.Repeat("█", int(rd.MeanReliability*40))
			fmt.Printf("  round %d  |C|=%2d  %.3f %s\n", rd.Round, len(rd.Members), rd.MeanReliability, bar)
		}
	}
	fmt.Println("\nTVOF's selections drift toward the reliable half as trust accumulates;")
	fmt.Println("RVOF's stay near the population mean (~0.55).")
}
