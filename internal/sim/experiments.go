package sim

import (
	"context"
	"fmt"

	"gridvo/internal/mechanism"
)

// SweepPoint aggregates the replicated runs at one program size. Slices
// are indexed by repetition; a repetition appears in all slices or none.
type SweepPoint struct {
	Size int
	// Per-repetition metrics of the final (selected) VO.
	TVOFPayoff, RVOFPayoff []float64 // Fig. 1: individual payoff
	TVOFSize, RVOFSize     []float64 // Fig. 2: |C| of the final VO
	TVOFRep, RVOFRep       []float64 // Fig. 3: avg global reputation
	TVOFSec, RVOFSec       []float64 // Fig. 9: execution time (seconds)
	// FeasibilityRetries per repetition (experiment metadata).
	Retries []float64
}

// SweepResult is the full size × repetition grid — the single data source
// behind Figs. 1, 2, 3 and 9.
type SweepResult struct {
	Points []SweepPoint
	// Stats aggregates solver-engine activity over every mechanism run
	// of the sweep (fresh IP solves, cache hits, B&B nodes, solver wall
	// time). Counter sums are order-independent, so serial and parallel
	// sweeps report identical stats.
	Stats mechanism.EngineStats
}

// Fig4Program is one of the ten 256-task programs of Fig. 4.
type Fig4Program struct {
	Name string
	// PayoffBest is the individual payoff of TVOF's selected VO (max
	// payoff rule).
	PayoffBest float64
	// PayoffByProduct is the individual payoff of the VO with the
	// highest payoff × average-reputation product in L.
	PayoffByProduct float64
	// SamePick reports whether the two rules selected the same VO.
	SamePick bool
}

// Fig4Result holds the per-program comparison of Fig. 4.
type Fig4Result struct {
	Programs []Fig4Program
}

// AgreementCount returns in how many programs both rules picked the same VO
// ("in most cases, TVOF not only finds the VO with the highest individual
// payoff, but also the obtained VO has the highest average reputation").
func (r *Fig4Result) AgreementCount() int {
	c := 0
	for _, p := range r.Programs {
		if p.SamePick {
			c++
		}
	}
	return c
}

// Fig4 runs TVOF on `count` distinct programs of the given size (the paper
// uses 10 programs of 256 tasks). Solves poll ctx and degrade to heuristic
// incumbents once it is done (see mechanism.RunContext).
func (e *Env) Fig4(ctx context.Context, size, count int) (*Fig4Result, error) {
	out := &Fig4Result{}
	for i := 0; i < count; i++ {
		sc, _, _, err := e.buildScenario(size, 1000+i)
		if err != nil {
			return nil, err
		}
		res, err := mechanism.RunContext(ctx, sc, e.Config.mechanismOptions(mechanism.EvictLowestReputation), e.rng.Split(fmt.Sprintf("fig4-%d-%d", size, i)))
		if err != nil {
			return nil, err
		}
		final, byProd := res.Final(), res.FinalByProduct()
		if final == nil || byProd == nil {
			return nil, fmt.Errorf("sim: fig4 program %d has no feasible VO", i)
		}
		out.Programs = append(out.Programs, Fig4Program{
			Name:            fmt.Sprintf("P%d", i+1),
			PayoffBest:      final.Payoff,
			PayoffByProduct: byProd.Payoff,
			SamePick:        res.Selected == res.SelectedByProduct,
		})
	}
	return out, nil
}

// TraceResult is the per-iteration trajectory of one mechanism run on one
// program — the data of Figs. 5–8.
type TraceResult struct {
	Program string
	Rule    mechanism.EvictionRule
	// Parallel slices, one entry per iteration.
	Sizes    []int
	Payoffs  []float64
	AvgReps  []float64
	Feasible []bool
	Selected int // index of the finally selected iteration, -1 if none
}

// IterationTrace runs one mechanism on one freshly generated program of
// the given size and records every iteration. programTag distinguishes
// "A" and "B" (the paper shows two 256-task programs). Solves poll ctx as
// in Fig4.
func (e *Env) IterationTrace(ctx context.Context, size int, programTag string, rule mechanism.EvictionRule) (*TraceResult, error) {
	rep := 2000
	for _, c := range programTag {
		rep = rep*31 + int(c)
	}
	sc, _, _, err := e.buildScenario(size, rep)
	if err != nil {
		return nil, err
	}
	res, err := mechanism.RunContext(ctx, sc, e.Config.mechanismOptions(rule), e.rng.Split(fmt.Sprintf("trace-%s-%s", programTag, rule)))
	if err != nil {
		return nil, err
	}
	out := &TraceResult{Program: programTag, Rule: rule, Selected: res.Selected}
	for i := range res.Iterations {
		rec := &res.Iterations[i]
		out.Sizes = append(out.Sizes, rec.Size())
		out.Payoffs = append(out.Payoffs, rec.Payoff)
		out.AvgReps = append(out.AvgReps, rec.AvgReputation)
		out.Feasible = append(out.Feasible, rec.Feasible)
	}
	return out, nil
}
