package mechanism

import (
	"context"

	"gridvo/internal/coalition"
	"gridvo/internal/reputation"
	"gridvo/internal/xrand"
)

// TVOFContext runs the Trust-based VO Formation mechanism (Algorithm 1)
// honoring ctx (see RunContext) with default options: power-method
// reputation eviction, default solver budget.
func TVOFContext(ctx context.Context, sc *Scenario, rng *xrand.RNG) (*Result, error) {
	return RunContext(ctx, sc, Options{Eviction: EvictLowestReputation}, rng)
}

// RVOFContext runs the Random VO Formation baseline honoring ctx (see
// RunContext): identical to TVOFContext except a uniformly random member is
// evicted each iteration (Section IV-B).
func RVOFContext(ctx context.Context, sc *Scenario, rng *xrand.RNG) (*Result, error) {
	return RunContext(ctx, sc, Options{Eviction: EvictRandom}, rng)
}

// ReputationCriterion selects how a member scores the reputation of a VO
// when comparing VOs in the stability check.
type ReputationCriterion int

const (
	// CriterionTotal scores a VO by the *sum* of its members' global
	// reputation — the quantity the proof of Theorem 1 reasons with
	// ("removing G decreases the total reputation of GSPs in C").
	// Under this criterion every departure strictly lowers the
	// reputation term, so TVOF's VOs are individually stable.
	CriterionTotal ReputationCriterion = iota
	// CriterionAverage scores a VO by the average global reputation of
	// its members, the literal reading of eq. (17). Under this criterion
	// individual stability can fail: removing a below-average-reputation
	// member raises the average, and the per-member payoff share can
	// rise too, so a departure can Pareto-improve the rest. The paper's
	// Theorem 1 does not hold under this reading; see EXPERIMENTS.md.
	CriterionAverage
)

// StabilityCheckContext evaluates Definition 1 (individual stability) for
// the selected VO of a result under the given reputation criterion: it
// asks, for each member G, whether the rest would weakly prefer the VO
// without G with someone strictly preferring it. It reuses everything the
// mechanism run already computed: the grand coalition's global reputation
// (res.GlobalReputation) and the run's solve engine (res.Engine, unless
// opts.Engine overrides it), so coalitions the mechanism visited — the
// selected VO above all — are cache hits, not fresh IP solves.
//
// Under CriterionTotal the check short-circuits analytically: when every
// member carries strictly positive global reputation, any departure
// strictly lowers the remainder's total-reputation criterion, so no
// departure can be a Pareto improvement — the VO is stable with zero
// solves, exactly the argument of Theorem 1's proof. The exhaustive
// evaluation (|C| candidate coalitions) runs only for CriterionAverage or
// degenerate reputation vectors.
func StabilityCheckContext(ctx context.Context, sc *Scenario, res *Result, opts Options, criterion ReputationCriterion) (stable bool, destabilizer int, err error) {
	final := res.Final()
	if final == nil || len(final.Members) <= 1 {
		return true, -1, nil
	}
	global := res.GlobalReputation
	if global == nil {
		global, _, err = reputation.Global(sc.Trust, reputation.DefaultOptions())
		if err != nil {
			return false, -1, err
		}
	}
	if criterion == CriterionTotal && totalStrictlyDecreases(global, final.Members) {
		return true, -1, nil
	}
	if opts.Engine == nil && res.Engine != nil && res.Engine.sc == sc {
		opts.Engine = res.Engine
	}
	eng, err := engineFor(sc, &opts)
	if err != nil {
		return false, -1, err
	}
	// Each candidate coalition is the final VO minus one member:
	// warm-start those solves from the final VO's cached solution (a
	// guaranteed cache entry after a completed run).
	parent := final.Members
	if opts.NoWarmStart {
		parent = nil
	}
	eval := func(member int, members []int) coalition.Outcome {
		sol := eng.SolveWithParent(ctx, members, parent)
		payoff := 0.0
		if sol.Feasible {
			payoff = sc.Value(&sol) / float64(len(members))
		}
		rep := reputation.AverageOf(global, members)
		if criterion == CriterionTotal {
			rep *= float64(len(members))
		}
		return coalition.Outcome{Payoff: payoff, Reputation: rep}
	}
	stable, destabilizer = coalition.IsIndividuallyStable(final.Members, eval)
	return stable, destabilizer, nil
}

// totalStrictlyDecreases reports whether removing any single member
// strictly lowers the coalition's total global reputation in floating
// point — the premise of Theorem 1's proof. False when a member's score is
// zero (or so small the subtraction underflows), in which case the
// exhaustive check must run.
func totalStrictlyDecreases(global []float64, members []int) bool {
	total := 0.0
	for _, g := range members {
		total += global[g]
	}
	for _, g := range members {
		if !(total-global[g] < total) {
			return false
		}
	}
	return true
}
