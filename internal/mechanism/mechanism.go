package mechanism

import (
	"context"
	"fmt"
	"sort"
	"time"

	"gridvo/internal/adversary"
	"gridvo/internal/assign"
	"gridvo/internal/fault"
	"gridvo/internal/matrix"
	"gridvo/internal/reputation"
	"gridvo/internal/trust"
	"gridvo/internal/xrand"
)

// EvictionRule selects which GSP a mechanism removes each iteration.
type EvictionRule int

const (
	// EvictLowestReputation is TVOF's rule: remove the member with the
	// lowest power-method global reputation, recomputed inside the
	// current VO (ties broken uniformly at random).
	EvictLowestReputation EvictionRule = iota
	// EvictRandom is RVOF's rule: remove a uniformly random member.
	EvictRandom
	// EvictLowestCentrality removes the member with the lowest score
	// under Options.Centrality — the ablation family.
	EvictLowestCentrality
)

// String returns the rule name.
func (e EvictionRule) String() string {
	switch e {
	case EvictLowestReputation:
		return "tvof"
	case EvictRandom:
		return "rvof"
	case EvictLowestCentrality:
		return "centrality"
	default:
		return fmt.Sprintf("EvictionRule(%d)", int(e))
	}
}

// Options configure a mechanism run.
type Options struct {
	// Eviction selects the rule; the zero value is TVOF's.
	Eviction EvictionRule
	// Centrality is the score used by EvictLowestCentrality.
	Centrality reputation.Centrality
	// Solver configures the assignment branch-and-bound.
	Solver assign.Options
	// KeepAssignments retains the task assignment of every feasible
	// iteration (memory ∝ iterations × n); when false only the selected
	// VO's assignment is kept.
	KeepAssignments bool
	// Engine, when non-nil, is the shared solve engine for the scenario:
	// pass the same engine to TVOF, RVOF, stability checks, and
	// merge-split runs on one scenario so no coalition is ever solved
	// twice. Nil creates a fresh engine per run (its solver options are
	// then taken from Solver). A passed engine must have been built for
	// the same scenario.
	Engine *Engine
	// NoWarmStart disables the warm-start pipeline: IP solves stop
	// inheriting the parent coalition's incumbent and per-coalition
	// reputation stops warm-starting from the previous iteration's
	// vector. Warm starts only tighten incumbents and starting points —
	// they select the same VOs — so this exists for A/B measurement and
	// paper-faithful cold reproduction, not correctness.
	NoWarmStart bool
	// Churn, when non-empty, injects membership changes between eviction
	// rounds: after iteration r completes, every ChurnEvent with Round r
	// fires — listed members leave the forming VO and listed GSPs
	// (re-)join it — forcing an online re-formation. The next iteration
	// reuses the warm-start pipeline across the change: the pre-churn
	// coalition stays the IP seed parent (departures project to orphan
	// markers the solver repairs) and survivor reputation scores seed the
	// power iteration. Leaves of absent GSPs and joins of present ones
	// are ignored; a leave never empties the VO. Schedules typically come
	// from adversary.ChurnSpec.Schedule.
	Churn []adversary.ChurnEvent
	// Inject, when non-nil, threads the deterministic fault injector
	// through every layer of the run: it is installed on the engine
	// (fresh or passed), forwarded to the IP solver and the per-coalition
	// reputation solves, and visited by the loop itself before each
	// eviction-score computation (fault.PointTrust). The nil default is a
	// no-op. Installing an injector on a shared engine is not safe
	// concurrently with other runs on that engine.
	Inject *fault.Injector
}

// tieTolerance treats reputation scores within this distance of the
// minimum as tied (the paper breaks exact ties randomly; floating point
// needs a tolerance).
const tieTolerance = 1e-12

// IterationRecord captures one iteration of the mechanism loop — the data
// behind Figs. 5–8 of the paper.
type IterationRecord struct {
	// Members are the global GSP indices of the VO at this iteration,
	// ascending.
	Members []int
	// Feasible reports whether IP-B&B found a task mapping.
	Feasible bool
	// Cost is C(T,C) when feasible.
	Cost float64
	// Value is v(C) = P − C(T,C) when feasible, else 0 (eq. 15).
	Value float64
	// Payoff is the equal share v(C)/|C| (eq. 18); 0 when infeasible.
	Payoff float64
	// AvgReputation is x̄(C) (eq. 7): the average of the *grand
	// coalition's* global reputation scores over this VO's members. The
	// within-VO recomputed scores (Reputation) are L1-normalized, so
	// their average is identically 1/|C| and carries no information;
	// the paper's Figs. 3 and 5–8 plot a quantity that discriminates
	// between TVOF and RVOF at equal VO sizes, which only the global
	// scores do. See DESIGN.md §5.
	AvgReputation float64
	// Reputation holds each member's reputation recomputed *inside* the
	// VO (Algorithm 2 on the induced trust subgraph), parallel to
	// Members. These scores drive the eviction decision.
	Reputation []float64
	// TotalGlobalReputation is Σ_{i∈C} x_i over the grand coalition's
	// global scores — the quantity the proof of Theorem 1 reasons about.
	TotalGlobalReputation float64
	// Evicted is the global index of the GSP removed after this
	// iteration (-1 on the final iteration).
	Evicted int
	// Assignment maps task → position in Members (kept for the selected
	// VO, and for every feasible VO with Options.KeepAssignments).
	Assignment []int
	// SolverOptimal / SolverGap expose the B&B certificate for this
	// iteration's IP solve.
	SolverOptimal bool
	SolverGap     float64
}

// Size returns |C| at this iteration.
func (r *IterationRecord) Size() int { return len(r.Members) }

// Result is a complete mechanism run.
type Result struct {
	// Rule that produced this result.
	Rule EvictionRule
	// Iterations in execution order (VO size strictly decreasing).
	Iterations []IterationRecord
	// Selected indexes Iterations: the final VO, chosen by maximum
	// individual payoff among feasible iterations (Algorithm 1 line 14);
	// -1 when no feasible VO exists.
	Selected int
	// SelectedByProduct indexes Iterations: the VO maximizing
	// payoff × average reputation (Fig. 4's comparator); -1 when none.
	SelectedByProduct int
	// Duration is the wall-clock time of the whole run (Fig. 9).
	Duration time.Duration
	// GlobalReputation is the grand coalition's global reputation vector
	// (one entry per GSP), the x of eq. (6) on the full trust graph.
	GlobalReputation []float64
	// Stats aggregates the solver-engine activity attributable to this
	// run: fresh solves, cache hits (solves avoided), branch-and-bound
	// nodes, and solver wall time. On a shared engine this is the
	// per-run delta, not the engine's cumulative total.
	Stats EngineStats
	// Degraded reports that some layer of this run fell below the exact
	// tier of the degradation ladder: an IP solve returned a non-optimal
	// incumbent (node budget, deadline, or injected cancellation), a
	// power iteration exhausted its budget without converging, or the
	// engine's malformed-input guard rejected an evaluation. The result
	// is still usable — every feasible iteration satisfies all
	// constraints — but optimality of the selection is not proven.
	Degraded bool
	// Faults counts injected faults that fired during this run (always 0
	// without an injector).
	Faults int64
	// Engine is the solve engine the run used. It carries the
	// per-scenario solution cache, so post-hoc analyses (StabilityCheckContext,
	// Pareto extraction, merge-split comparisons) reuse the mechanism's
	// solves instead of repeating them.
	Engine *Engine
}

// Final returns the selected iteration record, or nil when no feasible VO
// was found.
func (res *Result) Final() *IterationRecord {
	if res.Selected < 0 {
		return nil
	}
	return &res.Iterations[res.Selected]
}

// FinalByProduct returns the payoff×reputation-optimal record, or nil.
func (res *Result) FinalByProduct() *IterationRecord {
	if res.SelectedByProduct < 0 {
		return nil
	}
	return &res.Iterations[res.SelectedByProduct]
}

// FeasibleCount returns the number of feasible iterations (|L|).
func (res *Result) FeasibleCount() int {
	c := 0
	for i := range res.Iterations {
		if res.Iterations[i].Feasible {
			c++
		}
	}
	return c
}

// RunContext executes the mechanism of Algorithm 1 on the scenario:
//
//  1. C ← G (all GSPs), L ← ∅
//  2. repeat: solve the IP on C; if feasible add C to L;
//     recompute reputation inside C; evict per the rule
//  3. until the IP is infeasible (or C is exhausted)
//  4. select from L the VO with the highest individual payoff
//
// rng drives tie-breaking (TVOF) and random eviction (RVOF); identical
// seeds give identical runs. Every IP solve polls ctx, so cancellation or
// deadline expiry degrades each iteration to its best incumbent
// (heuristic-seeded, Optimal == false) instead of hanging — the run still
// completes and returns a usable result, never an error-and-nothing. All
// solves route through one Engine (opts.Engine or a fresh one), which the
// returned Result exposes for post-hoc analyses.
//
//gridvolint:ignore noclock Result.Duration measurement only, never control flow
func RunContext(ctx context.Context, sc *Scenario, opts Options, rng *xrand.RNG) (*Result, error) {
	if err := sc.Validate(); err != nil {
		return nil, err
	}
	start := time.Now()

	eng, err := engineFor(sc, &opts)
	if err != nil {
		return nil, err
	}
	statsBefore := eng.Stats()

	// Injection state: the engine's injector (installed by engineFor from
	// opts.Inject, or earlier by the caller) also serves the reputation
	// solves (Algorithm 2 with its default options) and the loop's own
	// trust hook; firedBefore anchors the per-run fault count on a shared
	// injector.
	inj := eng.Injector()
	ro := reputation.DefaultOptions()
	ro.Inject = inj
	firedBefore := inj.Stats().Fired
	degraded := false

	res := &Result{Rule: opts.Eviction, Selected: -1, SelectedByProduct: -1, Engine: eng}

	// Global reputation of every GSP in the full trust graph, computed
	// once; eq. (7) averages over its restriction to each VO.
	global, globalDiag, err := reputation.Global(sc.Trust, ro)
	if err != nil {
		return nil, fmt.Errorf("mechanism: global reputation: %w", err)
	}
	if !globalDiag.Converged {
		degraded = true
	}
	res.GlobalReputation = global
	eng.notePower(globalDiag.Iterations, 0)

	// members holds the current VO as global GSP indices, ascending.
	members := make([]int, sc.M())
	for i := range members {
		members[i] = i
	}
	curTrust := sc.Trust.Clone()

	// Warm-start state threaded iteration to iteration: the previous
	// coalition (whose cached solution seeds the next IP solve) and the
	// previous reputation vector (restricted to the survivors, it seeds
	// the next power iteration). coldIters anchors the iterations-saved
	// estimate at the run's one guaranteed-cold power solve.
	warm := !opts.NoWarmStart
	var parentMembers []int
	var repInit []float64
	coldIters := globalDiag.Iterations

	for len(members) > 0 {
		rec := IterationRecord{
			Members: append([]int(nil), members...),
			Evicted: -1,
		}

		// Map program T on C using IP-B&B (Algorithm 1 line 5), served
		// through the shared engine; after the first iteration the parent
		// coalition's cached solution is projected in as the starting
		// incumbent.
		sol := eng.SolveWithParent(ctx, members, parentMembers)
		rec.Feasible = sol.Feasible
		rec.SolverOptimal = sol.Optimal
		rec.SolverGap = sol.Gap()
		if !sol.Optimal {
			degraded = true
		}
		if sol.Feasible {
			rec.Cost = sol.Cost
			rec.Value = sc.Value(&sol)
			rec.Payoff = rec.Value / float64(len(members))
			if opts.KeepAssignments {
				rec.Assignment = sol.Assign
			}
		}

		// x = REPUTATION(C, E) (Algorithm 1 line 10; Algorithm 2). The
		// first iteration's graph is the full trust graph, whose vector
		// was just computed — reuse it instead of re-iterating (exact,
		// not approximate: same graph, same options, same fixed point).
		var scores []float64
		if firstIter := len(res.Iterations) == 0; firstIter && warm && opts.Eviction != EvictLowestCentrality {
			scores = global
			eng.notePower(0, coldIters)
		} else {
			var init []float64
			if warm {
				init = repInit
			}
			// Fault hook: a ZeroTrustRow plan clears one member's outgoing
			// trust before the score computation, producing the dangling
			// row the normalizer patches per eq. (1). The mutation is on a
			// clone; curTrust itself stays intact for later iterations.
			scoreTrust := curTrust
			if plan := inj.Visit(fault.PointTrust); plan.Class == fault.ZeroTrustRow && scoreTrust.N() > 0 {
				scoreTrust = scoreTrust.Clone()
				scoreTrust.ClearOutgoing(int(plan.Pick % uint64(scoreTrust.N())))
			}
			var diag reputation.Diagnostics
			scores, diag, err = evictionScores(scoreTrust, opts, ro, init, coldIters)
			if err != nil {
				return nil, fmt.Errorf("mechanism: reputation on %d-member VO: %w", len(members), err)
			}
			if !diag.Converged && opts.Eviction != EvictLowestCentrality {
				degraded = true
			}
			saved := 0
			if diag.Warm && coldIters > diag.Iterations {
				saved = coldIters - diag.Iterations
			}
			eng.notePower(diag.Iterations, saved)
		}
		rec.Reputation = scores
		rec.AvgReputation = reputation.AverageOf(global, members)
		rec.TotalGlobalReputation = rec.AvgReputation * float64(len(members))

		stop := !sol.Feasible // flag of Algorithm 1: stop after first infeasible VO
		var evictLocal int
		if !stop && len(members) > 1 {
			evictLocal = pickEviction(scores, opts, rng)
			rec.Evicted = members[evictLocal]
		} else if !stop {
			// |C| == 1: evicting the last member makes the next VO empty,
			// i.e. infeasible; Algorithm 1 would discover that on the
			// next iteration, so we stop here with the same outcome.
			stop = true
		}

		res.Iterations = append(res.Iterations, rec)
		if stop {
			break
		}

		// C ← C \ G, dropping all trust edges touching G (line 12).
		var keepLocal []int
		for i := range members {
			if i != evictLocal {
				keepLocal = append(keepLocal, i)
			}
		}
		curTrust = curTrust.Subgraph(keepLocal)
		next := make([]int, 0, len(members)-1)
		for i, g := range members {
			if i != evictLocal {
				next = append(next, g)
			}
		}
		members = next

		// Warm-start hints for the next iteration: this coalition is the
		// parent, and its reputation vector restricted to the survivors
		// (renormalized inside PowerIterate) is the eigenvector seed.
		if warm {
			parentMembers = rec.Members
			repInit = repInit[:0]
			for i, x := range scores {
				if i != evictLocal {
					repInit = append(repInit, x)
				}
			}
		}

		// Churn: membership changes scheduled for this round fire now,
		// re-forming the VO online before the next iteration.
		if len(opts.Churn) > 0 {
			joins, leaves := 0, 0
			round := len(res.Iterations) - 1
			for _, ev := range opts.Churn {
				if ev.Round != round {
					continue
				}
				for _, g := range ev.Leave {
					if len(members) <= 1 {
						break
					}
					if k := sort.SearchInts(members, g); k < len(members) && members[k] == g {
						members = append(members[:k], members[k+1:]...)
						leaves++
					}
				}
				for _, g := range ev.Join {
					if g < 0 || g >= sc.M() {
						continue
					}
					if k := sort.SearchInts(members, g); k == len(members) || members[k] != g {
						members = append(members, 0)
						copy(members[k+1:], members[k:])
						members[k] = g
						joins++
					}
				}
			}
			if joins > 0 || leaves > 0 {
				eng.noteChurn(joins, leaves)
				// Re-induce the VO trust graph from the full scenario
				// graph. Subgraph composes (a Subgraph of a Subgraph is
				// the Subgraph of the intersection), so for pure
				// departures this equals continuing the eviction chain,
				// and re-joiners get exactly the edges among current
				// members back — the model's "all edges touching a
				// departed GSP are forgotten" applies only while absent.
				curTrust = sc.Trust.Subgraph(members)
				if warm {
					// Rebuild the eigenvector seed parallel to the new
					// membership: survivors keep their scores, joiners
					// start at the uniform mass the cold start would give
					// them. parentMembers stays the pre-eviction coalition;
					// the IP seed projection handles the departures.
					scoreOf := make(map[int]float64, len(rec.Members))
					for i, g := range rec.Members {
						scoreOf[g] = scores[i]
					}
					repInit = repInit[:0]
					fill := 1 / float64(len(members))
					for _, g := range members {
						if x, ok := scoreOf[g]; ok {
							repInit = append(repInit, x)
						} else {
							repInit = append(repInit, fill)
						}
					}
				}
			}
		}
	}

	selectFinal(ctx, eng, res, opts)
	res.Stats = eng.Stats().Sub(statsBefore)
	res.Degraded = degraded || res.Stats.Degraded > 0
	res.Faults = inj.Stats().Fired - firedBefore
	res.Duration = time.Since(start)
	return res, nil
}

// evictionScores computes the per-member scores used by the eviction rule.
// RVOF does not use them to evict, but the paper still reports the average
// reputation of every RVOF iteration (Figs. 7–8), so scores are always
// computed with the power method unless a centrality ablation is selected.
//
// init, when non-nil, warm-starts the power iteration (ignored for
// centrality ablations, which are not iterative), and warmBudget bounds
// the warm attempt's iterations. A good warm start converges in far fewer
// steps than a cold one; but on periodic or reducible subgraphs (sparse
// trust graphs lose edges every eviction) the uniform start can sit on —
// or symmetrically average into — the fixed point while a perturbed start
// oscillates indefinitely, so a warm attempt that has not converged within
// the budget is abandoned and the iteration restarts cold with the full
// bound of ro. Total work is thus at most warmBudget over a cold solve,
// and typically far below one.
func evictionScores(g *trust.Graph, opts Options, ro reputation.Options, init []float64, warmBudget int) ([]float64, reputation.Diagnostics, error) {
	if opts.Eviction == EvictLowestCentrality {
		x, err := reputation.Scores(g, opts.Centrality)
		return x, reputation.Diagnostics{}, err
	}
	warm := ro
	warm.InitialVector = init
	if init != nil && warmBudget > 0 {
		warm.MaxIter = warmBudget
	}
	x, diag, err := reputation.Global(g, warm)
	if err != nil || !diag.Warm || diag.Converged {
		return x, diag, err
	}
	xc, diagc, err := reputation.Global(g, ro)
	diagc.Iterations += diag.Iterations
	diagc.Warm = false
	return xc, diagc, err
}

// pickEviction returns the local index to evict.
func pickEviction(scores []float64, opts Options, rng *xrand.RNG) int {
	if opts.Eviction == EvictRandom {
		return rng.IntN(len(scores))
	}
	ties := matrix.MinIndices(scores, tieTolerance)
	if len(ties) == 1 {
		return ties[0]
	}
	return ties[rng.IntN(len(ties))]
}

// selectFinal applies Algorithm 1 line 14 and the Fig. 4 comparator.
func selectFinal(ctx context.Context, eng *Engine, res *Result, opts Options) {
	bestPayoff, bestProduct := -1, -1
	for i := range res.Iterations {
		rec := &res.Iterations[i]
		if !rec.Feasible {
			continue
		}
		if bestPayoff < 0 || betterPayoff(rec, &res.Iterations[bestPayoff]) {
			bestPayoff = i
		}
		if bestProduct < 0 ||
			rec.Payoff*rec.AvgReputation > res.Iterations[bestProduct].Payoff*res.Iterations[bestProduct].AvgReputation {
			bestProduct = i
		}
	}
	res.Selected = bestPayoff
	res.SelectedByProduct = bestProduct
	// Ensure the selected VO carries its assignment even when
	// KeepAssignments was off: re-request it from the engine — a cache
	// hit, since the mechanism loop just solved this coalition.
	if bestPayoff >= 0 && res.Iterations[bestPayoff].Assignment == nil {
		sol := eng.Solve(ctx, res.Iterations[bestPayoff].Members)
		if sol.Feasible {
			res.Iterations[bestPayoff].Assignment = sol.Assign
		}
	}
}

// betterPayoff orders feasible records by payoff, ties toward higher
// average reputation, then toward larger VOs (earlier iterations).
// Ties are exact: an epsilon ordering would be intransitive.
func betterPayoff(a, b *IterationRecord) bool {
	if a.Payoff != b.Payoff {
		return a.Payoff > b.Payoff
	}
	if a.AvgReputation != b.AvgReputation {
		return a.AvgReputation > b.AvgReputation
	}
	return len(a.Members) > len(b.Members)
}
