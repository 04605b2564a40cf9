package mechanism

import (
	"context"
	"sort"
	"time"

	"gridvo/internal/assign"
	"gridvo/internal/coalition"
	"gridvo/internal/fault"
	"gridvo/internal/reputation"
)

// This file implements a merge-and-split VO formation baseline modeled on
// the authors' prior mechanism (Mashayekhy & Grosu, "A Merge-and-Split
// Mechanism for Dynamic Virtual Organization Formation in Grids", IPCCC
// 2011 — reference [25] of the paper). It is an *extension* used by the
// comparison benches, not part of the ICPP'12 mechanism itself.
//
// The coalition structure starts as singletons. Rounds alternate:
//
//   - merge: the pair of coalitions whose union most improves the
//     per-member payoff of every member involved is merged;
//   - split: a coalition sheds one member if both sides end up with at
//     least the per-member payoff they had (with the leaver weakly
//     better off on its own).
//
// The process stops at a merge/split-stable structure (or after MaxRounds)
// and the feasible coalition with the highest per-member payoff executes
// the program, making the result directly comparable with TVOF's.

// MergeSplitOptions configure the baseline.
type MergeSplitOptions struct {
	// Solver configures the per-coalition IP solves.
	Solver assign.Options
	// MaxRounds bounds merge/split rounds; zero selects 4·m.
	MaxRounds int
	// Reputation configures the scores recorded for the final VO.
	Reputation reputation.Options
	// Engine, when non-nil, is the shared per-scenario solve engine —
	// pass the engine of a TVOF/RVOF run on the same scenario and the
	// nested coalitions both mechanisms evaluate are solved once.
	Engine *Engine
	// NoWarmStart disables incumbent inheritance for the merge/split
	// candidate solves (see Options.NoWarmStart).
	NoWarmStart bool
	// Inject, when non-nil, installs the deterministic fault injector on
	// the engine before the run (see Options.Inject).
	Inject *fault.Injector
}

// MergeSplitResult reports the outcome of the merge-and-split process.
type MergeSplitResult struct {
	// Structure is the final coalition structure (disjoint member sets).
	Structure [][]int
	// Selected is the coalition chosen to execute the program (nil when
	// no coalition is feasible).
	Selected []int
	// Payoff is the per-member payoff of the selected coalition.
	Payoff float64
	// AvgReputation is eq. (7) over the selected coalition using the
	// grand coalition's global reputation scores.
	AvgReputation float64
	// Rounds is the number of merge/split operations applied.
	Rounds int
	// Evaluations is the number of distinct coalition IP solves.
	Evaluations int
	// Stats is the solver-engine delta attributable to this run (fresh
	// solves, cache hits against coalitions other mechanisms on the
	// shared engine already solved, nodes, solver wall time).
	Stats EngineStats
	// Degraded reports that at least one coalition evaluation fell below
	// the exact tier (truncated search, cancellation, or rejected input);
	// the structure is still valid, but stability is not proven.
	Degraded bool
	// Duration is the wall-clock time of the run.
	Duration time.Duration
}

// MergeSplitContext runs the baseline on a scenario honoring ctx: the
// per-coalition IP solves poll the context and degrade to heuristic
// incumbents on cancellation. All characteristic-function values route through the
// shared engine (opts.Engine or a fresh one), whose cache the
// coalition.Game value function is built on.
//
//gridvolint:ignore noclock Result.Duration measurement only, never control flow
func MergeSplitContext(ctx context.Context, sc *Scenario, opts MergeSplitOptions) (*MergeSplitResult, error) {
	if err := sc.Validate(); err != nil {
		return nil, err
	}
	start := time.Now()
	m := sc.M()

	eng := opts.Engine
	if eng == nil {
		eng = NewEngine(sc, opts.Solver)
	} else if eng.sc != sc {
		return nil, errEngineScenario
	}
	if opts.Inject != nil {
		eng.SetInjector(opts.Inject)
	}
	statsBefore := eng.Stats()

	// parentHint, when set around a candidate evaluation, names the
	// coalition whose cached solution should seed the solve: a merge
	// candidate warm-starts from its larger constituent, a split
	// remainder from the coalition it shrank from. The game layer
	// memoizes values, so the hint only reaches the engine on first
	// evaluation — exactly the solves worth warming.
	var parentHint []int
	game := coalition.NewGame(m, func(members []int) float64 {
		sol := eng.SolveWithParent(ctx, members, parentHint)
		return sc.Value(&sol)
	})
	share := func(members []int) float64 {
		if len(members) == 0 {
			return 0
		}
		return game.Value(members) / float64(len(members))
	}

	maxRounds := opts.MaxRounds
	if maxRounds <= 0 {
		maxRounds = 4 * m
	}

	// Singletons.
	structure := make([][]int, m)
	for i := 0; i < m; i++ {
		structure[i] = []int{i}
	}

	res := &MergeSplitResult{}
	for round := 0; round < maxRounds; round++ {
		changed := false

		// Merge: find the best improving pair.
		bestA, bestB := -1, -1
		bestGain := 0.0
		for a := 0; a < len(structure); a++ {
			for b := a + 1; b < len(structure); b++ {
				union := append(append([]int(nil), structure[a]...), structure[b]...)
				sort.Ints(union)
				if !opts.NoWarmStart {
					parentHint = structure[a]
					if len(structure[b]) > len(structure[a]) {
						parentHint = structure[b]
					}
				}
				su := share(union)
				parentHint = nil
				sa, sb := share(structure[a]), share(structure[b])
				// Merge rule: every member involved weakly gains and
				// the union strictly gains in total share mass.
				if su >= sa && su >= sb {
					gain := su*float64(len(union)) - (sa*float64(len(structure[a])) + sb*float64(len(structure[b])))
					if gain > bestGain+assign.Eps {
						bestGain, bestA, bestB = gain, a, b
					}
				}
			}
		}
		if bestA >= 0 {
			union := append(append([]int(nil), structure[bestA]...), structure[bestB]...)
			sort.Ints(union)
			next := make([][]int, 0, len(structure)-1)
			for i, c := range structure {
				if i != bestA && i != bestB {
					next = append(next, c)
				}
			}
			structure = append(next, union)
			res.Rounds++
			changed = true
		}

		// Split: a member defects if the remainder weakly gains and the
		// defector is weakly better off alone.
		if !changed {
			for ci, c := range structure {
				if len(c) < 2 {
					continue
				}
				cur := share(c)
				for _, leaver := range c {
					rest := make([]int, 0, len(c)-1)
					for _, g := range c {
						if g != leaver {
							rest = append(rest, g)
						}
					}
					if !opts.NoWarmStart {
						parentHint = c
					}
					restShare := share(rest)
					parentHint = nil
					if restShare >= cur+assign.Eps && share([]int{leaver}) >= cur-assign.Eps {
						structure[ci] = rest
						structure = append(structure, []int{leaver})
						res.Rounds++
						changed = true
						break
					}
				}
				if changed {
					break
				}
			}
		}

		if !changed {
			break
		}
	}

	// Select the feasible coalition with the highest per-member payoff.
	bestShare := 0.0
	for _, c := range structure {
		if s := share(c); game.Value(c) > 0 && s > bestShare {
			bestShare = s
			res.Selected = coalition.SortedMembers(c)
		}
	}
	res.Structure = structure
	res.Payoff = bestShare
	res.Evaluations = game.CacheSize()
	if res.Selected != nil {
		repOpts := opts.Reputation
		if repOpts.IsZero() {
			repOpts = reputation.DefaultOptions()
		}
		global, _, err := reputation.Global(sc.Trust, repOpts)
		if err != nil {
			return nil, err
		}
		res.AvgReputation = reputation.AverageOf(global, res.Selected)
	}
	res.Stats = eng.Stats().Sub(statsBefore)
	res.Degraded = res.Stats.Degraded > 0
	res.Duration = time.Since(start)
	return res, nil
}
