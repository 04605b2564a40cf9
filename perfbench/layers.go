package main

import (
	"context"
	"encoding/binary"
	"fmt"
	"hash"
	"hash/fnv"
	"math"

	"gridvo/internal/assign"
	"gridvo/internal/mechanism"
	"gridvo/internal/xrand"
)

// solveRec is one IP solve observed through solveRecorder.
type solveRec struct {
	in   *assign.Instance
	opts assign.Options
	sol  assign.Solution
	ms   float64
}

// solveRecorder is installed with mechanism.Engine.SetSolver: it times
// every IP solve as an assign.solve span under the current mechanism.run
// span and keeps the instance for the heuristic probe. The mechanism
// calls it from one goroutine at a time.
type solveRecorder struct {
	tr          *tracer
	parent, req int64
	solves      []solveRec
}

// SolveCtx implements assign.Solver.
func (r *solveRecorder) SolveCtx(ctx context.Context, in *assign.Instance, opts assign.Options) assign.Solution {
	id := r.tr.begin("assign.solve", r.parent, r.req)
	sol := assign.SolveCtx(ctx, in, opts)
	r.tr.end(id)
	r.solves = append(r.solves, solveRec{in: in, opts: opts, sol: sol, ms: r.tr.spanMS(id)})
	return sol
}

// run executes one mechanism run on eng inside a mechanism.run span.
func (r *solveRecorder) run(ctx context.Context, sc *mechanism.Scenario, opts mechanism.Options, rng *xrand.RNG, parent, req int64) (*mechanism.Result, error) {
	r.parent, r.req = r.tr.begin("mechanism.run", parent, req), req
	res, err := mechanism.RunContext(ctx, sc, opts, rng)
	r.tr.end(r.parent)
	return res, err
}

// probeHeuristics times the heuristic phase of every recorded solve: the
// same instance and options under an already-cancelled context, which
// runs only the constructive heuristics and seed repair. The probe spans
// hang under their own driver.probe root, outside the measured trees.
func probeHeuristics(ctx context.Context, tr *tracer, rep *report, solves []solveRec) []float64 {
	pctx, cancel := context.WithCancel(ctx)
	cancel()
	root := tr.begin("driver.probe", 0, 0)
	defer tr.end(root)
	out := make([]float64, len(solves))
	for i := range solves {
		s := &solves[i]
		id := tr.begin("assign.heuristic", root, 0)
		sol := assign.SolveCtx(pctx, s.in, s.opts)
		tr.end(id)
		out[i] = tr.spanMS(id)
		if sol.Stats.Nodes != 0 {
			rep.checkf("heuristic probe explored %d nodes under a cancelled context", sol.Stats.Nodes)
		}
	}
	return out
}

// reportSolves sets the assign.* metrics from recorded solves and their
// heuristic probes.
func reportSolves(rep *report, solves []solveRec, heurMS []float64) {
	if len(solves) == 0 {
		return
	}
	var nodes int64
	var proved, budgetHit, seeded, accepted int
	solveMS := make([]float64, len(solves))
	gaps := make([]float64, 0, len(solves))
	for i := range solves {
		s := &solves[i]
		solveMS[i] = s.ms
		nodes += s.sol.Stats.Nodes
		if s.sol.Optimal {
			proved++
		}
		if s.sol.NodeBudgetHit {
			budgetHit++
		}
		if s.opts.SeedAssign != nil {
			seeded++
			accepted += int(s.sol.Stats.SeedAccepted)
		}
		gaps = append(gaps, s.sol.Gap())
	}
	n := float64(len(solves))
	searchMS := max(sum(solveMS)-sum(heurMS), 0)
	rep.set("assign.nodes", float64(nodes))
	rep.set("assign.heuristic_ms", sum(heurMS))
	rep.set("assign.search_ms", searchMS)
	if nodes > 0 {
		rep.set("assign.ns_per_node", searchMS*1e6/float64(nodes))
	}
	p50 := median(solveMS)
	tv, _ := tail(solveMS)
	rep.set("assign.solve_ms.p50", p50)
	rep.set("assign.solve_ms.tail", tv)
	rep.set("assign.proved_frac", float64(proved)/n)
	rep.set("assign.budget_hit_frac", float64(budgetHit)/n)
	rep.set("assign.gap_p50", median(gaps))
	rep.set("assign.gap_max", maxOf(gaps))
	if seeded > 0 {
		rep.set("assign.seed_accepted_frac", float64(accepted)/float64(seeded))
	}
	rep.notef("assign: %d solves, %d proved, %d budget-truncated, %d nodes", len(solves), proved, budgetHit, nodes)
}

// reportRuns sets the mechanism.* metrics from mechanism results, their
// run times and the solve time inside them (all ms).
func reportRuns(rep *report, results []*mechanism.Result, runMS []float64, solveMS float64) {
	if len(results) == 0 {
		return
	}
	n := float64(len(results))
	var iters, power, saved float64
	var stats mechanism.EngineStats
	for _, res := range results {
		iters += float64(len(res.Iterations))
		power += float64(res.Stats.PowerIterations)
		saved += float64(res.Stats.PowerIterationsSaved)
		stats = stats.Add(res.Stats)
	}
	rep.set("mechanism.run_ms", mean(runMS))
	rep.set("mechanism.loop_self_ms", max(sum(runMS)-solveMS, 0)/n)
	rep.set("mechanism.iterations", iters/n)
	rep.set("mechanism.power_iters", power/n)
	rep.set("mechanism.power_iters_saved", saved/n)
	rep.set("mechanism.memo_hit_rate", stats.HitRate())
	rep.set("mechanism.warm_start_rate", stats.WarmStartRate())
}

// checkSelection verifies a run's selected VO: its assignment satisfies
// every IP constraint and its value is v(C) = P − C(T,C) exactly.
func checkSelection(sc *mechanism.Scenario, res *mechanism.Result) error {
	final := res.Final()
	if final == nil {
		return fmt.Errorf("%s selected no feasible VO", res.Rule)
	}
	in := sc.Instance(final.Members)
	if err := assign.Verify(in, final.Assignment); err != nil {
		return fmt.Errorf("%s selected assignment invalid: %w", res.Rule, err)
	}
	want := sc.Payment - assign.TotalCost(in, final.Assignment)
	if math.Float64bits(final.Value) != math.Float64bits(want) {
		return fmt.Errorf("%s: v(C) = %v, want P - C(T,C) = %v", res.Rule, final.Value, want)
	}
	return nil
}

// selectionHash accumulates the selection fingerprint of a sweep: per run,
// the cell, the rule, and the selected VO's members, payoff, value and
// average reputation, bit for bit.
type selectionHash struct{ h hash.Hash64 }

func newSelectionHash() *selectionHash { return &selectionHash{h: fnv.New64a()} }

func (f *selectionHash) word(v uint64) {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], v)
	f.h.Write(b[:])
}

func (f *selectionHash) run(size, rep int, res *mechanism.Result) {
	f.word(uint64(size))
	f.word(uint64(rep))
	f.word(uint64(res.Rule))
	final := res.Final()
	if final == nil {
		f.word(math.MaxUint64)
		return
	}
	f.word(uint64(len(final.Members)))
	for _, g := range final.Members {
		f.word(uint64(g))
	}
	f.word(math.Float64bits(final.Payoff))
	f.word(math.Float64bits(final.Value))
	f.word(math.Float64bits(final.AvgReputation))
}

func (f *selectionHash) sum() string { return fmt.Sprintf("%016x", f.h.Sum64()) }
