// Package gridvo reproduces "A Reputation-Based Mechanism for Dynamic
// Virtual Organization Formation in Grids" (Mashayekhy & Grosu, ICPP 2012)
// as a complete Go library: the trust/reputation model, the task-assignment
// integer program with a branch-and-bound solver, the coalitional VO
// formation game, the TVOF mechanism and its RVOF baseline, the Parallel
// Workloads Archive substrate, and the experiment harness regenerating
// every figure of the paper's evaluation.
//
// This root package is the facade for common workflows:
//
//	exp, _ := gridvo.NewExperiment(42)                  // Table I setup
//	sc, _ := exp.Scenario(256, 0)                       // one scenario
//	res, _ := gridvo.FormVO(sc, gridvo.TVOF, 1)         // run the mechanism
//	fmt.Println(res.Final().Members, res.Final().Payoff)
//
// The full capability surface lives in the internal packages (trust,
// reputation, assign, coalition, mechanism, swf, workload, grid, sim); the
// cmd/ tools and examples/ directory demonstrate them end to end.
package gridvo

import (
	"context"
	"fmt"

	"gridvo/internal/assign"
	"gridvo/internal/mechanism"
	"gridvo/internal/sim"
	"gridvo/internal/xrand"
)

// Rule selects a VO formation mechanism.
type Rule int

const (
	// TVOF is the paper's trust-based mechanism (Algorithm 1): evict the
	// lowest-reputation member until infeasibility, select by payoff.
	TVOF Rule = iota
	// RVOF is the random-eviction baseline of Section IV-B.
	RVOF
)

// Scenario is one VO formation problem: program, GSPs, cost/time matrices,
// deadline, payment, trust graph. See the mechanism package for fields.
type Scenario = mechanism.Scenario

// Result is a complete mechanism run: the iteration trace, the selected
// VO, and timing. See the mechanism package for fields.
type Result = mechanism.Result

// IterationRecord is one iteration of the mechanism loop.
type IterationRecord = mechanism.IterationRecord

// EngineStats summarizes solver-engine activity for a run or sweep: fresh
// IP solves, cache hits (solves avoided), warm starts (solves seeded from
// a parent coalition's cached solution), branch-and-bound nodes, solver
// wall time, and power-method iterations (with the count saved by
// eigenvector warm starts). Result.Stats carries the per-run values.
type EngineStats = mechanism.EngineStats

// SweepResult is the size × repetition grid produced by Experiment.Sweep.
type SweepResult = sim.SweepResult

// ScenarioSpec is the portable JSON description of a scenario — the wire
// format shared by cmd/tvof scenario files and the gridvod HTTP API. See
// the mechanism package for fields, Validate, and Build.
type ScenarioSpec = mechanism.ScenarioSpec

// Engine is the per-scenario solve engine: every coalition evaluation
// routes through it and is memoized by membership bitmask, so repeated
// runs, stability checks, and service requests on the same scenario never
// re-solve a coalition. See the mechanism package for details.
type Engine = mechanism.Engine

// NewEngine creates a solve engine for the scenario with default solver
// options. Long-lived consumers (the gridvod server above all) keep one
// engine per scenario and pass it to FormVOEngine so identical requests
// become cache hits instead of fresh NP-hard solves.
func NewEngine(sc *Scenario) *Engine {
	return mechanism.NewEngine(sc, assign.Options{})
}

// Experiment wraps the experiment harness with the paper's Table I setup.
type Experiment struct {
	env *sim.Env
}

// NewExperiment prepares a Table I experiment environment (16 GSPs,
// Erdős–Rényi p = 0.1 trust, synthetic Atlas trace) reproducible from the
// seed.
func NewExperiment(seed uint64) (*Experiment, error) {
	env, err := sim.NewEnv(sim.DefaultConfig(seed))
	if err != nil {
		return nil, err
	}
	return &Experiment{env: env}, nil
}

// NewQuickExperiment prepares a reduced environment (small programs, small
// trace) for demos and tests.
func NewQuickExperiment(seed uint64) (*Experiment, error) {
	env, err := sim.NewEnv(sim.QuickConfig(seed))
	if err != nil {
		return nil, err
	}
	return &Experiment{env: env}, nil
}

// Env exposes the underlying harness for advanced use (sweeps, figure
// regeneration).
func (e *Experiment) Env() *sim.Env { return e.env }

// Scenario generates the scenario for a (program size, repetition) pair:
// a trace-derived program of exactly `size` tasks plus Table I parameters,
// with the grand coalition guaranteed feasible.
func (e *Experiment) Scenario(size, rep int) (*Scenario, error) {
	sc, _, err := e.env.BuildScenario(size, rep)
	return sc, err
}

// Sweep runs TVOF and RVOF over every (program size, repetition) pair of
// the experiment's config, honoring ctx: on cancellation or deadline
// expiry the per-coalition solves degrade to heuristic incumbents and the
// sweep still returns a complete grid. workers == 1 runs the cells in
// order; workers > 1 (or 0 for GOMAXPROCS) fans them out over a pool with
// bit-identical results. progress, when non-nil, receives a line per
// completed cell (from worker goroutines when parallel).
func (e *Experiment) Sweep(ctx context.Context, workers int, progress func(string)) (*SweepResult, error) {
	return e.env.SweepParallelContext(ctx, workers, progress)
}

// FormVO runs the selected mechanism on a scenario; the seed drives
// tie-breaking (TVOF) or eviction choice (RVOF). It is FormVOContext with
// a background context.
func FormVO(sc *Scenario, rule Rule, seed uint64) (*Result, error) {
	return FormVOContext(context.Background(), sc, rule, seed)
}

// FormVOContext is FormVO honoring ctx. The mechanism always completes:
// once ctx is cancelled or past its deadline, each remaining coalition
// solve returns its best heuristic incumbent instead of searching, so the
// caller gets a usable — possibly sub-optimal — VO rather than an error.
func FormVOContext(ctx context.Context, sc *Scenario, rule Rule, seed uint64) (*Result, error) {
	rng := xrand.New(seed)
	switch rule {
	case TVOF:
		return mechanism.TVOFContext(ctx, sc, rng)
	case RVOF:
		return mechanism.RVOFContext(ctx, sc, rng)
	default:
		return nil, fmt.Errorf("gridvo: unknown rule %d", int(rule))
	}
}

// FormVOEngine is FormVOContext routing every coalition solve through the
// given engine (and its scenario): the reuse path for servers and batch
// drivers that hold one engine per scenario across many requests. The
// engine's cache survives between calls, so a repeated formation on the
// same scenario performs zero fresh IP solves.
func FormVOEngine(ctx context.Context, eng *Engine, rule Rule, seed uint64) (*Result, error) {
	opts := mechanism.Options{Engine: eng}
	switch rule {
	case TVOF:
		opts.Eviction = mechanism.EvictLowestReputation
	case RVOF:
		opts.Eviction = mechanism.EvictRandom
	default:
		return nil, fmt.Errorf("gridvo: unknown rule %d", int(rule))
	}
	return mechanism.RunContext(ctx, eng.Scenario(), opts, xrand.New(seed))
}
