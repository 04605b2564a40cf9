package mechanism

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sync"
	"time"

	"gridvo/internal/assign"
	"gridvo/internal/fault"
)

// EngineStats aggregates solver-engine activity: how many coalition
// evaluations hit the IP solver, how many were served from the cache, and
// what the fresh solves cost. Engine.Stats counters are cumulative over
// every caller; Result.Stats carries the counters of one run only.
type EngineStats struct {
	// Solves counts fresh IP solves performed by the engine.
	Solves int64
	// CacheHits counts coalition evaluations served from the cache —
	// i.e. solves avoided.
	CacheHits int64
	// WarmStarts counts fresh solves launched with a seed projected from
	// a cached parent coalition's solution (the incumbent-inheritance
	// path of the warm-start pipeline).
	WarmStarts int64
	// SeedAccepted counts warm-start seeds the solver repaired into a
	// feasible starting incumbent (always ≤ WarmStarts).
	SeedAccepted int64
	// SeedWins counts accepted seeds that beat every constructive
	// heuristic, i.e. inherited incumbents that were strictly better than
	// anything a cold solve starts from (always ≤ SeedAccepted).
	SeedWins int64
	// Nodes sums branch-and-bound nodes across fresh solves.
	Nodes int64
	// PrunedBySymmetry sums branches skipped by the solver's twin
	// symmetry rule across fresh solves. Nonzero only when coalition
	// instances contain GSPs with identical cost and time rows.
	PrunedBySymmetry int64
	// PrunedByDominance sums branches skipped by the twin dominance rule
	// across fresh solves (same identical-row precondition).
	PrunedByDominance int64
	// WallTime sums solver wall-clock time across fresh solves.
	WallTime time.Duration
	// PowerIterations sums power-method multiply steps performed by the
	// mechanism loop's per-coalition reputation solves.
	PowerIterations int64
	// PowerIterationsSaved estimates multiply steps avoided by
	// eigenvector warm starts. For the first iteration it is exact (the
	// grand coalition's global vector is reused instead of recomputed);
	// for later iterations it is the shortfall versus the run's cold
	// first solve, a proxy since the true cold count for each subgraph is
	// never computed.
	PowerIterationsSaved int64
	// Degraded counts fresh evaluations served below the exact tier of
	// the degradation ladder: searches truncated by the node budget or a
	// (real or injected) cancellation, and inputs the malformed-input
	// guard rejected with an explicit infeasible solution instead of a
	// solve.
	Degraded int64
	// Reformations counts eviction-loop rounds whose membership was
	// changed by churn (joins or leaves between iterations), forcing an
	// online re-formation of the VO in flight.
	Reformations int64
	// ChurnJoins / ChurnLeaves count the individual membership changes
	// behind those re-formations.
	ChurnJoins  int64
	ChurnLeaves int64
}

// Evaluations returns the total coalition evaluations the engine served
// (fresh solves plus cache hits).
func (s EngineStats) Evaluations() int64 { return s.Solves + s.CacheHits }

// HitRate returns CacheHits / Evaluations, or 0 when nothing was served.
func (s EngineStats) HitRate() float64 {
	if t := s.Evaluations(); t > 0 {
		return float64(s.CacheHits) / float64(t)
	}
	return 0
}

// WarmStartRate returns SeedAccepted / WarmStarts — the fraction of
// seeded solves whose inherited incumbent survived repair — or 0 when no
// solve was warm-started.
func (s EngineStats) WarmStartRate() float64 {
	if s.WarmStarts > 0 {
		return float64(s.SeedAccepted) / float64(s.WarmStarts)
	}
	return 0
}

// Add returns the fieldwise sum (for harness-level aggregation).
func (s EngineStats) Add(o EngineStats) EngineStats {
	return EngineStats{
		Solves:               s.Solves + o.Solves,
		CacheHits:            s.CacheHits + o.CacheHits,
		WarmStarts:           s.WarmStarts + o.WarmStarts,
		SeedAccepted:         s.SeedAccepted + o.SeedAccepted,
		SeedWins:             s.SeedWins + o.SeedWins,
		Nodes:                s.Nodes + o.Nodes,
		PrunedBySymmetry:     s.PrunedBySymmetry + o.PrunedBySymmetry,
		PrunedByDominance:    s.PrunedByDominance + o.PrunedByDominance,
		WallTime:             s.WallTime + o.WallTime,
		PowerIterations:      s.PowerIterations + o.PowerIterations,
		PowerIterationsSaved: s.PowerIterationsSaved + o.PowerIterationsSaved,
		Degraded:             s.Degraded + o.Degraded,
		Reformations:         s.Reformations + o.Reformations,
		ChurnJoins:           s.ChurnJoins + o.ChurnJoins,
		ChurnLeaves:          s.ChurnLeaves + o.ChurnLeaves,
	}
}

// String renders the stats for the cmds' summaries.
func (s EngineStats) String() string {
	out := fmt.Sprintf("%d solves (%d warm-started), %d cache hits (%.1f%% hit rate), %d nodes, %s solver time, %d power iterations (%d saved)",
		s.Solves, s.WarmStarts, s.CacheHits, 100*s.HitRate(), s.Nodes, s.WallTime, s.PowerIterations, s.PowerIterationsSaved)
	if s.PrunedBySymmetry > 0 || s.PrunedByDominance > 0 {
		out += fmt.Sprintf(", %d twin prunes (%d symmetry, %d dominance)",
			s.PrunedBySymmetry+s.PrunedByDominance, s.PrunedBySymmetry, s.PrunedByDominance)
	}
	if s.Degraded > 0 {
		out += fmt.Sprintf(", %d degraded", s.Degraded)
	}
	if s.Reformations > 0 {
		out += fmt.Sprintf(", %d re-formations (%d joins, %d leaves)",
			s.Reformations, s.ChurnJoins, s.ChurnLeaves)
	}
	return out
}

// Engine is the unified solve path for one scenario: every layer that
// needs v(C) — the mechanism loop, the stability check, the merge-split
// baseline, coalition.Game value functions — routes through
// Engine.SolveWithParent, which memoizes solutions by coalition bitmask.
// One engine per scenario means TVOF iterations, RVOF baselines, and
// post-hoc stability analyses never re-solve a coalition any of them
// already solved.
//
// Solutions are cached only when the search was not interrupted by the
// context (an interrupted solve is deadline-dependent, hence not
// deterministic); node-budget truncation is deterministic and cacheable.
// Engine is safe for concurrent use.
type Engine struct {
	sc     *Scenario
	solver assign.Solver
	opts   assign.Options

	mu      sync.Mutex
	noCache bool
	cache   map[uint64]cached
	stats   EngineStats
}

// cached is one memoized solution. Its assignment is packed into int8 —
// a keyable coalition has at most 64 members, so every local index fits —
// an eighth of the []int's memory: 8 KB instead of 64 KB per entry at
// 8192 tasks.
type cached struct {
	sol    assign.Solution // Assign is nil; assign holds it
	assign []int8
}

// pack stores a solution in cached form.
func pack(sol assign.Solution) cached {
	var p []int8
	if len(sol.Assign) > 0 {
		p = make([]int8, len(sol.Assign))
		for j, g := range sol.Assign {
			p[j] = int8(g)
		}
	}
	sol.Assign = nil
	return cached{sol: sol, assign: p}
}

// unpack returns the solution with a fresh assignment slice, so callers
// can retain it without aliasing each other.
func (c cached) unpack() assign.Solution {
	sol := c.sol
	if len(c.assign) > 0 {
		sol.Assign = make([]int, len(c.assign))
		for j, g := range c.assign {
			sol.Assign[j] = int(g)
		}
	}
	return sol
}

// NewEngine creates the solve engine for a scenario with the given solver
// options. The scenario's matrices, deadline, and payment must not change
// afterwards — the cache keys coalitions only by membership. Any
// SeedAssign in the options is discarded: warm-start seeds are projected
// per solve from cached parent solutions, never fixed engine-wide.
//
// The options' Inject is the engine's fault injector, the only way one
// reaches a mechanism run: the engine visits it once per coalition
// evaluation (fault.PointEngine), the IP solver once per solve
// (fault.PointSolve), and every run on the engine at its reputation solves
// (fault.PointReputation) and eviction scoring (fault.PointTrust). A solve
// a fault touched is never cached, so injected failures stay transient
// instead of poisoning later evaluations.
func NewEngine(sc *Scenario, solverOpts assign.Options) *Engine {
	solverOpts.SeedAssign = nil
	return &Engine{
		sc:     sc,
		solver: assign.DefaultSolver(),
		opts:   solverOpts,
		cache:  map[uint64]cached{},
	}
}

// SetSolver replaces the backend (tests inject counting or stub solvers;
// future PRs can swap in alternative backends). Not safe to call
// concurrently with Solve.
func (e *Engine) SetSolver(s assign.Solver) {
	if s == nil {
		s = assign.DefaultSolver()
	}
	e.solver = s
}

// injected reports whether the engine's solver options carry a fault
// injector.
func (e *Engine) injected() bool { return e.opts.Inject != nil }

// SetCacheEnabled toggles memoization (the determinism tests compare
// cache-on and cache-off runs). Disabling does not drop entries already
// cached; it only bypasses lookups and stores.
func (e *Engine) SetCacheEnabled(on bool) {
	e.mu.Lock()
	e.noCache = !on
	e.mu.Unlock()
}

// Scenario returns the scenario the engine solves for.
func (e *Engine) Scenario() *Scenario { return e.sc }

// Stats returns a snapshot of the cumulative engine stats.
func (e *Engine) Stats() EngineStats {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.stats
}

// memberMask returns the coalition bitmask, or false when the member set
// cannot be keyed (≥64 GSPs — beyond coalition.MaxPlayers the cache is
// bypassed rather than wrong).
func memberMask(members []int) (uint64, bool) {
	var mask uint64
	for _, g := range members {
		if g < 0 || g > 63 {
			return 0, false
		}
		mask |= 1 << uint(g)
	}
	return mask, true
}

// SolveWithParent returns the assignment solution for the coalition given
// by global GSP indices, serving from the cache when the coalition was
// already solved. Cache hits return a defensive copy of the assignment so
// callers can retain it without aliasing each other.
//
// parent, when non-nil, names a related coalition (typically this
// coalition plus the GSP an iteration just evicted, or a merge constituent)
// whose cached solution — if present and feasible — is projected onto
// members and passed to the solver as Options.SeedAssign. The solver
// repairs the projection and uses it as its starting incumbent, so each
// TVOF/RVOF iteration resumes from its parent's optimum instead of
// re-deriving one from scratch. Seeds only tighten the incumbent, never any bound, so
// cacheability is unchanged and a seeded solve is never worse than a cold
// one. Cache misses with an unusable parent degrade silently to a cold
// solve.
func (e *Engine) SolveWithParent(ctx context.Context, members, parent []int) assign.Solution {
	return e.solve(ctx, members, parent, nil)
}

// solve is SolveWithParent that also counts the evaluation into run, the
// calling mechanism run's own stats (nil for callers that keep none).
// Every counter moves under e.mu, so concurrent runs on one engine each
// count exactly their own work and the runs' counters sum to the totals.
func (e *Engine) solve(ctx context.Context, members, parent []int, run *EngineStats) assign.Solution {
	// Fault hook: one visit per coalition evaluation. EmptyCoalition
	// replaces the member set; PoisonCost corrupts the instance below.
	// Either way the degraded result is returned explicitly and never
	// cached.
	plan := e.opts.Inject.Visit(fault.PointEngine)
	if plan.Class == fault.EmptyCoalition {
		members = nil
	}
	// Malformed-input guard, the bottom rung of the degradation ladder: an
	// empty coalition cannot satisfy coverage (13) while tasks remain, and
	// a corrupted instance must not reach the solver (SolveCtx treats an
	// invalid instance as a caller bug and panics). Both come back as an
	// explicit infeasible solution instead of an error or a panic.
	if len(members) == 0 && e.sc.N() > 0 {
		e.note(run, EngineStats{Degraded: 1})
		return assign.Solution{Optimal: true}
	}

	mask, keyable := memberMask(members)
	var seed []int8
	e.mu.Lock()
	if keyable && !e.noCache {
		if c, ok := e.cache[mask]; ok {
			e.tally(run, EngineStats{CacheHits: 1})
			e.mu.Unlock()
			return c.unpack()
		}
	}
	if parent != nil && !e.noCache {
		if pmask, ok := memberMask(parent); ok {
			// Cached entries are immutable once stored, so projecting
			// from the stored assignment outside the lock is safe.
			if pc, ok := e.cache[pmask]; ok && pc.sol.Feasible {
				seed = pc.assign
			}
		}
	}
	e.mu.Unlock()

	opts := e.opts
	if seed != nil {
		opts.SeedAssign = projectAssign(seed, parent, members)
	}
	in := e.sc.Instance(members)
	if plan.Class == fault.PoisonCost {
		in = poisonCost(in, plan.Pick)
	}
	if plan.Fired() {
		// A fault-touched instance may now be malformed; reject it here
		// (degraded, infeasible, uncached) rather than let the solver
		// panic. Clean solves skip this re-validation entirely.
		if err := in.Validate(); err != nil {
			e.note(run, EngineStats{Degraded: 1})
			return assign.Solution{}
		}
	}
	sol := e.solver.SolveCtx(ctx, in, opts)

	d := EngineStats{
		Solves:            1,
		Nodes:             sol.Stats.Nodes,
		PrunedBySymmetry:  sol.Stats.PrunedBySymmetry,
		PrunedByDominance: sol.Stats.PrunedByDominance,
		WallTime:          sol.Stats.WallTime,
	}
	if opts.SeedAssign != nil {
		d.WarmStarts = 1
		d.SeedAccepted = sol.Stats.SeedAccepted
		d.SeedWins = sol.Stats.SeedWins
	}
	if !sol.Optimal {
		d.Degraded = 1
	}
	e.mu.Lock()
	e.tally(run, d)
	if keyable && !e.noCache && !sol.Stats.Interrupted() && !plan.Fired() {
		e.cache[mask] = pack(sol)
	}
	e.mu.Unlock()
	return sol
}

// Adopt stores sol as the cached solution of the coalition members, as if
// the engine had solved it: a caller that already solved that instance
// with the engine's solver options (sim's feasibility check of the grand
// coalition) hands the solution over instead of having it solved again.
// Nothing is counted — the solve was not the engine's. Adopt refuses, and
// reports false, when the search was interrupted (such a solution is
// deadline-dependent and never cached), when the coalition cannot be keyed
// or the cache is disabled, and when the coalition is already cached.
func (e *Engine) Adopt(members []int, sol assign.Solution) bool {
	mask, keyable := memberMask(members)
	if !keyable || sol.Stats.Interrupted() {
		return false
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	if _, ok := e.cache[mask]; ok || e.noCache {
		return false
	}
	e.cache[mask] = pack(sol)
	return true
}

// tally adds one update d to the engine totals and, when run is non-nil,
// to that run's own stats. Callers hold e.mu.
func (e *Engine) tally(run *EngineStats, d EngineStats) {
	e.stats = e.stats.Add(d)
	if run != nil {
		*run = run.Add(d)
	}
}

// note is tally for callers that do not hold e.mu.
func (e *Engine) note(run *EngineStats, d EngineStats) {
	e.mu.Lock()
	e.tally(run, d)
	e.mu.Unlock()
}

// poisonCost returns a copy of the instance with one cost entry set to NaN
// — the injected malformed-matrix input. Cost rows are deep-copied so the
// scenario's backing matrices stay intact; pick selects the entry.
func poisonCost(in *assign.Instance, pick uint64) *assign.Instance {
	k, n := in.NumGSPs(), in.NumTasks()
	if k == 0 || n == 0 {
		return in
	}
	out := &assign.Instance{
		Cost:     make([][]float64, k),
		Time:     in.Time,
		Deadline: in.Deadline,
		Budget:   in.Budget,
	}
	for i := range out.Cost {
		out.Cost[i] = append([]float64(nil), in.Cost[i]...)
	}
	out.Cost[int(pick%uint64(k))][int((pick>>32)%uint64(n))] = math.NaN()
	return out
}

// noteChurn folds one churned round's membership changes into the engine
// stats and run's: the round counts as a re-formation.
func (e *Engine) noteChurn(run *EngineStats, joins, leaves int) {
	e.note(run, EngineStats{Reformations: 1, ChurnJoins: int64(joins), ChurnLeaves: int64(leaves)})
}

// notePower folds one reputation solve's power-method activity into the
// engine stats and run's: iters multiply steps performed, saved steps
// avoided by a warm start (see EngineStats.PowerIterationsSaved for the
// estimate's semantics).
func (e *Engine) notePower(run *EngineStats, iters, saved int) {
	e.note(run, EngineStats{PowerIterations: int64(iters), PowerIterationsSaved: int64(saved)})
}

// projectAssign maps a parent coalition's task assignment onto a child
// coalition: tasks whose GSP the child retains keep it (re-indexed to the
// child's local indices); tasks of departed members become -1, the
// orphan marker the solver's seed repair reassigns. parent and child are
// ascending global GSP indices; parentAssign is indexed by task with
// parent-local values.
func projectAssign(parentAssign []int8, parent, child []int) []int {
	local := map[int]int{}
	for cl, g := range child {
		local[g] = cl
	}
	seed := make([]int, len(parentAssign))
	for j, p := range parentAssign {
		pl := int(p)
		seed[j] = -1
		if pl >= 0 && pl < len(parent) {
			if cl, ok := local[parent[pl]]; ok {
				seed[j] = cl
			}
		}
	}
	return seed
}

// errEngineScenario rejects an engine passed for the wrong scenario — a
// cross-scenario cache would silently serve wrong solutions.
var errEngineScenario = errors.New("mechanism: engine belongs to a different scenario")

// engineFor returns the engine a mechanism entry point should use: the
// one the caller passed via Options, else a fresh engine for the
// scenario.
func engineFor(sc *Scenario, opts *Options) (*Engine, error) {
	eng := opts.Engine
	if eng == nil {
		return NewEngine(sc, opts.Solver), nil
	}
	if eng.sc != sc {
		return nil, errEngineScenario
	}
	return eng, nil
}
