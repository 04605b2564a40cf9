package assign

import (
	"context"
	"math"
	"sort"
	"time"

	"gridvo/internal/fault"
)

// Options configure Solve.
type Options struct {
	// NodeBudget caps explored branch-and-bound nodes. Zero selects
	// DefaultNodeBudget; negative means unlimited (use only in tests).
	NodeBudget int64
	// DisableHeuristics skips incumbent seeding (tests use this to
	// exercise the raw search).
	DisableHeuristics bool
	// CtxCheckEvery is the number of nodes explored between
	// context-cancellation checks; zero selects DefaultCtxCheckEvery.
	// Tests use small values to cancel at precise points.
	CtxCheckEvery int64
	// SeedAssign, when non-nil, is a warm-start hint of length NumTasks:
	// entries are instance-local GSP indices, with -1 (or any
	// out-of-range value) marking tasks whose previous executor is gone —
	// the shape a parent coalition's solution takes after an eviction.
	// The solver repairs the hint (reassigns orphaned tasks, restores
	// coverage, local-searches) and installs the result as the initial
	// incumbent when it is feasible and beats the constructive
	// heuristics. Seeds only ever tighten the incumbent — they never
	// affect lower bounds — so they cannot worsen the returned solution.
	// The slice is read, never modified or retained.
	SeedAssign []int
	// DisableTwinPruning turns off the symmetry/dominance rules applied
	// to GSP pairs with bitwise-identical Cost and Time rows. The rules
	// are inert on instances without such twins (the mechanism's
	// continuous random costs never produce them), so the switch exists
	// for the pruning-identity property tests and for callers that want
	// the raw search on hand-built symmetric instances.
	DisableTwinPruning bool
	// AssignBuf, when non-nil, becomes the backing array for
	// Solution.Assign (grown when its capacity is short) — the
	// zero-allocation steady-state mode for callers that solve in a loop.
	// The caller owns the aliasing consequences: a subsequent solve with
	// the same buffer overwrites the previous solution's Assign. Callers
	// that retain solutions (the mechanism engine's cache above all) must
	// leave it nil.
	AssignBuf []int
	// Inject, when non-nil, is the deterministic fault injector visited
	// once per solve (fault.PointSolve): it can delay the solve (Latency)
	// or abort the search after a small node count exactly the way a
	// context cancellation would (Cancel). The nil default costs a single
	// pointer check.
	Inject *fault.Injector
}

// DefaultNodeBudget bounds the search on large instances. A node costs
// tens of nanoseconds, so the default keeps a single solve well under a
// second while still proving optimality for the small VO-iteration
// instances that dominate the mechanism's work.
const DefaultNodeBudget = 2_000_000

// DefaultCtxCheckEvery is how many nodes the search explores between
// ctx.Err() polls: frequent enough that a deadline overshoots by well
// under a millisecond, rare enough to stay off the hot path.
const DefaultCtxCheckEvery = 2048

// Solve finds a minimum-cost assignment for the instance using exact
// branch-and-bound warmed by heuristic incumbents. The returned solution's
// Optimal flag reports whether the search completed (optimality or
// infeasibility proven); when the node budget interrupts it, the best
// incumbent and the root lower bound are returned instead. It is SolveCtx
// with a background context.
//
//gridvolint:zeroalloc
func Solve(in *Instance, opts Options) Solution {
	return SolveCtx(context.Background(), in, opts)
}

// SolveCtx is Solve honoring ctx alongside the node budget: the search
// polls ctx.Err() every Options.CtxCheckEvery nodes and, on cancellation
// or deadline expiry, stops and returns the best incumbent found so far
// with Optimal == false — never an error-and-nothing. An already-cancelled
// context skips the tree search entirely (Stats.Nodes == 0) but still
// seeds heuristic incumbents, so callers under an expired deadline get a
// usable (possibly sub-optimal) assignment whenever the heuristics find
// one.
//
//gridvolint:ignore noclock Stats.WallTime measurement only, never control flow
//gridvolint:zeroalloc
func SolveCtx(ctx context.Context, in *Instance, opts Options) Solution {
	if err := in.Validate(); err != nil {
		panic(err) // programming error: instances are built by this module's callers
	}
	// Fault hook: one visit per solve. A Latency plan sleeps here; a
	// Cancel plan aborts the search after CancelAfterNodes nodes through
	// the same path as a real context cancellation (Stats.Interrupted()
	// becomes true, so the result is never cached).
	var cancelAfter int64
	if plan := opts.Inject.Visit(fault.PointSolve); plan.Fired() {
		switch plan.Class {
		case fault.Latency:
			time.Sleep(plan.Sleep)
		case fault.Cancel:
			cancelAfter = plan.CancelAfterNodes
		}
	}
	start := time.Now()
	k, n := in.NumGSPs(), in.NumTasks()
	sol := Solution{LowerBound: lowerBoundTotal(in)}

	// Degenerate shapes.
	if k == 0 {
		sol.Feasible = n == 0
		sol.Optimal = true
		// Empty-but-non-nil Assign distinguishes "solved, nothing to
		// assign" from "infeasible"; reuse the caller's buffer when one
		// is supplied so even this path stays allocation-free.
		if opts.AssignBuf != nil {
			sol.Assign = opts.AssignBuf[:0]
		} else {
			sol.Assign = []int{}
		}
		sol.Stats.WallTime = time.Since(start)
		return sol
	}
	if n < k {
		// Constraint (13) unsatisfiable: fewer tasks than GSPs.
		sol.Optimal = true
		sol.Stats.WallTime = time.Since(start)
		return sol
	}

	budget := opts.NodeBudget
	if budget == 0 {
		budget = DefaultNodeBudget
	}

	s := newSearcher(ctx, in, opts, budget)
	s.cancelAfter = cancelAfter

	// Seed incumbents.
	seedIncumbents(in, opts, s)

	if ctx.Err() != nil {
		// Already cancelled: return the heuristic incumbent immediately.
		s.ctxAborted, s.aborted = true, true
		s.prunedDeadline++
	} else {
		s.prepare()
		s.dfs(0, 0)
	}

	if s.haveBest {
		sol.Feasible = true
		// Canonical cost: recompute in task-index order so the reported
		// figure does not depend on which incumbent (heuristic, seed, or
		// tree search, each summing in a different order) happened to win
		// — warm- and cold-started solves that find the same assignment
		// report bit-identical costs.
		sol.Cost = TotalCost(in, s.bestAssign)
		if opts.AssignBuf != nil {
			sol.Assign = append(opts.AssignBuf[:0], s.bestAssign...)
		} else {
			sol.Assign = append([]int(nil), s.bestAssign...)
		}
	}
	s.fill(&sol)
	sol.Optimal = !s.aborted
	s.release()
	if sol.Feasible && sol.Cost <= sol.LowerBound+Eps {
		// Incumbent meets the global lower bound: optimal regardless of
		// whether the search was truncated.
		sol.Optimal = true
	}
	sol.Stats.WallTime = time.Since(start)
	return sol
}

// newSearcher builds the DFS state for one solve, drawing the searcher
// struct and its scratch buffers from the package pools. Every searcher
// must be released exactly once.
//
//gridvolint:zeroalloc
func newSearcher(ctx context.Context, in *Instance, opts Options, budget int64) *searcher {
	checkEvery := opts.CtxCheckEvery
	if checkEvery <= 0 {
		checkEvery = DefaultCtxCheckEvery
	}
	s := searcherPool.Get().(*searcher)
	sc := scratchPool.Get().(*searchScratch)
	*s = searcher{
		in:           in,
		k:            in.NumGSPs(),
		n:            in.NumTasks(),
		budget:       budget,
		bestCost:     math.Inf(1),
		cap:          in.budgetCap(),
		deadline:     in.Deadline,
		disableTwin:  opts.DisableTwinPruning,
		ctx:          ctx,
		checkEvery:   checkEvery,
		ctxCountdown: checkEvery,
		scratch:      sc,
	}
	s.maxT = maxTimes(in, &sc.maxT)
	sc.heur.maxT = s.maxT
	s.bestAssign = growInts(&sc.best, s.n)
	return s
}

// seedIncumbents warms the searcher with heuristic assignments and, when
// Options.SeedAssign is set, the repaired warm-start seed. Heuristics run
// first so the seed counters can report whether inherited incumbents beat
// them. All candidates are built in the searcher's pooled heuristic
// buffers; winners are copied into bestAssign before the next candidate
// overwrites them.
//
//gridvolint:zeroalloc
func seedIncumbents(in *Instance, opts Options, s *searcher) {
	hb := &s.scratch.heur
	if !opts.DisableHeuristics {
		n := in.NumTasks()
		heurs := [...]Heuristic{HeuristicGreedyCost, HeuristicMCT, HeuristicMinMin, HeuristicSufferage}
		candidates := heurs[:2]
		if n <= 1024 {
			candidates = heurs[:]
		}
		for _, h := range candidates {
			a := runHeuristicBuf(in, h, hb)
			if a == nil {
				continue
			}
			localSearchBuf(in, a, hb.load, hb.count)
			if verifyBuf(in, a, hb.load, hb.count) != nil {
				continue
			}
			if c := TotalCost(in, a); c < s.bestCost {
				s.bestCost = c
				s.bestAssign = append(s.bestAssign[:0], a...)
				s.haveBest = true
				s.incumbents++
			}
		}
	}
	if opts.SeedAssign != nil {
		if a := repairSeedBuf(in, opts.SeedAssign, hb); a != nil {
			s.seedAccepted = 1
			if c := TotalCost(in, a); c < s.bestCost {
				s.bestCost = c
				s.bestAssign = append(s.bestAssign[:0], a...)
				s.haveBest = true
				s.incumbents++
				s.seedWins = 1
			}
		}
	}
}

// searcher holds the DFS state for one Solve call.
type searcher struct {
	in       *Instance
	k, n     int
	budget   int64
	cap      float64 // budget constraint (payment), +Inf if none
	deadline float64 // Instance.Deadline, hoisted off the hot loop

	order    []int     // tasks in branching order (descending max time)
	gspOrder [][]int   // per ordered-task: GSPs by ascending cost
	sufMin   []float64 // sufMin[idx] = Σ_{q>=idx} min_g cost(g, order[q])
	// posCost/posTime mirror Cost/Time in (position, cost-rank) layout:
	// posCost[pos*k+r] = Cost[gspOrder[pos][r]][order[pos]]. The DFS inner
	// loop reads them sequentially instead of chasing row pointers; the
	// values are bit-identical copies, so the search trajectory cannot
	// change.
	posCost   []float64
	posTime   []float64
	maxT      []float64 // per-task max execution time (branch priority key)
	st        []gspState
	uncovered int
	assign    []int // assign[orderPos] = gsp
	// twins[g] is the largest g' < g whose Cost and Time rows are
	// bitwise identical to g's, or -1; the slice is nil when the
	// instance has no twins (or pruning is disabled), which is the
	// single branch the hot loop pays on twin-free instances.
	twins       []int
	disableTwin bool

	bestCost   float64
	bestAssign []int // indexed by task id (not order position); pooled backing
	haveBest   bool  // bestAssign holds a feasible incumbent
	nodes      int64
	aborted    bool

	// Context plumbing: ctx is polled every checkEvery nodes via a
	// countdown so the hot loop stays divisor-free.
	ctx          context.Context
	checkEvery   int64
	ctxCountdown int64
	ctxAborted   bool
	// cancelAfter, when positive, aborts the search after that many nodes
	// through the cancellation path — the injected mid-search fault.
	cancelAfter int64

	// Instrumentation counters feeding Solution.Stats.
	prunedBound     int64
	prunedDeadline  int64
	prunedBudget    int64
	prunedSymmetry  int64
	prunedDominance int64
	incumbents      int64
	seedAccepted    int64
	seedWins        int64

	// scratch is the pooled buffer set backing the slices above; release()
	// returns it once the solve no longer references them.
	scratch *searchScratch
}

// fill copies the searcher's counters into a solution's diagnostics.
//
//gridvolint:zeroalloc
func (s *searcher) fill(sol *Solution) {
	sol.Nodes = s.nodes
	sol.NodeBudgetHit = s.aborted && !s.ctxAborted
	sol.Stats.Nodes = s.nodes
	sol.Stats.PrunedByBound = s.prunedBound
	sol.Stats.PrunedByDeadline = s.prunedDeadline
	sol.Stats.PrunedByBudget = s.prunedBudget
	sol.Stats.PrunedBySymmetry = s.prunedSymmetry
	sol.Stats.PrunedByDominance = s.prunedDominance
	sol.Stats.IncumbentUpdates = s.incumbents
	sol.Stats.SeedAccepted = s.seedAccepted
	sol.Stats.SeedWins = s.seedWins
}

//gridvolint:zeroalloc
func (s *searcher) prepare() {
	in := s.in
	sc := s.scratch
	s.order = growInts(&sc.order, s.n)
	for j := range s.order {
		s.order[j] = j
	}
	// Branch on hard (long) tasks first: they constrain the deadline
	// most, failing early instead of deep. maxT was computed by
	// newSearcher (the heuristic seeding phase shares it).
	sc.taskSort.ids, sc.taskSort.key = s.order, s.maxT
	sort.Stable(&sc.taskSort)

	// gspOrder rows share one flat backing array (better locality, one
	// allocation). Every row is reset to the identity permutation before
	// sorting so pooled leftovers cannot perturb the stable sort. The
	// cheapest rank of each row doubles as the per-task minimum summed by
	// the Σ-min suffix bound.
	flat := growInts(&sc.gspFlat, s.n*s.k)
	if cap(sc.gspRows) < s.n {
		sc.gspRows = make([][]int, s.n)
	}
	s.gspOrder = sc.gspRows[:s.n]
	s.posCost = growFloats(&sc.posCost, s.n*s.k)
	s.posTime = growFloats(&sc.posTime, s.n*s.k)
	costRow := growFloats(&sc.costRow, s.k)
	s.sufMin = growFloats(&sc.sufMin, s.n+1)
	s.sufMin[s.n] = 0
	for pos := s.n - 1; pos >= 0; pos-- {
		t := s.order[pos]
		gs := flat[pos*s.k : (pos+1)*s.k : (pos+1)*s.k]
		for g := range gs {
			gs[g] = g
			costRow[g] = in.Cost[g][t]
		}
		sortIDsByKeyAsc(gs, costRow)
		s.gspOrder[pos] = gs
		pc := s.posCost[pos*s.k : (pos+1)*s.k]
		pt := s.posTime[pos*s.k : (pos+1)*s.k]
		for r, g := range gs {
			pc[r] = costRow[g]
			pt[r] = in.Time[g][t]
		}
		s.sufMin[pos] = s.sufMin[pos+1] + pc[0]
	}

	s.st = growStates(&sc.gstate, s.k)
	for g := range s.st {
		s.st[g] = gspState{}
	}
	s.uncovered = s.k
	s.assign = growInts(&sc.assign, s.n)

	// Twin detection: GSP pairs with bitwise-identical Cost and Time
	// rows are interchangeable, so the DFS can break their symmetry (see
	// the rules in the hot loop). On continuous random data the first
	// element of a row pair already differs, so detection is O(k²) in
	// practice and s.twins stays nil — the hot loop then pays a single
	// never-taken nil check.
	s.twins = nil
	if !s.disableTwin && s.k >= 2 {
		twin := growInts(&sc.twin, s.k)
		any := false
		for g := range twin {
			twin[g] = -1
			for h := g - 1; h >= 0; h-- {
				if rowsEqual(in.Cost[h], in.Cost[g]) && rowsEqual(in.Time[h], in.Time[g]) {
					twin[g] = h
					any = true
					break
				}
			}
		}
		if any {
			s.twins = twin
		}
	}
}

// rowsEqual reports whether two matrix rows are exactly float-equal
// (Validate rejects NaN, so == is total here; ±0 compare equal and are
// arithmetically interchangeable in every sum the search forms). Exact
// comparison is the point: the twin-pruning rules are sound only for
// perfectly interchangeable GSPs, and epsilon-equal rows are not
// interchangeable (swapping them changes totals).
//
//gridvolint:zeroalloc
func rowsEqual(a, b []float64) bool {
	for i, v := range a {
		if v != b[i] {
			return false
		}
	}
	return true
}

// release returns the scratch buffers and the searcher itself to the
// package pools. Callers must copy bestAssign and read every counter they
// need first: the struct is zeroed, so a use-after-release fails loudly
// instead of corrupting a concurrent solve.
//
//gridvolint:zeroalloc
func (s *searcher) release() {
	if s.scratch == nil {
		return
	}
	scratchPool.Put(s.scratch)
	*s = searcher{}
	searcherPool.Put(s)
}

// dfs is the branch-and-bound hot loop; it must not allocate in the
// steady state (TestSolveSteadyStateZeroAllocs pins this at runtime,
// allocguard pins it branch-by-branch at lint time).
//
//gridvolint:zeroalloc
func (s *searcher) dfs(pos int, costSoFar float64) {
	if s.aborted {
		return
	}
	s.nodes++
	if s.budget > 0 && s.nodes > s.budget {
		s.aborted = true
		s.prunedBudget++
		return
	}
	if s.cancelAfter > 0 && s.nodes > s.cancelAfter {
		s.aborted = true
		s.ctxAborted = true
		s.prunedDeadline++
		return
	}
	if s.ctxCountdown--; s.ctxCountdown <= 0 {
		s.ctxCountdown = s.checkEvery
		if s.ctx.Err() != nil {
			s.aborted = true
			s.ctxAborted = true
			s.prunedDeadline++
			return
		}
	}
	if pos == s.n {
		if s.uncovered == 0 && costSoFar < s.bestCost && costSoFar <= s.cap+Eps {
			s.bestCost = costSoFar
			for p, t := range s.order {
				s.bestAssign[t] = s.assign[p]
			}
			s.haveBest = true
			s.incumbents++
		}
		return
	}
	remaining := s.n - pos
	if s.uncovered > remaining {
		s.prunedBound++
		return // cannot cover every GSP anymore
	}
	bound := costSoFar + s.sufMin[pos]
	if bound >= s.bestCost-Eps || bound > s.cap+Eps {
		s.prunedBound++
		return
	}
	// Hot loop. Invariants are hoisted into locals — dl is the exact
	// deadline+Eps value the un-hoisted comparison produced, nc+sufNext
	// preserves the left-associated (costSoFar+ct)+sufNext evaluation
	// order, and bc caches bestCost−Eps, refreshed at the only points
	// bestCost can move (a child's return). No float expression is
	// reassociated, so every comparison resolves exactly as before.
	mustCover := s.uncovered == remaining
	base := pos * s.k
	pc := s.posCost[base : base+s.k]
	pt := s.posTime[base : base+s.k]
	gs := s.gspOrder[pos]
	sufNext := s.sufMin[pos+1]
	dl := s.deadline + Eps
	st := s.st
	tw := s.twins
	bc := s.bestCost - Eps
	for r, g := range gs {
		if mustCover && st[g].count > 0 {
			continue
		}
		if tw != nil {
			if h := tw[g]; h >= 0 {
				// g and h are interchangeable (identical rows; h < g, so
				// the cost-stable GSP order visits h first at every
				// position). Symmetry: a branch opening g while h is
				// still empty mirrors one opening h instead — require
				// twins to be opened in index order. Dominance: with h
				// in use and equal loads, the subtree under "task → g"
				// maps solution-for-solution (swap the twins' future
				// tasks) onto the already-explored subtree under
				// "task → h", at identical cost and feasibility.
				if st[h].count == 0 {
					s.prunedSymmetry++
					continue
				}
				// Dominance requires exactly interchangeable residual capacity.
				if st[g].count > 0 && st[h].load == st[g].load {
					s.prunedDominance++
					continue
				}
			}
		}
		nc := costSoFar + pc[r]
		if nc+sufNext >= bc {
			// GSPs are cost-sorted: no later g can be better either,
			// unless the coverage filter skipped cheaper ones.
			if !mustCover {
				break
			}
			continue
		}
		tt := pt[r]
		if st[g].load+tt > dl {
			continue
		}
		st[g].load += tt
		st[g].count++
		if st[g].count == 1 {
			s.uncovered--
		}
		s.assign[pos] = g
		s.dfs(pos+1, nc)
		st[g].load -= tt
		st[g].count--
		if st[g].count == 0 {
			s.uncovered++
		}
		if s.aborted {
			return
		}
		bc = s.bestCost - Eps
	}
}
