package assign

import (
	"errors"
	"fmt"
	"math"
	"time"
)

// Eps is the tolerance for deadline and budget comparisons. Costs and times
// are O(1e0..1e7); 1e-6 absolute slack is far below any meaningful margin.
const Eps = 1e-6

// Instance is one task assignment problem over a fixed set of GSPs
// (typically the members of a candidate VO).
type Instance struct {
	// Cost[i][j] is c(T_j, G_i): the cost GSP i incurs executing task j.
	Cost [][]float64
	// Time[i][j] is t(T_j, G_i) = w(T_j)/s(G_i): seconds GSP i needs for
	// task j.
	Time [][]float64
	// Deadline is d: every GSP's total assigned time must not exceed it.
	Deadline float64
	// Budget is the payment P capping total cost (constraint 10). Zero
	// or negative means "no budget constraint".
	Budget float64
}

// NumGSPs returns k.
func (in *Instance) NumGSPs() int { return len(in.Cost) }

// NumTasks returns n.
func (in *Instance) NumTasks() int {
	if len(in.Cost) == 0 {
		return 0
	}
	return len(in.Cost[0])
}

// budgetCap returns the effective budget (+Inf when unconstrained).
func (in *Instance) budgetCap() float64 {
	if in.Budget <= 0 {
		return math.Inf(1)
	}
	return in.Budget
}

// Validate checks the structural consistency of the instance: matching
// matrix shapes, finite non-negative costs and times, a finite positive
// deadline. NaN and ±Inf entries are rejected like negative ones: they
// would silently disable the bound comparisons of the search.
func (in *Instance) Validate() error {
	k := len(in.Cost)
	if len(in.Time) != k {
		return fmt.Errorf("assign: cost has %d rows, time has %d", k, len(in.Time))
	}
	n := -1
	for i := 0; i < k; i++ {
		if n == -1 {
			n = len(in.Cost[i])
		}
		if len(in.Cost[i]) != n || len(in.Time[i]) != n {
			return fmt.Errorf("assign: row %d has ragged length", i)
		}
		for j := 0; j < n; j++ {
			if c := in.Cost[i][j]; c < 0 || math.IsNaN(c) || math.IsInf(c, 0) {
				return fmt.Errorf("assign: invalid cost %v at (%d,%d)", c, i, j)
			}
			if tt := in.Time[i][j]; tt < 0 || math.IsNaN(tt) || math.IsInf(tt, 0) {
				return fmt.Errorf("assign: invalid time %v at (%d,%d)", tt, i, j)
			}
		}
	}
	if k > 0 && (!(in.Deadline > 0) || math.IsInf(in.Deadline, 0)) {
		return fmt.Errorf("assign: non-positive deadline %v", in.Deadline)
	}
	if math.IsNaN(in.Budget) {
		return fmt.Errorf("assign: NaN budget")
	}
	return nil
}

// Stats instruments one solve: how the search spent its effort and what
// interrupted it, in the style of a serving stack's per-request run stats.
type Stats struct {
	// Nodes counts branch-and-bound nodes explored (mirrors
	// Solution.Nodes).
	Nodes int64
	// PrunedByBound counts subtrees cut by the cost lower bound, the
	// budget cap, or the coverage-feasibility check.
	PrunedByBound int64
	// PrunedByDeadline counts search interruptions by context
	// cancellation or deadline expiry (at most one per solve).
	PrunedByDeadline int64
	// PrunedByBudget counts search interruptions by node-budget
	// exhaustion (same cardinality as PrunedByDeadline).
	PrunedByBudget int64
	// PrunedBySymmetry counts branches skipped by the twin symmetry
	// rule: a GSP with an identical-row twin of lower index may not be
	// opened while that twin is still empty. Always zero on instances
	// without identical-row GSP pairs.
	PrunedBySymmetry int64
	// PrunedByDominance counts branches skipped by the twin dominance
	// rule: assigning a task to a GSP whose identical-row twin carries
	// exactly the same load explores a subtree isomorphic to one already
	// searched. Always zero on instances without identical-row pairs.
	PrunedByDominance int64
	// IncumbentUpdates counts strict improvements of the best feasible
	// assignment, heuristic seeds included.
	IncumbentUpdates int64
	// SeedAccepted counts Options.SeedAssign hints repaired into a
	// feasible assignment (at most one per solve).
	SeedAccepted int64
	// SeedWins counts accepted seeds that strictly beat every
	// constructive heuristic, becoming the initial incumbent (at most one
	// per solve; always ≤ SeedAccepted).
	SeedWins int64
	// WallTime is the wall-clock duration of the solve.
	WallTime time.Duration
}

// Interrupted reports whether the search was cut short by the context —
// the one condition under which a solve is not deterministic and must not
// be cached.
func (st *Stats) Interrupted() bool { return st.PrunedByDeadline > 0 }

// Solution is the result of solving an instance.
type Solution struct {
	// Feasible reports whether an assignment satisfying all constraints
	// was found. When false the other fields (except diagnostics) are
	// meaningless.
	Feasible bool
	// Assign maps task j to the (instance-local) GSP index executing it.
	Assign []int
	// Cost is the total execution cost C(T, C) of the assignment.
	Cost float64
	// Optimal reports whether the branch-and-bound search completed,
	// proving the assignment optimal (or, with Feasible == false,
	// proving infeasibility).
	Optimal bool
	// LowerBound is a valid global lower bound on the optimal cost
	// (Σ_j min_i Cost[i][j]); with Optimal it brackets the result, and
	// when the node budget was exhausted it quantifies the gap.
	LowerBound float64
	// Nodes counts branch-and-bound nodes explored.
	Nodes int64
	// NodeBudgetHit reports that the search was truncated.
	NodeBudgetHit bool
	// Stats instruments the solve (node counts, prune causes, wall time).
	Stats Stats
}

// Gap returns (Cost − LowerBound)/LowerBound, the relative optimality gap,
// or 0 when the solution is proven optimal or no solution exists.
func (s *Solution) Gap() float64 {
	if !s.Feasible || s.Optimal || s.LowerBound <= 0 {
		return 0
	}
	return (s.Cost - s.LowerBound) / s.LowerBound
}

// TotalCost computes the cost of an assignment under an instance.
func TotalCost(in *Instance, assign []int) float64 {
	c := 0.0
	for j, g := range assign {
		c += in.Cost[g][j]
	}
	return c
}

// Verification errors returned by Verify.
var (
	ErrWrongLength      = errors.New("assign: assignment length differs from task count")
	ErrUnassignedTask   = errors.New("assign: task assigned to out-of-range GSP")
	ErrDeadlineViolated = errors.New("assign: a GSP exceeds the deadline")
	ErrCoverageViolated = errors.New("assign: a GSP received no task")
	ErrBudgetViolated   = errors.New("assign: total cost exceeds the budget")
)

// Verify checks an assignment against all five IP constraints, returning a
// wrapped sentinel error identifying the first violation, or nil.
func Verify(in *Instance, assign []int) error {
	k := in.NumGSPs()
	return verifyBuf(in, assign, make([]float64, k), make([]int, k))
}

// verifyBuf is Verify with caller-provided load/count buffers (len k,
// fully overwritten) — the allocation-free path under the solver's
// seeding loop.
func verifyBuf(in *Instance, assign []int, load []float64, count []int) error {
	k, n := in.NumGSPs(), in.NumTasks()
	if len(assign) != n {
		return fmt.Errorf("%w: %d vs %d", ErrWrongLength, len(assign), n)
	}
	for g := 0; g < k; g++ {
		load[g] = 0
		count[g] = 0
	}
	total := 0.0
	for j, g := range assign {
		if g < 0 || g >= k {
			return fmt.Errorf("%w: task %d → %d", ErrUnassignedTask, j, g)
		}
		load[g] += in.Time[g][j]
		count[g]++
		total += in.Cost[g][j]
	}
	for i := 0; i < k; i++ {
		if load[i] > in.Deadline+Eps {
			return fmt.Errorf("%w: GSP %d load %.6f > %.6f", ErrDeadlineViolated, i, load[i], in.Deadline)
		}
		if count[i] == 0 {
			return fmt.Errorf("%w: GSP %d", ErrCoverageViolated, i)
		}
	}
	if total > in.budgetCap()+Eps {
		return fmt.Errorf("%w: %.6f > %.6f", ErrBudgetViolated, total, in.Budget)
	}
	return nil
}

// lowerBoundTotal returns Σ_j min_i Cost[i][j], the capacity-free lower
// bound on any feasible assignment's cost.
func lowerBoundTotal(in *Instance) float64 {
	k, n := in.NumGSPs(), in.NumTasks()
	if k == 0 {
		return 0
	}
	lb := 0.0
	for j := 0; j < n; j++ {
		m := in.Cost[0][j]
		for i := 1; i < k; i++ {
			if in.Cost[i][j] < m {
				m = in.Cost[i][j]
			}
		}
		lb += m
	}
	return lb
}
