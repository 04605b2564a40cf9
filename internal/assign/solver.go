package assign

import "context"

// Solver abstracts the assignment-IP solve so the layers above (the
// mechanism engine, the coalition game, the experiment harness) stay
// pluggable: the exact branch-and-bound is the default, and tests inject
// counting or stub solvers without touching the callers.
type Solver interface {
	// SolveCtx solves the instance under the options, honoring ctx:
	// cancellation or deadline expiry interrupts the search and returns
	// the best incumbent found so far with Optimal == false — never an
	// error-and-nothing. Implementations must be deterministic for a
	// non-interrupted context.
	SolveCtx(ctx context.Context, in *Instance, opts Options) Solution
}

// SolverFunc adapts a plain function to the Solver interface.
type SolverFunc func(ctx context.Context, in *Instance, opts Options) Solution

// SolveCtx implements Solver.
func (f SolverFunc) SolveCtx(ctx context.Context, in *Instance, opts Options) Solution {
	return f(ctx, in, opts)
}

// DefaultSolver is the package's exact branch-and-bound as a Solver.
func DefaultSolver() Solver { return SolverFunc(SolveCtx) }
