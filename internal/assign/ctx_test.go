package assign

import (
	"context"
	"testing"

	"gridvo/internal/xrand"
)

// countingCtx is a context whose Err() starts returning Canceled after a
// fixed number of polls — a deterministic way to cancel mid-search.
type countingCtx struct {
	context.Context
	polls, after int
}

func (c *countingCtx) Err() error {
	c.polls++
	if c.polls > c.after {
		return context.Canceled
	}
	return nil
}

// ctxInstance builds a feasible instance whose unconstrained search
// explores thousands of nodes: near-uniform costs keep the lower bound
// weak, and a deadline of ~1.2× the balanced per-GSP load makes the
// min-cost greedy descent infeasible, forcing real backtracking.
func ctxInstance(seed uint64, k, n int) *Instance {
	rng := xrand.New(seed)
	in := &Instance{
		Cost:     make([][]float64, k),
		Time:     make([][]float64, k),
		Deadline: 60 * float64(n) / float64(k),
	}
	for i := 0; i < k; i++ {
		in.Cost[i] = make([]float64, n)
		in.Time[i] = make([]float64, n)
		for j := 0; j < n; j++ {
			in.Cost[i][j] = rng.Uniform(10, 12)
			in.Time[i][j] = rng.Uniform(20, 80)
		}
	}
	return in
}

func TestSolveCtxBackgroundMatchesSolve(t *testing.T) {
	in := ctxInstance(1, 4, 9)
	a := Solve(in, Options{})
	b := SolveCtx(context.Background(), in, Options{})
	if a.Feasible != b.Feasible || a.Cost != b.Cost || a.Optimal != b.Optimal || a.Nodes != b.Nodes {
		t.Fatalf("SolveCtx(background) differs from Solve: %+v vs %+v", a, b)
	}
	if b.Stats.Nodes != b.Nodes {
		t.Fatalf("Stats.Nodes = %d, Nodes = %d", b.Stats.Nodes, b.Nodes)
	}
	if b.Stats.WallTime <= 0 {
		t.Fatal("wall time not recorded")
	}
	if b.Optimal && b.Stats.Interrupted() {
		t.Fatal("uninterrupted solve reports Interrupted")
	}
}

func TestSolveCtxCancelledMidSearch(t *testing.T) {
	in := ctxInstance(5, 4, 14)
	// Sanity: the full search is large enough to interrupt.
	full := Solve(in, Options{DisableHeuristics: true})
	if !full.Feasible || full.Nodes < 2000 {
		t.Fatalf("instance too easy for the test: %d nodes", full.Nodes)
	}
	// Poll every node; cancel after 500 polls — past the first feasible
	// leaf, well before exhaustion.
	ctx := &countingCtx{Context: context.Background(), after: 500}
	sol := SolveCtx(ctx, in, Options{DisableHeuristics: true, CtxCheckEvery: 1})
	if !sol.Feasible {
		t.Fatal("mid-search cancellation lost the incumbent")
	}
	if sol.Optimal {
		t.Fatal("interrupted solve claims optimality")
	}
	if sol.Stats.PrunedByDeadline == 0 {
		t.Fatal("Stats.PrunedByDeadline not recorded")
	}
	if !sol.Stats.Interrupted() {
		t.Fatal("Interrupted() false after cancellation")
	}
	if sol.NodeBudgetHit {
		t.Fatal("context interruption misreported as node-budget truncation")
	}
	if sol.Cost < full.Cost-Eps {
		t.Fatal("truncated search beat the proven optimum")
	}
}

func TestSolveCtxAlreadyCancelled(t *testing.T) {
	in := ctxInstance(3, 4, 10)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	sol := SolveCtx(ctx, in, Options{})
	if sol.Stats.Nodes != 0 {
		t.Fatalf("already-cancelled context explored %d nodes", sol.Stats.Nodes)
	}
	if sol.Stats.PrunedByDeadline == 0 {
		t.Fatal("cancellation not recorded in stats")
	}
	// Heuristics still seed an incumbent on this generously feasible
	// instance, so the caller gets a usable assignment.
	if !sol.Feasible {
		t.Fatal("no heuristic incumbent returned under a dead context")
	}
	if sol.Optimal && sol.Cost > sol.LowerBound+Eps {
		t.Fatal("skipped search claims optimality")
	}
	if err := Verify(in, sol.Assign); err != nil {
		t.Fatalf("heuristic incumbent invalid: %v", err)
	}
}

func TestSolveCtxNodeBudgetStats(t *testing.T) {
	in := ctxInstance(5, 4, 14)
	sol := SolveCtx(context.Background(), in, Options{NodeBudget: 50, DisableHeuristics: true})
	if !sol.NodeBudgetHit {
		t.Skip("instance solved within 50 nodes")
	}
	if sol.Stats.PrunedByBudget == 0 {
		t.Fatal("budget truncation not recorded in stats")
	}
	if sol.Stats.Interrupted() {
		t.Fatal("budget truncation misreported as context interruption")
	}
}

func TestSolverInterface(t *testing.T) {
	in := ctxInstance(6, 3, 7)
	var s Solver = DefaultSolver()
	sol := s.SolveCtx(context.Background(), in, Options{})
	ref := Solve(in, Options{})
	if sol.Cost != ref.Cost || sol.Feasible != ref.Feasible {
		t.Fatal("DefaultSolver disagrees with Solve")
	}
	calls := 0
	var counting Solver = SolverFunc(func(ctx context.Context, in *Instance, opts Options) Solution {
		calls++
		return SolveCtx(ctx, in, opts)
	})
	counting.SolveCtx(context.Background(), in, Options{})
	if calls != 1 {
		t.Fatal("SolverFunc adapter did not forward")
	}
}
