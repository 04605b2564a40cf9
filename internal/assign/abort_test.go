package assign

import (
	"context"
	"fmt"
	"testing"

	"gridvo/internal/fault"
)

// abortGolden holds TestAbortCountersSnapshot's output.
const abortGolden = "testdata/abort.golden"

// TestAbortCountersSnapshot pins where a truncated search stops and what
// it reports: node counts, every Stats counter, the incumbent and the
// number of context polls, for searches cut by the node budget, by an
// injected CancelAfterNodes fault, and by a context that cancels after a
// fixed number of polls, under small poll intervals and with thresholds
// that coincide (budget == cancel-after, cancel-after on a poll).
func TestAbortCountersSnapshot(t *testing.T) {
	type limits struct {
		budget, checkEvery, cancelAfter int64
		polls                           int // Err() calls before the context cancels
	}
	cases := []limits{
		{checkEvery: 1, polls: 0},
		{checkEvery: 1, polls: 1},
		{checkEvery: 1, polls: 500},
		{checkEvery: 3, polls: 17},
		{checkEvery: 7, polls: 100},
		{checkEvery: 64, polls: 5},
		{budget: 1},
		{budget: 50},
		{budget: 2047},
		{budget: 2048},
		{budget: 2049},
		{cancelAfter: 1},
		{cancelAfter: 2},
		{cancelAfter: 63, checkEvery: 7, polls: 1000},
		{cancelAfter: 64, checkEvery: 64, polls: 1000},
		{cancelAfter: 64, checkEvery: 64, polls: 0},
		{cancelAfter: 700, budget: 700},
		{cancelAfter: 700, budget: 701},
		{cancelAfter: 701, budget: 700, checkEvery: 1, polls: 700},
		{cancelAfter: 4096, checkEvery: 2048, polls: 1},
	}
	var out []byte
	for _, seed := range []uint64{5, 9} {
		in := ctxInstance(seed, 4, 14)
		for _, heur := range []bool{false, true} {
			for _, c := range cases {
				opts := Options{NodeBudget: c.budget, CtxCheckEvery: c.checkEvery, DisableHeuristics: !heur}
				if c.budget == 0 {
					opts.NodeBudget = -1
				}
				if c.cancelAfter > 0 {
					opts.Inject = fault.New(fault.Config{Rate: 1, Classes: []fault.Class{fault.Cancel}, CancelNodes: c.cancelAfter})
				}
				ctx := &countingCtx{Context: context.Background(), after: 1 << 30}
				if c.checkEvery > 0 {
					ctx.after = c.polls
				}
				sol := SolveCtx(ctx, in, opts)
				st := sol.Stats
				st.WallTime = 0
				out = append(out, fmt.Sprintf("seed=%d heur=%v %+v polls=%d feas=%v opt=%v hit=%v nodes=%d cost=%b assign=%v %+v\n",
					seed, heur, c, ctx.polls, sol.Feasible, sol.Optimal, sol.NodeBudgetHit, sol.Nodes, sol.Cost, sol.Assign, st)...)
			}
		}
	}
	compareGolden(t, abortGolden, out)
}
