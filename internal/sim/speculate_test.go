package sim

import (
	"context"
	"fmt"
	"reflect"
	"testing"
	"time"

	"gridvo/internal/adversary"
	"gridvo/internal/assign"
	"gridvo/internal/fault"
	"gridvo/internal/grid"
	"gridvo/internal/mechanism"
)

// sequentialFeasibility is the reference for buildScenario's feasibility
// search: one (deadline, payment) draw and one grand-coalition solve per
// attempt, in order, then the deadline escalations, on a copy of sc.
func sequentialFeasibility(e *Env, sc *mechanism.Scenario, size, rep int, opts assign.Options) (deadline, payment float64, meta ScenarioMeta, sol assign.Solution) {
	c := *sc
	grand := make([]int, c.M())
	for i := range grand {
		grand[i] = i
	}
	meta = ScenarioMeta{ProgramSize: size, Repetition: rep}
	dpRNG := e.rng.Split(fmt.Sprintf("scenario-%d-%d", size, rep)).Split("dp")
	for attempt := 0; attempt < maxFeasibilityRetries; attempt++ {
		c.Deadline = grid.Deadline(dpRNG, c.Program)
		c.Payment = grid.Payment(dpRNG, c.Program.N())
		if sol = assign.Solve(c.Instance(grand), opts); sol.Feasible {
			meta.FeasibilityRetries = attempt
			return c.Deadline, c.Payment, meta, sol
		}
	}
	c.Deadline = grid.MaxDeadlineFactor * c.Program.BaseRuntimeSec * float64(c.Program.N()) / 1000
	c.Payment = grid.MaxPaymentFactor * grid.MaxCost * float64(c.Program.N())
	for esc := 1; esc <= 32; esc++ {
		c.Deadline *= 1.5
		if sol = assign.Solve(c.Instance(grand), opts); sol.Feasible {
			meta.FeasibilityRetries = maxFeasibilityRetries
			meta.DeadlineEscalations = esc
			return c.Deadline, c.Payment, meta, sol
		}
	}
	panic("reference found no feasible scenario")
}

// solveView is a solution without its wall time.
func solveView(sol assign.Solution) assign.Solution {
	sol.Stats.WallTime = 0
	return sol
}

// TestBuildScenarioSpeculationMatchesSequential: solving the feasibility
// attempts two at a time yields the sequential loop's scenario, retry and
// escalation counts and grand-coalition solution, cell for cell. The grid
// must include a cell that retried and one that escalated. A fault
// injector in the solver options changes nothing: scenario generation
// never visits it, so it builds the same scenarios, speculatively.
func TestBuildScenarioSpeculationMatchesSequential(t *testing.T) {
	// Programs below the paper's 256 tasks are where the Table I band can
	// fail; on two GSPs every draw fails for some cells and the deadline
	// escalates.
	grids := []struct {
		seed uint64
		gsps int
	}{{3, 16}, {3, 2}, {11, 16}}
	if testing.Short() {
		grids = grids[:2]
	}
	var retried, escalated int
	for _, g := range grids {
		seed := g.seed
		cfg := QuickConfig(seed)
		cfg.NumGSPs = g.gsps
		cfg.ProgramSizes = []int{16, 32, 64, 128}
		cfg.Solver.NodeBudget = 20_000
		e, err := NewEnv(cfg)
		if err != nil {
			t.Fatal(err)
		}
		inj := fault.New(fault.Config{Seed: seed, Rate: 0.4, Classes: []fault.Class{fault.Cancel}, CancelNodes: 5})
		cfg.Solver.Inject = inj
		ie, err := NewEnv(cfg)
		if err != nil {
			t.Fatal(err)
		}
		for _, size := range cfg.ProgramSizes {
			for rep := 0; rep < cfg.Repetitions; rep++ {
				c, err := e.buildScenario(size, rep)
				if err != nil {
					t.Fatal(err)
				}
				sc, meta := c.sc, c.meta
				d, p, wantMeta, wantSol := sequentialFeasibility(e, sc, size, rep, e.Config.Solver)
				cell := fmt.Sprintf("seed=%d m=%d n=%d rep=%d", seed, g.gsps, size, rep)
				if sc.Deadline != d || sc.Payment != p || meta != wantMeta {
					t.Fatalf("%s: got d=%v P=%v %+v, sequential d=%v P=%v %+v",
						cell, sc.Deadline, sc.Payment, meta, d, p, wantMeta)
				}
				if !reflect.DeepEqual(solveView(c.grand.sol), solveView(wantSol)) {
					t.Fatalf("%s: grand solve differs from the sequential one", cell)
				}
				ic, err := ie.buildScenario(size, rep)
				if err != nil {
					t.Fatal(err)
				}
				isc, imeta := ic.sc, ic.meta
				if isc.Deadline != d || isc.Payment != p || imeta != wantMeta {
					t.Fatalf("%s: under a solver injector got d=%v P=%v %+v, want d=%v P=%v %+v",
						cell, isc.Deadline, isc.Payment, imeta, d, p, wantMeta)
				}
				if !reflect.DeepEqual(solveView(ic.grand.sol), solveView(wantSol)) {
					t.Fatalf("%s: under a solver injector the grand solve differs from the sequential one", cell)
				}
				if meta.FeasibilityRetries > 0 && meta.DeadlineEscalations == 0 {
					retried++
				}
				if meta.DeadlineEscalations > 0 {
					escalated++
				}
			}
		}
		if v := inj.Stats().Visits; v != 0 {
			t.Fatalf("seed=%d m=%d: scenario generation visited the injector %d times", seed, g.gsps, v)
		}
	}
	if retried == 0 || escalated == 0 {
		t.Fatalf("%d cells retried and %d escalated; the grid must have both", retried, escalated)
	}
}

// TestFirstFeasibleSpeculative: with speculation firstFeasible returns the
// same attempt as the sequential loop for every feasibility pattern, and
// cancels the speculative attempt when the one before it is feasible.
func TestFirstFeasibleSpeculative(t *testing.T) {
	const count = 6
	for pattern := 0; pattern < 1<<count; pattern++ {
		feasible := func(a int) bool { return pattern&(1<<a) != 0 }
		want, _, wantOK := firstFeasible(count, false, func(_ context.Context, a int) assign.Solution {
			return assign.Solution{Feasible: feasible(a), Nodes: int64(a)}
		})
		got, sol, ok := firstFeasible(count, true, func(ctx context.Context, a int) assign.Solution {
			if a > 0 && a%2 == 1 && feasible(a-1) {
				select {
				case <-ctx.Done():
				case <-time.After(10 * time.Second):
					t.Errorf("pattern %b: attempt %d not cancelled after attempt %d was feasible", pattern, a, a-1)
				}
				return assign.Solution{}
			}
			return assign.Solution{Feasible: feasible(a), Nodes: int64(a)}
		})
		if ok != wantOK || (ok && (got != want || sol.Nodes != int64(want))) {
			t.Fatalf("pattern %b: speculative (%d, %v), sequential (%d, %v)", pattern, got, ok, want, wantOK)
		}
	}
}

// TestRobustnessConcurrentMatchesSequential: running each cell's honest
// and adversarial worlds at once, with the honest engine adopting the
// feasibility check's grand solve, reproduces the sequential cold-engine
// sweep cell for cell. A never-firing injector in the solver options
// selects that sequential path, since a shared injector must see the
// runs' solves in order.
func TestRobustnessConcurrentMatchesSequential(t *testing.T) {
	for _, cfg := range []Config{
		attacked(5, &adversary.Spec{Class: adversary.ClassCollusion, Size: 3}, nil),
		attacked(5, &adversary.Spec{Class: adversary.ClassSybil, Size: 3}, &adversary.ChurnSpec{LeaveRate: 0.3, JoinRate: 0.15}),
	} {
		got, err := RobustnessSweep(context.Background(), cfg, nil)
		if err != nil {
			t.Fatal(err)
		}
		cfg.Solver.Inject = fault.New(fault.Config{Rate: 0})
		want, err := RobustnessSweep(context.Background(), cfg, nil)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: concurrent sweep %+v differs from sequential %+v", got.Class, got, want)
		}
	}
}
