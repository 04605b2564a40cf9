package mechanism

import (
	"context"
	"math"
	"testing"

	"gridvo/internal/assign"
	"gridvo/internal/fault"
	"gridvo/internal/xrand"
)

// This file is the chaos property suite: one table-driven case per fault
// class, each asserting the degradation invariants at its hook point —
// the run completes without panic or error, every feasible iteration
// still satisfies the IP constraints and payoff identities, and the
// Degraded/Faults reporting is truthful.

// chaosInvariants asserts what must survive any fault schedule.
func chaosInvariants(t *testing.T, sc *Scenario, res *Result) {
	t.Helper()
	for i := range res.Iterations {
		rec := &res.Iterations[i]
		if !rec.Feasible {
			continue
		}
		if rec.Value < -1e-9 {
			t.Errorf("iteration %d: negative value %v", i, rec.Value)
		}
		if sum := rec.Payoff * float64(len(rec.Members)); math.Abs(sum-rec.Value) > 1e-6*(1+math.Abs(rec.Value)) {
			t.Errorf("iteration %d: shares sum %v != value %v", i, sum, rec.Value)
		}
		if math.IsNaN(rec.Payoff) || math.IsInf(rec.Payoff, 0) {
			t.Errorf("iteration %d: non-finite payoff %v", i, rec.Payoff)
		}
	}
	if f := res.Final(); f != nil {
		if f.Assignment == nil {
			t.Error("selected VO has no assignment")
		} else if err := assign.Verify(sc.Instance(f.Members), f.Assignment); err != nil {
			t.Errorf("selected VO violates IP constraints: %v", err)
		}
	}
	for _, x := range res.GlobalReputation {
		if math.IsNaN(x) || math.IsInf(x, 0) {
			t.Errorf("non-finite global reputation %v", x)
		}
	}
}

// TestChaosPerFaultClass runs the mechanism once per fault class at rate 1,
// so the class under test fires at every visit of its hook point.
func TestChaosPerFaultClass(t *testing.T) {
	cases := []struct {
		name  string
		class fault.Class
		point fault.Point
		// degrades reports whether the class must mark the run Degraded
		// (latency, for one, must not).
		degrades bool
	}{
		{"cancel-mid-search", fault.Cancel, fault.PointSolve, true},
		{"artificial-latency", fault.Latency, fault.PointSolve, false},
		{"eigenvector-non-convergence", fault.NonConverge, fault.PointReputation, true},
		{"zero-trust-row", fault.ZeroTrustRow, fault.PointTrust, false},
		{"poisoned-cost", fault.PoisonCost, fault.PointEngine, true},
		{"empty-coalition", fault.EmptyCoalition, fault.PointEngine, true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			sc := testScenario(9, 5, 15)
			inj := fault.New(fault.Config{
				Seed: 42, Rate: 1,
				Classes:     []fault.Class{tc.class},
				CancelNodes: 1,
			})
			res, err := RunContext(context.Background(), sc, Options{
				Solver: assign.Options{NodeBudget: 100_000, Inject: inj},
			}, xrand.New(7))
			if err != nil {
				t.Fatalf("run under %s failed hard: %v", tc.name, err)
			}
			chaosInvariants(t, sc, res)
			st := inj.Stats()
			if st.Fired == 0 {
				t.Fatalf("rate-1 injector never fired: %v", st)
			}
			if st.PerClass[tc.class] != st.Fired {
				t.Fatalf("class filter leaked: %v", st)
			}
			if res.Faults == 0 {
				t.Fatal("result did not report fired faults")
			}
			if tc.degrades && !res.Degraded {
				t.Fatalf("%s fired %d times but run not marked degraded", tc.name, st.Fired)
			}
			if !tc.degrades && tc.class == fault.Latency && res.Degraded {
				t.Fatal("latency alone must not mark the run degraded")
			}
		})
	}
}

// TestSolverOptionsInjectorReachesEveryHook: an injector given only in the
// solver options is the run's injector at all four hook points, not just
// the IP solve's, and Result.Faults counts what fired. One class per hook:
// an engine fault at rate 1 keeps every coalition from reaching the solver.
func TestSolverOptionsInjectorReachesEveryHook(t *testing.T) {
	for _, tc := range []struct {
		point fault.Point
		class fault.Class
	}{
		{fault.PointEngine, fault.PoisonCost},
		{fault.PointSolve, fault.Latency},
		{fault.PointReputation, fault.NonConverge},
		{fault.PointTrust, fault.ZeroTrustRow},
	} {
		t.Run(tc.point.String(), func(t *testing.T) {
			sc := testScenario(17, 5, 15)
			inj := fault.New(fault.Config{Seed: 8, Rate: 1, Classes: []fault.Class{tc.class}})
			res, err := RunContext(context.Background(), sc, Options{
				Solver: assign.Options{NodeBudget: 100_000, Inject: inj},
			}, xrand.New(2))
			if err != nil {
				t.Fatal(err)
			}
			st := inj.Stats()
			if st.PerClass[tc.class] == 0 {
				t.Fatalf("%s never fired at %s: %v", tc.class, tc.point, st)
			}
			if res.Faults != st.Fired {
				t.Fatalf("result counts %d faults, the injector fired %d", res.Faults, st.Fired)
			}
		})
	}
}

// TestChaosMixedDeterminism: the full class mix at a moderate rate, run
// twice with identical seeds, must produce identical fault schedules,
// selections, and payoffs — the reproducibility contract of the injector.
func TestChaosMixedDeterminism(t *testing.T) {
	run := func() (*Result, fault.Stats) {
		sc := testScenario(11, 6, 18)
		inj := fault.New(fault.Config{Seed: 99, Rate: 0.5, CancelNodes: 4})
		res, err := RunContext(context.Background(), sc, Options{
			Solver: assign.Options{NodeBudget: 100_000, Inject: inj},
		}, xrand.New(3))
		if err != nil {
			t.Fatal(err)
		}
		return res, inj.Stats()
	}
	a, sa := run()
	b, sb := run()
	if sa != sb {
		t.Fatalf("fault schedules diverge: %v vs %v", sa, sb)
	}
	if a.Selected != b.Selected || len(a.Iterations) != len(b.Iterations) {
		t.Fatalf("selections diverge: %d/%d vs %d/%d",
			a.Selected, len(a.Iterations), b.Selected, len(b.Iterations))
	}
	for i := range a.Iterations {
		if a.Iterations[i].Payoff != b.Iterations[i].Payoff {
			t.Fatalf("iteration %d payoff %v vs %v",
				i, a.Iterations[i].Payoff, b.Iterations[i].Payoff)
		}
	}
	chaosInvariants(t, testScenario(11, 6, 18), a)
}

// TestChaosFaultedSolvesNotCached: a run whose every solve a rate-1 cancel
// cut short must not poison the coalition cache — the engine holds none of
// the coalitions the run evaluated, so Adopt accepts each of them.
func TestChaosFaultedSolvesNotCached(t *testing.T) {
	sc := testScenario(13, 5, 15)
	inj := fault.New(fault.Config{Seed: 5, Rate: 1, Classes: []fault.Class{fault.Cancel}, CancelNodes: 1})
	eng := NewEngine(sc, assign.Options{NodeBudget: 100_000, Inject: inj})
	res, err := RunContext(context.Background(), sc, Options{Engine: eng}, xrand.New(1))
	if err != nil {
		t.Fatal(err)
	}
	if inj.Stats().Fired == 0 || res.Stats.Solves == 0 {
		t.Fatalf("injector fired %d times over %d solves", inj.Stats().Fired, res.Stats.Solves)
	}
	for i := range res.Iterations {
		members := res.Iterations[i].Members
		if !eng.Adopt(members, assign.Solve(sc.Instance(members), assign.Options{NodeBudget: 100_000})) {
			t.Fatalf("iteration %d: coalition %v was cached from a faulted solve", i, members)
		}
	}
}
