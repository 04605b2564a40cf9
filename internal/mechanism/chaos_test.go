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
				Latency:     1, // 1ns: fire the sleep path without slowing the suite
			})
			res, err := RunContext(context.Background(), sc, Options{
				Solver: assign.Options{NodeBudget: 100_000},
				Inject: inj,
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

// TestChaosMixedDeterminism: the full class mix at a moderate rate, run
// twice with identical seeds, must produce identical fault schedules,
// selections, and payoffs — the reproducibility contract of the injector.
func TestChaosMixedDeterminism(t *testing.T) {
	run := func() (*Result, fault.Stats) {
		sc := testScenario(11, 6, 18)
		inj := fault.New(fault.Config{Seed: 99, Rate: 0.5, CancelNodes: 4})
		res, err := RunContext(context.Background(), sc, Options{
			Solver: assign.Options{NodeBudget: 100_000},
			Inject: inj,
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

// TestChaosFaultedSolvesNotCached: a fresh engine run with rate-1 cancel
// must not poison the coalition cache — re-solving the same coalitions
// with injection disabled returns the exact results.
func TestChaosFaultedSolvesNotCached(t *testing.T) {
	sc := testScenario(13, 5, 15)
	eng := NewEngine(sc, assign.Options{NodeBudget: 100_000})
	inj := fault.New(fault.Config{Seed: 5, Rate: 1, Classes: []fault.Class{fault.Cancel}, CancelNodes: 1})
	eng.SetInjector(inj)
	if _, err := RunContext(context.Background(), sc, Options{Engine: eng}, xrand.New(1)); err != nil {
		t.Fatal(err)
	}
	if inj.Stats().Fired == 0 {
		t.Fatal("injector never fired")
	}
	// Disable injection and re-run: everything must be solved fresh (no
	// fault-touched entries were cached) and to proven optimality.
	eng.SetInjector(nil)
	res, err := RunContext(context.Background(), sc, Options{Engine: eng}, xrand.New(1))
	if err != nil {
		t.Fatal(err)
	}
	if res.Degraded {
		t.Fatalf("clean re-run degraded — poisoned cache entry: %+v", res.Stats)
	}
	clean, err := RunContext(context.Background(), sc, Options{Solver: assign.Options{NodeBudget: 100_000}}, xrand.New(1))
	if err != nil {
		t.Fatal(err)
	}
	if res.Selected != clean.Selected || res.Final().Payoff != clean.Final().Payoff {
		t.Fatalf("faulted-then-clean run differs from always-clean run: %v vs %v",
			res.Final().Payoff, clean.Final().Payoff)
	}
}
