package mechanism

import (
	"context"
	"testing"

	"gridvo/internal/assign"
	"gridvo/internal/xrand"
)

// sameTrace compares two runs' eviction traces bitwise: warm starts only
// tighten solver incumbents (never bounds), and costs are reported in
// canonical task-index order, so warm and cold runs must select the exact
// same VOs with the exact same figures.
func sameTrace(t *testing.T, warm, cold *Result) {
	t.Helper()
	if len(warm.Iterations) != len(cold.Iterations) {
		t.Fatalf("iteration counts differ: warm %d vs cold %d", len(warm.Iterations), len(cold.Iterations))
	}
	for i := range warm.Iterations {
		w, c := warm.Iterations[i], cold.Iterations[i]
		if w.Feasible != c.Feasible || w.Cost != c.Cost || w.Payoff != c.Payoff ||
			w.AvgReputation != c.AvgReputation || w.Evicted != c.Evicted {
			t.Fatalf("iteration %d differs:\nwarm %+v\ncold %+v", i, w, c)
		}
		if len(w.Members) != len(c.Members) {
			t.Fatalf("iteration %d member counts differ", i)
		}
		for j := range w.Members {
			if w.Members[j] != c.Members[j] {
				t.Fatalf("iteration %d members differ: %v vs %v", i, w.Members, c.Members)
			}
		}
	}
	if warm.Selected != cold.Selected || warm.SelectedByProduct != cold.SelectedByProduct {
		t.Fatalf("selection differs: warm (%d,%d) vs cold (%d,%d)",
			warm.Selected, warm.SelectedByProduct, cold.Selected, cold.SelectedByProduct)
	}
}

// TestWarmStartSelectsIdenticalVOs is the headline warm-start guarantee
// for completed searches: when every solve proves optimality, NoWarmStart
// on/off must be observationally equivalent — same eviction sequence, same
// costs, same selected VO — differing only in solver effort.
func TestWarmStartSelectsIdenticalVOs(t *testing.T) {
	solver := assign.Options{NodeBudget: -1} // complete every search
	for _, rule := range []EvictionRule{EvictLowestReputation, EvictRandom} {
		for seed := uint64(1); seed <= 3; seed++ {
			sc := testScenario(seed, 5, 16)
			warm, err := RunContext(context.Background(), sc, Options{Eviction: rule, Solver: solver}, xrand.New(seed))
			if err != nil {
				t.Fatal(err)
			}
			cold, err := RunContext(context.Background(), sc, Options{Eviction: rule, Solver: solver, NoWarmStart: true}, xrand.New(seed))
			if err != nil {
				t.Fatal(err)
			}
			sameTrace(t, warm, cold)

			if cold.Stats.WarmStarts != 0 || cold.Stats.SeedAccepted != 0 {
				t.Fatalf("rule %v seed %d: NoWarmStart run reports warm starts: %+v", rule, seed, cold.Stats)
			}
			if len(warm.Iterations) > 1 && warm.Stats.WarmStarts == 0 {
				t.Fatalf("rule %v seed %d: multi-iteration warm run never warm-started: %+v", rule, seed, warm.Stats)
			}
			if warm.Stats.SeedAccepted > warm.Stats.WarmStarts || warm.Stats.SeedWins > warm.Stats.SeedAccepted {
				t.Fatalf("rule %v seed %d: seed counters inconsistent: %+v", rule, seed, warm.Stats)
			}
			if warm.Stats.PowerIterations == 0 && rule == EvictLowestReputation {
				t.Fatalf("rule %v seed %d: no power iterations recorded: %+v", rule, seed, warm.Stats)
			}
			if warm.Stats.PowerIterationsSaved < 0 || warm.Stats.Nodes > cold.Stats.Nodes {
				t.Fatalf("rule %v seed %d: warm run explored more nodes (%d) than cold (%d)",
					rule, seed, warm.Stats.Nodes, cold.Stats.Nodes)
			}
		}
	}
}

// TestWarmStartNeverWorseWhenTruncated covers the node-budget-hit regime,
// where bit-identity is not guaranteed: a seeded incumbent can genuinely
// improve a truncated search. The warm run must then be at least as good —
// per-iteration costs never higher than the cold run's on the same
// coalition, never worse a selected payoff.
func TestWarmStartNeverWorseWhenTruncated(t *testing.T) {
	for seed := uint64(1); seed <= 3; seed++ {
		sc := testScenario(seed, 6, 24)
		solver := assign.Options{NodeBudget: 50_000} // force truncation
		warm, err := RunContext(context.Background(), sc, Options{Solver: solver}, xrand.New(seed))
		if err != nil {
			t.Fatal(err)
		}
		cold, err := RunContext(context.Background(), sc, Options{Solver: solver, NoWarmStart: true}, xrand.New(seed))
		if err != nil {
			t.Fatal(err)
		}
		// Compare iteration-by-iteration while the eviction sequences agree
		// (reputation-driven evictions are independent of solver costs, but
		// feasibility flips can end the runs at different points).
		for i := 0; i < len(warm.Iterations) && i < len(cold.Iterations); i++ {
			w, c := warm.Iterations[i], cold.Iterations[i]
			if len(w.Members) != len(c.Members) {
				break
			}
			same := true
			for j := range w.Members {
				if w.Members[j] != c.Members[j] {
					same = false
					break
				}
			}
			if !same {
				break
			}
			if w.Feasible && c.Feasible && w.Cost > c.Cost+assign.Eps {
				t.Fatalf("seed %d iteration %d: warm cost %v worse than cold %v", seed, i, w.Cost, c.Cost)
			}
			if c.Feasible && !w.Feasible {
				t.Fatalf("seed %d iteration %d: cold feasible but warm infeasible", seed, i)
			}
		}
		wf, cf := warm.Final(), cold.Final()
		if cf != nil && wf == nil {
			t.Fatalf("seed %d: cold selected a VO but warm did not", seed)
		}
	}
}

// TestWarmStartRateAndString exercises the derived-rate helper and the
// String rendering of the new counters.
func TestWarmStartRateAndString(t *testing.T) {
	var s EngineStats
	if s.WarmStartRate() != 0 {
		t.Fatalf("zero-stats rate = %v", s.WarmStartRate())
	}
	s = EngineStats{Solves: 10, WarmStarts: 4, SeedAccepted: 3, SeedWins: 2, CacheHits: 5, PowerIterations: 20, PowerIterationsSaved: 7}
	if r := s.WarmStartRate(); r != 0.75 {
		t.Fatalf("rate = %v, want 0.75", r)
	}
	str := s.String()
	for _, want := range []string{"4 warm-started", "20 power iterations", "7 saved", "5 cache hits"} {
		if !containsStr(str, want) {
			t.Fatalf("String() = %q missing %q", str, want)
		}
	}
}

func containsStr(s, sub string) bool {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return true
		}
	}
	return false
}

// TestStabilityCheckWarmVsCold confirms the stability verdict is identical
// with warm starts disabled.
func TestStabilityCheckWarmVsCold(t *testing.T) {
	sc := testScenario(5, 5, 16)
	solver := assign.Options{NodeBudget: -1}
	res, err := RunContext(context.Background(), sc, Options{Eviction: EvictLowestReputation, Solver: solver}, xrand.New(5))
	if err != nil {
		t.Fatal(err)
	}
	// CriterionAverage forces the exhaustive evaluation (warm-started
	// solves of the final VO minus one member each).
	warmStable, warmDest, err := StabilityCheckContext(context.Background(), sc, res, Options{Solver: solver}, CriterionAverage)
	if err != nil {
		t.Fatal(err)
	}
	coldStable, coldDest, err := StabilityCheckContext(context.Background(), sc, res, Options{Solver: solver, NoWarmStart: true}, CriterionAverage)
	if err != nil {
		t.Fatal(err)
	}
	if warmStable != coldStable || warmDest != coldDest {
		t.Fatalf("stability verdict differs: warm (%v,%d) vs cold (%v,%d)", warmStable, warmDest, coldStable, coldDest)
	}
}

// TestMergeSplitWarmVsCold confirms the merge-split baseline reaches the
// same structure and selection with warm starts disabled.
func TestMergeSplitWarmVsCold(t *testing.T) {
	sc := testScenario(6, 4, 14)
	solver := assign.Options{NodeBudget: -1}
	warm, err := MergeSplitContext(context.Background(), sc, MergeSplitOptions{Solver: solver})
	if err != nil {
		t.Fatal(err)
	}
	cold, err := MergeSplitContext(context.Background(), sc, MergeSplitOptions{Solver: solver, NoWarmStart: true})
	if err != nil {
		t.Fatal(err)
	}
	if warm.Payoff != cold.Payoff || warm.Rounds != cold.Rounds || warm.Evaluations != cold.Evaluations {
		t.Fatalf("merge-split outcomes differ:\nwarm %+v\ncold %+v", warm, cold)
	}
	if len(warm.Selected) != len(cold.Selected) {
		t.Fatalf("selected coalitions differ: %v vs %v", warm.Selected, cold.Selected)
	}
	for i := range warm.Selected {
		if warm.Selected[i] != cold.Selected[i] {
			t.Fatalf("selected coalitions differ: %v vs %v", warm.Selected, cold.Selected)
		}
	}
}
