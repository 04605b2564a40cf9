package assign

import (
	"testing"

	"gridvo/internal/xrand"
)

func TestHeuristicStrings(t *testing.T) {
	names := map[Heuristic]string{
		HeuristicGreedyCost: "greedy-cost",
		HeuristicMCT:        "mct",
		HeuristicMinMin:     "min-min",
		HeuristicMaxMin:     "max-min",
		HeuristicSufferage:  "sufferage",
		Heuristic(99):       "unknown",
	}
	for h, want := range names {
		if h.String() != want {
			t.Fatalf("%d.String() = %q, want %q", int(h), h.String(), want)
		}
	}
}

func TestAllHeuristicsProduceValidAssignments(t *testing.T) {
	rng := xrand.New(1)
	heuristics := []Heuristic{HeuristicGreedyCost, HeuristicMCT, HeuristicMinMin, HeuristicMaxMin, HeuristicSufferage}
	for trial := 0; trial < 30; trial++ {
		in := randomInstance(rng.SplitN("h", trial), rng.UniformInt(1, 5), rng.UniformInt(5, 30), rng.Uniform(0.8, 2.0))
		for _, h := range heuristics {
			a := RunHeuristic(in, h)
			if a == nil {
				continue // heuristic failure is allowed; solver falls back
			}
			if err := Verify(in, a); err != nil {
				t.Fatalf("trial %d: %v produced invalid assignment: %v", trial, h, err)
			}
		}
	}
}

func TestHeuristicsNilWhenTooFewTasks(t *testing.T) {
	in := &Instance{
		Cost:     [][]float64{{1}, {1}},
		Time:     [][]float64{{1}, {1}},
		Deadline: 10,
	}
	for _, h := range []Heuristic{HeuristicGreedyCost, HeuristicMCT, HeuristicMinMin} {
		if RunHeuristic(in, h) != nil {
			t.Fatalf("%v produced assignment with n < k", h)
		}
	}
	if RunHeuristic(&Instance{}, HeuristicGreedyCost) != nil {
		t.Fatal("empty instance produced assignment")
	}
	if RunHeuristic(tiny(), Heuristic(99)) != nil {
		t.Fatal("unknown heuristic produced assignment")
	}
}

func TestGreedyCostPicksCheap(t *testing.T) {
	a := RunHeuristic(tiny(), HeuristicGreedyCost)
	if a == nil {
		t.Fatal("greedy failed on tiny")
	}
	if err := Verify(tiny(), a); err != nil {
		t.Fatal(err)
	}
	// Greedy should find the optimum on this trivially separable case.
	if c := TotalCost(tiny(), a); c != 6 {
		t.Fatalf("greedy cost = %v, want 6", c)
	}
}

func TestHeuristicsRespectImpossibleDeadline(t *testing.T) {
	in := tiny()
	in.Deadline = 0.5
	for _, h := range []Heuristic{HeuristicGreedyCost, HeuristicMCT, HeuristicMinMin, HeuristicMaxMin, HeuristicSufferage} {
		if RunHeuristic(in, h) != nil {
			t.Fatalf("%v produced assignment under impossible deadline", h)
		}
	}
}

func TestCoverageRepairWorks(t *testing.T) {
	// MCT naturally piles everything on the fast cheap GSP; repair must
	// then move one task to GSP 1.
	in := &Instance{
		Cost:     [][]float64{{1, 1, 1}, {50, 50, 50}},
		Time:     [][]float64{{1, 1, 1}, {1, 1, 1}},
		Deadline: 100,
	}
	a := RunHeuristic(in, HeuristicMCT)
	if a == nil {
		t.Fatal("mct failed")
	}
	if err := Verify(in, a); err != nil {
		t.Fatal(err)
	}
}

func TestLocalSearchImproves(t *testing.T) {
	in := tiny()
	// Deliberately bad but feasible assignment: 9 + 7 + 1... task0→1 (8),
	// task1→1 (7), task2→0 (9) = 24.
	a := []int{1, 1, 0}
	before := TotalCost(in, a)
	after := localSearchBuf(in, a, make([]float64, in.NumGSPs()), make([]int, in.NumGSPs()))
	if after > before {
		t.Fatalf("localSearchBuf made it worse: %v → %v", before, after)
	}
	if err := Verify(in, a); err != nil {
		t.Fatalf("localSearchBuf broke feasibility: %v", err)
	}
	if after != 6 {
		t.Fatalf("localSearchBuf cost = %v, want optimal 6 on separable instance", after)
	}
}

func TestLocalSearchKeepsCoverage(t *testing.T) {
	// Moving the only task of GSP 1 to GSP 0 would be cheaper but must
	// be refused to preserve constraint (13).
	in := &Instance{
		Cost:     [][]float64{{1, 1}, {10, 10}},
		Time:     [][]float64{{1, 1}, {1, 1}},
		Deadline: 10,
	}
	a := []int{0, 1}
	localSearchBuf(in, a, make([]float64, in.NumGSPs()), make([]int, in.NumGSPs()))
	if err := Verify(in, a); err != nil {
		t.Fatal(err)
	}
}

func TestLocalSearchRespectsDeadline(t *testing.T) {
	// GSP 0 is cheap but its capacity fits only one task.
	in := &Instance{
		Cost:     [][]float64{{1, 1, 1}, {5, 5, 5}},
		Time:     [][]float64{{6, 6, 6}, {1, 1, 1}},
		Deadline: 10,
	}
	a := []int{0, 1, 1}
	localSearchBuf(in, a, make([]float64, in.NumGSPs()), make([]int, in.NumGSPs()))
	if err := Verify(in, a); err != nil {
		t.Fatal(err)
	}
}

func TestHeuristicComparisonOnStructuredInstance(t *testing.T) {
	// Sanity: on a moderately sized instance all heuristics complete and
	// the solver is at least as good as each.
	rng := xrand.New(9)
	in := randomInstance(rng, 6, 60, 1.0)
	sol := Solve(in, Options{})
	if !sol.Feasible {
		t.Skip("instance infeasible")
	}
	for _, h := range []Heuristic{HeuristicGreedyCost, HeuristicMCT, HeuristicMinMin, HeuristicMaxMin, HeuristicSufferage} {
		a := RunHeuristic(in, h)
		if a == nil || Verify(in, a) != nil {
			continue
		}
		if TotalCost(in, a) < sol.Cost-1e-9 {
			t.Fatalf("%v beat the solver", h)
		}
	}
}
