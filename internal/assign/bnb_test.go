package assign

import (
	"math"
	"testing"

	"gridvo/internal/xrand"
)

// randomInstance builds a random feasible-ish instance with k GSPs and n
// tasks for cross-checking solvers.
func randomInstance(rng *xrand.RNG, k, n int, deadlineSlack float64) *Instance {
	in := &Instance{
		Cost: make([][]float64, k),
		Time: make([][]float64, k),
	}
	for i := 0; i < k; i++ {
		in.Cost[i] = make([]float64, n)
		in.Time[i] = make([]float64, n)
		for j := 0; j < n; j++ {
			in.Cost[i][j] = rng.Uniform(1, 100)
			in.Time[i][j] = rng.Uniform(1, 10)
		}
	}
	// Deadline scaled so roughly n/k tasks fit per GSP with slack.
	in.Deadline = deadlineSlack * 10 * float64(n) / float64(k)
	return in
}

func TestSolveTinyOptimal(t *testing.T) {
	sol := Solve(tiny(), Options{})
	if !sol.Feasible || !sol.Optimal {
		t.Fatalf("sol = %+v", sol)
	}
	if sol.Cost != 6 {
		t.Fatalf("cost = %v, want 6", sol.Cost)
	}
	if err := Verify(tiny(), sol.Assign); err != nil {
		t.Fatal(err)
	}
}

func TestSolveMatchesBruteForce(t *testing.T) {
	rng := xrand.New(1)
	for trial := 0; trial < 60; trial++ {
		k := rng.UniformInt(1, 3)
		n := rng.UniformInt(k, 8)
		slack := rng.Uniform(0.2, 1.5)
		in := randomInstance(rng.SplitN("inst", trial), k, n, slack)
		bf := BruteForce(in)
		bb := Solve(in, Options{})
		if bf.Feasible != bb.Feasible {
			t.Fatalf("trial %d: feasibility mismatch: brute=%v bnb=%v", trial, bf.Feasible, bb.Feasible)
		}
		if !bf.Feasible {
			continue
		}
		if math.Abs(bf.Cost-bb.Cost) > 1e-6 {
			t.Fatalf("trial %d: cost mismatch: brute=%v bnb=%v", trial, bf.Cost, bb.Cost)
		}
		if bb.LowerBound > bf.Cost+Eps {
			t.Fatalf("trial %d: LowerBound %v exceeds optimum %v", trial, bb.LowerBound, bf.Cost)
		}
		if err := Verify(in, bb.Assign); err != nil {
			t.Fatalf("trial %d: B&B solution invalid: %v", trial, err)
		}
		if !bb.Optimal {
			t.Fatalf("trial %d: small instance not proven optimal", trial)
		}
	}
}

func TestSolveMatchesBruteForceWithBudget(t *testing.T) {
	rng := xrand.New(2)
	for trial := 0; trial < 40; trial++ {
		k := rng.UniformInt(1, 3)
		n := rng.UniformInt(k, 7)
		in := randomInstance(rng.SplitN("binst", trial), k, n, 1.0)
		// Budget near the unconstrained optimum: sometimes binding,
		// sometimes infeasible.
		free := Solve(in, Options{})
		if !free.Feasible {
			continue
		}
		in.Budget = free.Cost * rng.Uniform(0.8, 1.2)
		bf := BruteForce(in)
		bb := Solve(in, Options{})
		if bf.Feasible != bb.Feasible {
			t.Fatalf("trial %d: feasibility mismatch with budget", trial)
		}
		if bf.Feasible && math.Abs(bf.Cost-bb.Cost) > 1e-6 {
			t.Fatalf("trial %d: cost mismatch: brute=%v bnb=%v", trial, bf.Cost, bb.Cost)
		}
		if bf.Feasible && bb.LowerBound > bf.Cost+Eps {
			t.Fatalf("trial %d: LowerBound %v exceeds optimum %v", trial, bb.LowerBound, bf.Cost)
		}
		// A budget-cut or heuristic-free solve may claim optimality from
		// the bound alone; it must do so only at the true optimum.
		for _, opts := range []Options{{NodeBudget: 50}, {NodeBudget: -1, DisableHeuristics: true}} {
			if s := Solve(in, opts); s.Optimal && (s.Feasible != bf.Feasible || math.Abs(s.Cost-bf.Cost) > 1e-6) {
				t.Fatalf("trial %d %+v: claims optimal at %v (feasible=%v), optimum %v (feasible=%v)",
					trial, opts, s.Cost, s.Feasible, bf.Cost, bf.Feasible)
			}
		}
	}
}

func TestSolveInfeasibleByDeadline(t *testing.T) {
	in := tiny()
	in.Deadline = 0.5 // no GSP can run even one task
	sol := Solve(in, Options{})
	if sol.Feasible {
		t.Fatal("impossible deadline reported feasible")
	}
	if !sol.Optimal {
		t.Fatal("infeasibility not proven on tiny instance")
	}
}

func TestSolveInfeasibleByCoverage(t *testing.T) {
	// 3 GSPs, 2 tasks: constraint (13) unsatisfiable.
	in := &Instance{
		Cost:     [][]float64{{1, 1}, {1, 1}, {1, 1}},
		Time:     [][]float64{{1, 1}, {1, 1}, {1, 1}},
		Deadline: 10,
	}
	sol := Solve(in, Options{})
	if sol.Feasible || !sol.Optimal {
		t.Fatalf("sol = %+v, want proven infeasible", sol)
	}
}

func TestSolveInfeasibleByBudget(t *testing.T) {
	in := tiny()
	in.Budget = 1 // optimum is 6
	sol := Solve(in, Options{})
	if sol.Feasible {
		t.Fatal("budget-infeasible instance reported feasible")
	}
}

func TestSolveEmptyInstance(t *testing.T) {
	sol := Solve(&Instance{}, Options{})
	if !sol.Feasible || !sol.Optimal || len(sol.Assign) != 0 {
		t.Fatalf("empty instance: %+v", sol)
	}
}

func TestSolveSingleGSP(t *testing.T) {
	in := &Instance{
		Cost:     [][]float64{{3, 4, 5}},
		Time:     [][]float64{{1, 1, 1}},
		Deadline: 3,
	}
	sol := Solve(in, Options{})
	if !sol.Feasible || sol.Cost != 12 {
		t.Fatalf("single GSP: %+v", sol)
	}
	in.Deadline = 2.5
	sol = Solve(in, Options{})
	if sol.Feasible {
		t.Fatal("deadline-violating single-GSP instance accepted")
	}
}

func TestSolveCostAtLeastLowerBound(t *testing.T) {
	rng := xrand.New(3)
	for trial := 0; trial < 30; trial++ {
		in := randomInstance(rng.SplitN("lb", trial), 4, 20, 1.0)
		sol := Solve(in, Options{})
		if !sol.Feasible {
			continue
		}
		if sol.Cost < sol.LowerBound-1e-9 {
			t.Fatalf("trial %d: cost %v below lower bound %v", trial, sol.Cost, sol.LowerBound)
		}
		if err := Verify(in, sol.Assign); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
	}
}

func TestSolveBeatsOrMatchesHeuristics(t *testing.T) {
	rng := xrand.New(4)
	for trial := 0; trial < 20; trial++ {
		in := randomInstance(rng.SplitN("beat", trial), 3, 9, 1.0)
		sol := Solve(in, Options{})
		if !sol.Feasible {
			continue
		}
		for _, h := range []Heuristic{HeuristicGreedyCost, HeuristicMCT, HeuristicMinMin, HeuristicMaxMin, HeuristicSufferage} {
			a := RunHeuristic(in, h)
			if a == nil || Verify(in, a) != nil {
				continue
			}
			if hc := TotalCost(in, a); sol.Cost > hc+1e-9 {
				t.Fatalf("trial %d: B&B cost %v worse than %v cost %v", trial, sol.Cost, h, hc)
			}
		}
	}
}

func TestSolveNodeBudgetTruncation(t *testing.T) {
	rng := xrand.New(5)
	in := randomInstance(rng, 8, 40, 1.0)
	sol := Solve(in, Options{NodeBudget: 100})
	if !sol.NodeBudgetHit && !sol.Optimal {
		t.Fatalf("tiny node budget neither hit nor optimal: %+v", sol)
	}
	if sol.Feasible {
		// Heuristic incumbent must still verify.
		if err := Verify(in, sol.Assign); err != nil {
			t.Fatal(err)
		}
	}
}

func TestSolveWithoutHeuristics(t *testing.T) {
	in := tiny()
	sol := Solve(in, Options{DisableHeuristics: true})
	if !sol.Feasible || sol.Cost != 6 {
		t.Fatalf("raw search failed: %+v", sol)
	}
}

func TestSolveDeterministic(t *testing.T) {
	rng := xrand.New(6)
	in := randomInstance(rng, 4, 16, 1.0)
	a := Solve(in, Options{})
	b := Solve(in, Options{})
	if a.Cost != b.Cost || a.Nodes != b.Nodes {
		t.Fatalf("Solve not deterministic: %v/%v vs %v/%v", a.Cost, a.Nodes, b.Cost, b.Nodes)
	}
}

func TestSolveMediumInstanceVerifies(t *testing.T) {
	rng := xrand.New(7)
	in := randomInstance(rng, 8, 200, 1.2)
	sol := Solve(in, Options{})
	if !sol.Feasible {
		t.Fatal("medium instance infeasible")
	}
	if err := Verify(in, sol.Assign); err != nil {
		t.Fatal(err)
	}
}

func TestBruteForceTooLargePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("oversized brute force did not panic")
		}
	}()
	rng := xrand.New(8)
	BruteForce(randomInstance(rng, 10, 20, 1))
}

func TestSolveValidatePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("invalid instance did not panic")
		}
	}()
	Solve(&Instance{Cost: [][]float64{{1}}, Time: [][]float64{}}, Options{})
}

// BruteForce enumerates every assignment (k^n) and returns the optimal
// solution, for cross-checking the branch-and-bound on small instances.
// It panics if k^n exceeds 50 million states.
func BruteForce(in *Instance) Solution {
	if err := in.Validate(); err != nil {
		panic(err)
	}
	k, n := in.NumGSPs(), in.NumTasks()
	sol := Solution{LowerBound: lowerBoundTotal(in), Optimal: true}
	if k == 0 {
		sol.Feasible = n == 0
		sol.Assign = []int{}
		return sol
	}
	states := math.Pow(float64(k), float64(n))
	if states > 50e6 {
		panic("assign: BruteForce instance too large")
	}
	assign := make([]int, n)
	best := math.Inf(1)
	var bestAssign []int
	capB := in.budgetCap()
	var rec func(j int)
	rec = func(j int) {
		if j == n {
			if err := Verify(in, assign); err != nil {
				return
			}
			if c := TotalCost(in, assign); c < best && c <= capB+Eps {
				best = c
				bestAssign = append(bestAssign[:0:0], assign...)
			}
			return
		}
		for g := 0; g < k; g++ {
			assign[j] = g
			rec(j + 1)
		}
	}
	rec(0)
	if bestAssign != nil {
		sol.Feasible = true
		sol.Cost = best
		sol.Assign = bestAssign
	}
	return sol
}
