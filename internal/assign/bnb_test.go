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
		if err := Verify(in, bb.Assign); err != nil {
			t.Fatalf("trial %d: B&B solution invalid: %v", trial, err)
		}
		if !bb.Optimal {
			t.Fatalf("trial %d: small instance not proven optimal", trial)
		}
	}
}

// TestLowerBoundNeverExceedsOptimum checks the soundness of the reported
// Σ-min bound: on every feasible random instance, Solution.LowerBound is
// at most the brute-force optimum. SolveCtx fixes the bound before any
// search, so the three kinds of solve report the same bound today; what
// differs between them is the Optimal claim, which a budget-cut or
// heuristic-free solve may make from the bound alone, so each must claim
// optimality only at the true optimum. Half the instances carry a budget
// row between Σ-min and 1.3× Σ-min, and the deadline slack reaches low
// enough to bind.
func TestLowerBoundNeverExceedsOptimum(t *testing.T) {
	rng := xrand.New(24)
	solves := []struct {
		name string
		opts Options
	}{
		{"full", Options{NodeBudget: -1}},
		{"budget50", Options{NodeBudget: 50}},
		{"noheuristics", Options{NodeBudget: -1, DisableHeuristics: true}},
	}
	feasible := 0
	for trial := 0; trial < 150; trial++ {
		k := rng.UniformInt(2, 4)
		n := rng.UniformInt(k, k+4)
		in := randomInstance(rng.SplitN("lb", trial), k, n, rng.Uniform(0.3, 1.2))
		if rng.Float64() < 0.5 {
			in.Budget = lowerBoundTotal(in) * rng.Uniform(1, 1.3)
		}
		opt := BruteForce(in)
		if !opt.Feasible {
			continue
		}
		feasible++
		for _, sv := range solves {
			sol := Solve(in, sv.opts)
			if sol.LowerBound > opt.Cost+Eps {
				t.Fatalf("trial %d %s: LowerBound %v exceeds optimum %v",
					trial, sv.name, sol.LowerBound, opt.Cost)
			}
			if sol.Optimal && math.Abs(sol.Cost-opt.Cost) > 1e-6 {
				t.Fatalf("trial %d %s: claims optimal at cost %v, optimum is %v",
					trial, sv.name, sol.Cost, opt.Cost)
			}
		}
	}
	if feasible < 50 {
		t.Fatalf("only %d of 150 instances feasible; the check is too thin", feasible)
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
