package assign

import (
	"fmt"
	"testing"

	"gridvo/internal/xrand"
)

// Solver benchmarks across the VO-iteration instance sizes the mechanism
// actually produces (k ≤ 16 GSPs, n up to the paper's 8192 tasks).

func benchInstance(k, n int) *Instance {
	return randomInstance(xrand.New(uint64(k*31+n)), k, n, 1.0)
}

func BenchmarkSolve(b *testing.B) {
	for _, shape := range []struct{ k, n int }{
		{4, 64}, {8, 256}, {16, 1024}, {16, 8192},
	} {
		in := benchInstance(shape.k, shape.n)
		b.Run(fmt.Sprintf("k%d_n%d", shape.k, shape.n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				sol := Solve(in, Options{})
				if !sol.Feasible {
					b.Fatal("infeasible bench instance")
				}
			}
		})
	}
}

func BenchmarkHeuristics(b *testing.B) {
	in := benchInstance(16, 1024)
	for _, h := range []Heuristic{HeuristicGreedyCost, HeuristicMCT, HeuristicMinMin, HeuristicSufferage} {
		b.Run(h.String(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if RunHeuristic(in, h) == nil {
					b.Fatal("heuristic failed")
				}
			}
		})
	}
}

func BenchmarkLocalSearch(b *testing.B) {
	in := benchInstance(16, 1024)
	base := RunHeuristic(in, HeuristicMCT)
	if base == nil {
		b.Fatal("no base assignment")
	}
	work := make([]int, len(base))
	load, count := make([]float64, in.NumGSPs()), make([]int, in.NumGSPs())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		copy(work, base)
		localSearchBuf(in, work, 0, load, count)
	}
}

func BenchmarkVerify(b *testing.B) {
	in := benchInstance(16, 8192)
	sol := Solve(in, Options{})
	if !sol.Feasible {
		b.Fatal("infeasible")
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := Verify(in, sol.Assign); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSolveAblationNodeBudget quantifies the cost/quality trade of
// the node budget: DESIGN.md calls this design choice out explicitly.
func BenchmarkSolveAblationNodeBudget(b *testing.B) {
	in := benchInstance(12, 512)
	for _, budget := range []int64{10_000, 100_000, 2_000_000} {
		b.Run(fmt.Sprintf("nodes%d", budget), func(b *testing.B) {
			var cost float64
			for i := 0; i < b.N; i++ {
				sol := Solve(in, Options{NodeBudget: budget})
				if !sol.Feasible {
					b.Fatal("infeasible")
				}
				cost = sol.Cost
			}
			b.ReportMetric(cost, "cost")
		})
	}
}
