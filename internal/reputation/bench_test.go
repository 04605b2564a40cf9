package reputation

import (
	"fmt"
	"testing"

	"gridvo/internal/trust"
	"gridvo/internal/xrand"
)

func benchGraph(m int, p float64) *trust.Graph {
	return trust.ErdosRenyi(xrand.New(uint64(m)), m, p)
}

// BenchmarkPowerMethod measures Algorithm 2 at the paper's graph size
// (m = 16, p = 0.1) and larger federations.
func BenchmarkPowerMethod(b *testing.B) {
	for _, m := range []int{16, 64, 256} {
		g := benchGraph(m, 0.1)
		b.Run(fmt.Sprintf("m%d", m), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, _, err := Global(g, DefaultOptions()); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkStopRuleAblation compares the two convergence tests the paper
// describes (pseudocode norm-difference vs prose average-relative-error).
func BenchmarkStopRuleAblation(b *testing.B) {
	g := benchGraph(16, 0.1)
	for _, rule := range []StopRule{StopNormDiff, StopAvgRelErr} {
		b.Run(rule.String(), func(b *testing.B) {
			opts := DefaultOptions()
			opts.Stop = rule
			var iters int
			for i := 0; i < b.N; i++ {
				_, diag, err := Global(g, opts)
				if err != nil {
					b.Fatal(err)
				}
				iters = diag.Iterations
			}
			b.ReportMetric(float64(iters), "iterations")
		})
	}
}

// BenchmarkDampingAblation compares the paper's undamped power method with
// the damped (PageRank-style) variant on the sparse p = 0.1 graphs where
// reducibility matters.
func BenchmarkDampingAblation(b *testing.B) {
	g := benchGraph(16, 0.1)
	for _, damping := range []float64{0, 0.15} {
		b.Run(fmt.Sprintf("d%.2f", damping), func(b *testing.B) {
			opts := DefaultOptions()
			opts.Damping = damping
			for i := 0; i < b.N; i++ {
				if _, _, err := Global(g, opts); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkDanglingAblation compares the uniform-row dangling fix with the
// substochastic (renormalized-iterate) handling — DESIGN.md's §5 choice.
func BenchmarkDanglingAblation(b *testing.B) {
	g := benchGraph(16, 0.1)
	for _, uniform := range []bool{true, false} {
		b.Run(fmt.Sprintf("uniform=%v", uniform), func(b *testing.B) {
			opts := Options{DanglingUniform: uniform}
			for i := 0; i < b.N; i++ {
				if _, _, err := Global(g, opts); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkCentralities compares the cost of every eviction-rule scoring
// function on the paper's graph size.
func BenchmarkCentralities(b *testing.B) {
	g := benchGraph(16, 0.3)
	for _, c := range []Centrality{
		CentralityPower, CentralityInDegree, CentralityOutDegree,
		CentralityCloseness, CentralityBetweenness, CentralityPageRank,
	} {
		b.Run(c.String(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := Scores(g, c); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
