package mechanism

import (
	"context"
	"fmt"
	"testing"

	"gridvo/internal/assign"
	"gridvo/internal/reputation"
	"gridvo/internal/xrand"
)

// BenchmarkTVOF measures one full mechanism run at growing scenario sizes.
func BenchmarkTVOF(b *testing.B) {
	for _, shape := range []struct{ m, n int }{
		{8, 64}, {16, 256}, {16, 1024},
	} {
		sc := testScenario(uint64(shape.m*1000+shape.n), shape.m, shape.n)
		b.Run(fmt.Sprintf("m%d_n%d", shape.m, shape.n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				res, err := TVOFContext(context.Background(), sc, xrand.New(uint64(i+1)))
				if err != nil {
					b.Fatal(err)
				}
				if res.Final() == nil {
					b.Fatal("no VO formed")
				}
			}
		})
	}
}

// BenchmarkEvictionRuleAblation swaps TVOF's power-method eviction for the
// other centrality measures and for random eviction, reporting the average
// reputation of the formed VO — the ablation DESIGN.md §6 calls out.
func BenchmarkEvictionRuleAblation(b *testing.B) {
	sc := testScenario(99, 12, 128)
	cases := []struct {
		name string
		opts Options
	}{
		{"power", Options{Eviction: EvictLowestReputation}},
		{"random", Options{Eviction: EvictRandom}},
		{"in-degree", Options{Eviction: EvictLowestCentrality, Centrality: reputation.CentralityInDegree}},
		{"closeness", Options{Eviction: EvictLowestCentrality, Centrality: reputation.CentralityCloseness}},
		{"betweenness", Options{Eviction: EvictLowestCentrality, Centrality: reputation.CentralityBetweenness}},
		{"pagerank", Options{Eviction: EvictLowestCentrality, Centrality: reputation.CentralityPageRank}},
	}
	for _, c := range cases {
		b.Run(c.name, func(b *testing.B) {
			var rep float64
			for i := 0; i < b.N; i++ {
				res, err := RunContext(context.Background(), sc, c.opts, xrand.New(uint64(i+1)))
				if err != nil {
					b.Fatal(err)
				}
				if f := res.Final(); f != nil {
					rep = f.AvgReputation
				}
			}
			b.ReportMetric(rep, "avg-reputation")
		})
	}
}

// BenchmarkMergeSplitVsTVOF compares the ICPP'12 mechanism with the
// authors' earlier merge-and-split approach on identical scenarios.
func BenchmarkMergeSplitVsTVOF(b *testing.B) {
	sc := testScenario(123, 8, 64)
	b.Run("tvof", func(b *testing.B) {
		var payoff float64
		for i := 0; i < b.N; i++ {
			res, err := TVOFContext(context.Background(), sc, xrand.New(uint64(i+1)))
			if err != nil {
				b.Fatal(err)
			}
			payoff = res.Final().Payoff
		}
		b.ReportMetric(payoff, "payoff")
	})
	b.Run("merge-split", func(b *testing.B) {
		var payoff float64
		for i := 0; i < b.N; i++ {
			res, err := MergeSplitContext(context.Background(), sc, MergeSplitOptions{})
			if err != nil {
				b.Fatal(err)
			}
			payoff = res.Payoff
		}
		b.ReportMetric(payoff, "payoff")
	})
}

// BenchmarkEngineCache measures a full TVOF run followed by the stability
// audit on a shared engine, reporting the cache-hit rate and the absolute
// number of solves avoided by the per-scenario solve cache.
func BenchmarkEngineCache(b *testing.B) {
	sc := testScenario(55, 10, 96)
	var hitRate, avoided float64
	for i := 0; i < b.N; i++ {
		eng := NewEngine(sc, assign.Options{})
		res, err := RunContext(context.Background(), sc, Options{Eviction: EvictLowestReputation, Engine: eng}, xrand.New(uint64(i+1)))
		if err != nil {
			b.Fatal(err)
		}
		if _, _, err := StabilityCheckContext(context.Background(), sc, res, Options{}, CriterionAverage); err != nil {
			b.Fatal(err)
		}
		st := eng.Stats()
		hitRate = st.HitRate()
		avoided = float64(st.CacheHits)
	}
	b.ReportMetric(hitRate, "cache-hit-rate")
	b.ReportMetric(avoided, "solves-avoided/run")
}

// BenchmarkStabilityCheck measures the Definition-1 audit.
func BenchmarkStabilityCheck(b *testing.B) {
	sc := testScenario(7, 8, 64)
	res, err := TVOFContext(context.Background(), sc, xrand.New(1))
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := StabilityCheckContext(context.Background(), sc, res, Options{}, CriterionTotal); err != nil {
			b.Fatal(err)
		}
	}
}
