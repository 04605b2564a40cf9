package gridvo

// One benchmark per table/figure of the paper's evaluation section
// (Section IV). Each benchmark regenerates its figure's data series from
// scratch — trace, scenarios, mechanism runs — and reports the figure's
// headline quantities as benchmark metrics, so `go test -bench .` doubles
// as a reproduction smoke test. The full-resolution regeneration (10
// repetitions, all six program sizes) is `go run ./cmd/vosim -all`;
// benchmarks use a reduced grid to keep a bench sweep under a few minutes.
//
// Shapes being verified (see EXPERIMENTS.md for the recorded outcomes):
//
//	Fig. 1  TVOF ≈ RVOF individual payoff
//	Fig. 2  final VO size grows with n
//	Fig. 3  TVOF avg reputation > RVOF avg reputation
//	Fig. 4  TVOF's pick usually also maximizes payoff × reputation
//	Fig. 5/6 vs 7/8  TVOF raises avg reputation per iteration; RVOF wanders
//	Fig. 9  execution time grows with n

import (
	"context"
	"testing"

	"gridvo/internal/mechanism"
	"gridvo/internal/sim"
	"gridvo/internal/stats"
)

// benchConfig is the reduced Table I grid used by the sweep benchmarks.
func benchConfig(seed uint64) sim.Config {
	cfg := sim.DefaultConfig(seed)
	cfg.ProgramSizes = []int{256, 1024}
	cfg.Repetitions = 2
	cfg.TraceJobs = 6000
	return cfg
}

func benchEnv(b *testing.B, seed uint64) *sim.Env {
	b.Helper()
	env, err := sim.NewEnv(benchConfig(seed))
	if err != nil {
		b.Fatal(err)
	}
	return env
}

func benchSweep(b *testing.B, seed uint64) *sim.SweepResult {
	b.Helper()
	env := benchEnv(b, seed)
	sweep, err := env.SweepParallelContext(context.Background(), 1, nil)
	if err != nil {
		b.Fatal(err)
	}
	return sweep
}

// BenchmarkTable1Setup measures building the full Table I environment:
// synthetic Atlas trace generation plus workload catalog indexing.
func BenchmarkTable1Setup(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := sim.NewEnv(sim.DefaultConfig(uint64(i + 1))); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig1IndividualPayoff regenerates Fig. 1's series and reports the
// TVOF and RVOF mean payoffs at the largest program size.
func BenchmarkFig1IndividualPayoff(b *testing.B) {
	for i := 0; i < b.N; i++ {
		sweep := benchSweep(b, uint64(i+1))
		last := sweep.Points[len(sweep.Points)-1]
		b.ReportMetric(stats.Mean(last.TVOFPayoff), "tvof-payoff")
		b.ReportMetric(stats.Mean(last.RVOFPayoff), "rvof-payoff")
	}
}

// BenchmarkFig2VOSize regenerates Fig. 2's series and reports the mean
// final VO size at both grid points (growth with n is the figure's claim).
func BenchmarkFig2VOSize(b *testing.B) {
	for i := 0; i < b.N; i++ {
		sweep := benchSweep(b, uint64(i+1))
		b.ReportMetric(stats.Mean(sweep.Points[0].TVOFSize), "vo-size-small-n")
		b.ReportMetric(stats.Mean(sweep.Points[len(sweep.Points)-1].TVOFSize), "vo-size-large-n")
	}
}

// BenchmarkFig3AvgReputation regenerates Fig. 3's series and reports the
// mean average-reputation of the final VOs under both mechanisms.
func BenchmarkFig3AvgReputation(b *testing.B) {
	for i := 0; i < b.N; i++ {
		sweep := benchSweep(b, uint64(i+1))
		tvof, rvof := 0.0, 0.0
		for _, p := range sweep.Points {
			tvof += stats.Mean(p.TVOFRep)
			rvof += stats.Mean(p.RVOFRep)
		}
		k := float64(len(sweep.Points))
		b.ReportMetric(tvof/k, "tvof-reputation")
		b.ReportMetric(rvof/k, "rvof-reputation")
	}
}

// BenchmarkFig4ParetoPick regenerates Fig. 4: ten 256-task programs,
// comparing TVOF's payoff pick with the payoff×reputation pick.
func BenchmarkFig4ParetoPick(b *testing.B) {
	for i := 0; i < b.N; i++ {
		env := benchEnv(b, uint64(i+1))
		r, err := env.Fig4(context.Background(), 256, 10)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(r.AgreementCount()), "same-pick-of-10")
	}
}

func benchTrace(b *testing.B, tag string, rule mechanism.EvictionRule, metric string) {
	for i := 0; i < b.N; i++ {
		env := benchEnv(b, uint64(i+1))
		tr, err := env.IterationTrace(context.Background(), 256, tag, rule)
		if err != nil {
			b.Fatal(err)
		}
		// Reputation trend across the trajectory: last minus first
		// average reputation. Positive = rising (TVOF's claim).
		delta := tr.AvgReps[len(tr.AvgReps)-1] - tr.AvgReps[0]
		b.ReportMetric(delta, metric)
		b.ReportMetric(float64(len(tr.Sizes)), "iterations")
	}
}

// BenchmarkFig5TVOFIterations regenerates Fig. 5 (program A under TVOF).
func BenchmarkFig5TVOFIterations(b *testing.B) {
	benchTrace(b, "A", mechanism.EvictLowestReputation, "reputation-trend")
}

// BenchmarkFig6TVOFIterations regenerates Fig. 6 (program B under TVOF).
func BenchmarkFig6TVOFIterations(b *testing.B) {
	benchTrace(b, "B", mechanism.EvictLowestReputation, "reputation-trend")
}

// BenchmarkFig7RVOFIterations regenerates Fig. 7 (program A under RVOF).
func BenchmarkFig7RVOFIterations(b *testing.B) {
	benchTrace(b, "A", mechanism.EvictRandom, "reputation-trend")
}

// BenchmarkFig8RVOFIterations regenerates Fig. 8 (program B under RVOF).
func BenchmarkFig8RVOFIterations(b *testing.B) {
	benchTrace(b, "B", mechanism.EvictRandom, "reputation-trend")
}

// BenchmarkFig9ExecutionTime is Fig. 9 itself: the wall-clock cost of one
// TVOF/RVOF pair at the paper's largest program size (8192 tasks, 16
// GSPs), the two runs concurrent on one engine as every sweep runs them.
// ns/op is the pair's time, not one run's; Result.Duration gives each
// run's own seconds. Only the first iteration reuses the grand-coalition
// solve scenario generation made (the hand-off is keyed by repetition).
func BenchmarkFig9ExecutionTime(b *testing.B) {
	cfg := sim.DefaultConfig(1)
	cfg.Repetitions = 1
	cfg.TraceJobs = 6000
	env, err := sim.NewEnv(cfg)
	if err != nil {
		b.Fatal(err)
	}
	sc, _, err := env.BuildScenario(8192, 0)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tv, _, err := env.RunPairContext(context.Background(), sc, 8192, i)
		if err != nil {
			b.Fatal(err)
		}
		if tv.Final() == nil {
			b.Fatal("no VO formed")
		}
	}
}
