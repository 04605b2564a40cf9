package sim

import (
	"context"
	"math"
	"testing"

	"gridvo/internal/stats"
)

// TestGoldenFigureAggregates pins the paper-figure aggregates against the
// committed results_all.txt (generated at the v0 seed with DefaultConfig
// seed 42 and 24 repetitions): the n=256 rows of Figs. 1-3.
//
// Documented tolerance: the pipeline is deterministic, but the solver
// revisions since the seed (the PR-1 shared solve cache and the PR-3
// warm-start seeding) changed tie-breaking among co-optimal assignments,
// which shifts a few VO selections — measured drift is ≤1.4% on payoff
// means, ≤0.12 on mean VO size, and ≤0.0042 on mean reputation. The
// bounds below (2.5% relative on payoffs, 5% on their CI half-widths,
// ±0.25 on sizes, ±0.005 on reputations) absorb that tie-breaking drift
// while still failing on any real behavioral regression: a broken
// eviction rule, reputation ranking, or value function moves these
// aggregates by far more (TVOF's reputation advantage over RVOF alone is
// ≈0.08). The paper's qualitative claim — TVOF selects far more
// reputable VOs at comparable payoff — is asserted exactly.
//
// The trace generator consumes the FULL Table I size list and a
// MinPerSize derived from Repetitions, so the config must match the
// results_all run even though only the 256-task cells are executed.
// Runs in ~30 s; skipped under -short.
func TestGoldenFigureAggregates(t *testing.T) {
	if testing.Short() {
		t.Skip("golden regression sweep skipped in -short mode")
	}
	cfg := DefaultConfig(42)
	cfg.Repetitions = 24
	env, err := NewEnv(cfg)
	if err != nil {
		t.Fatal(err)
	}

	var tvPayoff, rvPayoff, tvSize, rvSize, tvRep, rvRep []float64
	for rep := 0; rep < cfg.Repetitions; rep++ {
		sc, _, err := env.BuildScenario(256, rep)
		if err != nil {
			t.Fatal(err)
		}
		tv, rv, err := env.RunPairContext(context.Background(), sc, 256, rep)
		if err != nil {
			t.Fatal(err)
		}
		tf, rf := tv.Final(), rv.Final()
		if tf == nil || rf == nil {
			t.Fatalf("rep %d: no final VO (tvof=%v rvof=%v)", rep, tf != nil, rf != nil)
		}
		tvPayoff = append(tvPayoff, tf.Payoff)
		rvPayoff = append(rvPayoff, rf.Payoff)
		tvSize = append(tvSize, float64(tf.Size()))
		rvSize = append(rvSize, float64(rf.Size()))
		tvRep = append(tvRep, tf.AvgReputation)
		rvRep = append(rvRep, rf.AvgReputation)
	}

	rel := func(name string, got, want, tol float64) {
		t.Helper()
		if math.Abs(got-want) > tol*math.Abs(want) {
			t.Errorf("%s = %.4f, golden %.4f (rel tol %g): drifted beyond tie-breaking noise", name, got, want, tol)
		}
	}
	abs := func(name string, got, want, tol float64) {
		t.Helper()
		if math.Abs(got-want) > tol {
			t.Errorf("%s = %.4f, golden %.4f (abs tol %g): drifted beyond tie-breaking noise", name, got, want, tol)
		}
	}
	// Fig. 1, n=256 row of results_all.txt.
	rel("fig1 tvof_payoff", stats.Mean(tvPayoff), 1783.52, 0.025)
	rel("fig1 tvof_ci95", stats.CI95(tvPayoff), 852.53, 0.05)
	rel("fig1 rvof_payoff", stats.Mean(rvPayoff), 1898.37, 0.025)
	rel("fig1 rvof_ci95", stats.CI95(rvPayoff), 735.15, 0.05)
	// Fig. 2, n=256 row.
	abs("fig2 tvof_vo_size", stats.Mean(tvSize), 5.38, 0.25)
	abs("fig2 rvof_vo_size", stats.Mean(rvSize), 5.12, 0.25)
	// Fig. 3, n=256 row.
	abs("fig3 tvof_avg_reputation", stats.Mean(tvRep), 0.1445, 0.005)
	abs("fig3 rvof_avg_reputation", stats.Mean(rvRep), 0.0662, 0.005)

	// The paper's headline comparison, asserted without slack: TVOF's VOs
	// are substantially more reputable than RVOF's at similar payoffs.
	if tv, rv := stats.Mean(tvRep), stats.Mean(rvRep); tv < 1.5*rv {
		t.Errorf("TVOF reputation advantage lost: tvof %.4f vs rvof %.4f", tv, rv)
	}
}
