package mechanism

import (
	"context"
	"math"
	"testing"

	"gridvo/internal/assign"
	"gridvo/internal/grid"
	"gridvo/internal/reputation"
	"gridvo/internal/trust"
	"gridvo/internal/workload"
	"gridvo/internal/xrand"
)

// testScenario builds a small but realistic scenario: m GSPs, n tasks,
// Table I-style parameters scaled down, and an Erdős–Rényi trust graph
// dense enough to avoid degenerate reputations in a small graph.
func testScenario(seed uint64, m, n int) *Scenario {
	rng := xrand.New(seed)
	prog := workload.Synthetic(rng.Split("prog"), "T", n, 50000, 9000)
	gsps := grid.GenerateGSPs(rng.Split("gsps"), m)
	cost := grid.CostMatrix(rng.Split("cost"), m, prog)
	tm := grid.TimeMatrix(gsps, prog)
	g := trust.ErdosRenyi(rng.Split("trust"), m, 0.35)
	// Generous deadline and payment so the grand coalition is feasible.
	deadline := 4.0 * prog.BaseRuntimeSec * float64(n) / 1000
	payment := 0.4 * grid.MaxCost * float64(n)
	return &Scenario{
		Program: prog, GSPs: gsps, Cost: cost, Time: tm,
		Deadline: deadline, Payment: payment, Trust: g,
	}
}

func TestScenarioValidate(t *testing.T) {
	sc := testScenario(1, 4, 12)
	if err := sc.Validate(); err != nil {
		t.Fatal(err)
	}
	bad := *sc
	bad.Payment = 0
	if bad.Validate() == nil {
		t.Fatal("zero payment accepted")
	}
	bad = *sc
	bad.Deadline = -1
	if bad.Validate() == nil {
		t.Fatal("negative deadline accepted")
	}
	bad = *sc
	bad.Trust = trust.NewGraph(7)
	if bad.Validate() == nil {
		t.Fatal("mismatched trust graph accepted")
	}
	bad = *sc
	bad.Program = nil
	if bad.Validate() == nil {
		t.Fatal("nil program accepted")
	}
	bad = *sc
	bad.Cost = bad.Cost[:2]
	if bad.Validate() == nil {
		t.Fatal("short cost matrix accepted")
	}
	bad = *sc
	bad.Trust = nil
	if bad.Validate() == nil {
		t.Fatal("nil trust accepted")
	}
}

func TestScenarioAccessors(t *testing.T) {
	sc := testScenario(2, 4, 12)
	if sc.M() != 4 || sc.N() != 12 {
		t.Fatalf("M/N = %d/%d", sc.M(), sc.N())
	}
	in := sc.Instance([]int{1, 3})
	if in.NumGSPs() != 2 || in.NumTasks() != 12 {
		t.Fatal("Instance shape wrong")
	}
	if in.Budget != sc.Payment || in.Deadline != sc.Deadline {
		t.Fatal("Instance budget/deadline wrong")
	}
}

func TestTVOFBasicRun(t *testing.T) {
	sc := testScenario(3, 6, 24)
	res, err := TVOFContext(context.Background(), sc, xrand.New(1))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Iterations) == 0 {
		t.Fatal("no iterations recorded")
	}
	if res.Rule != EvictLowestReputation {
		t.Fatal("rule not recorded")
	}
	// First iteration is the grand coalition.
	if res.Iterations[0].Size() != 6 {
		t.Fatalf("first iteration size = %d", res.Iterations[0].Size())
	}
	// Sizes strictly decrease.
	for i := 1; i < len(res.Iterations); i++ {
		if res.Iterations[i].Size() != res.Iterations[i-1].Size()-1 {
			t.Fatal("VO sizes do not decrease by one")
		}
	}
	// The run must end in either an infeasible VO or a singleton.
	last := res.Iterations[len(res.Iterations)-1]
	if last.Feasible && last.Size() > 1 {
		t.Fatal("mechanism stopped early on a feasible multi-member VO")
	}
	if res.Duration <= 0 {
		t.Fatal("duration not recorded")
	}
}

func TestTVOFFinalSelection(t *testing.T) {
	sc := testScenario(4, 6, 24)
	res, err := TVOFContext(context.Background(), sc, xrand.New(2))
	if err != nil {
		t.Fatal(err)
	}
	final := res.Final()
	if final == nil {
		t.Fatal("no final VO on a feasible scenario")
	}
	// Final must have the max payoff among feasible iterations.
	for i := range res.Iterations {
		rec := &res.Iterations[i]
		if rec.Feasible && rec.Payoff > final.Payoff+1e-9 {
			t.Fatalf("iteration %d payoff %v beats selected %v", i, rec.Payoff, final.Payoff)
		}
	}
	// The selected VO carries a valid assignment.
	if final.Assignment == nil {
		t.Fatal("final VO has no assignment")
	}
	if len(final.Assignment) != sc.N() {
		t.Fatal("final assignment has wrong length")
	}
}

func TestTVOFEvictsLowestReputation(t *testing.T) {
	sc := testScenario(5, 6, 24)
	res, err := TVOFContext(context.Background(), sc, xrand.New(3))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < len(res.Iterations)-1; i++ {
		rec := &res.Iterations[i]
		if rec.Evicted < 0 {
			continue
		}
		// Find the evicted member's local index and check it attains
		// the minimum reputation.
		evictedLocal := -1
		for j, g := range rec.Members {
			if g == rec.Evicted {
				evictedLocal = j
			}
		}
		if evictedLocal < 0 {
			t.Fatal("evicted GSP not in members")
		}
		minRep := rec.Reputation[0]
		for _, r := range rec.Reputation {
			if r < minRep {
				minRep = r
			}
		}
		if rec.Reputation[evictedLocal] > minRep+1e-9 {
			t.Fatalf("iteration %d evicted %d with reputation %v > min %v",
				i, rec.Evicted, rec.Reputation[evictedLocal], minRep)
		}
	}
}

func TestTVOFDeterministicGivenSeed(t *testing.T) {
	sc := testScenario(6, 6, 24)
	a, err := TVOFContext(context.Background(), sc, xrand.New(9))
	if err != nil {
		t.Fatal(err)
	}
	b, err := TVOFContext(context.Background(), sc, xrand.New(9))
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Iterations) != len(b.Iterations) || a.Selected != b.Selected {
		t.Fatal("TVOF not deterministic under identical seed")
	}
	for i := range a.Iterations {
		if a.Iterations[i].Evicted != b.Iterations[i].Evicted {
			t.Fatal("eviction order differs across identical seeds")
		}
	}
}

func TestRVOFRunsAndRecordsReputation(t *testing.T) {
	sc := testScenario(7, 6, 24)
	res, err := RVOFContext(context.Background(), sc, xrand.New(4))
	if err != nil {
		t.Fatal(err)
	}
	if res.Rule != EvictRandom {
		t.Fatal("rule not recorded")
	}
	for i := range res.Iterations {
		rec := &res.Iterations[i]
		if rec.AvgReputation <= 0 {
			t.Fatalf("iteration %d: no reputation recorded for RVOF", i)
		}
		if len(rec.Reputation) != rec.Size() {
			t.Fatal("reputation vector length mismatch")
		}
	}
}

func TestTVOFReputationMonotoneOnAverage(t *testing.T) {
	// The paper's Figs. 5–6: under TVOF, evicting the lowest-reputation
	// member raises (or keeps) the average reputation in most steps.
	// Check the first eviction specifically: removing the minimum cannot
	// decrease the average of the remaining *old* scores; after
	// recomputation the trend holds in aggregate, so we assert the
	// average over iterations is non-decreasing from first to last.
	sc := testScenario(8, 8, 32)
	res, err := TVOFContext(context.Background(), sc, xrand.New(5))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Iterations) < 2 {
		t.Skip("too few iterations")
	}
	first := res.Iterations[0].AvgReputation
	last := res.Iterations[len(res.Iterations)-1].AvgReputation
	if last < first-1e-9 {
		t.Fatalf("avg reputation fell from %v to %v under TVOF", first, last)
	}
}

func TestRunInvalidScenario(t *testing.T) {
	sc := testScenario(9, 4, 12)
	sc.Payment = 0
	if _, err := RunContext(context.Background(), sc, Options{}, xrand.New(1)); err == nil {
		t.Fatal("invalid scenario accepted")
	}
}

func TestRunInfeasibleScenario(t *testing.T) {
	sc := testScenario(10, 4, 12)
	sc.Deadline = 1e-9 // nothing can run
	res, err := RunContext(context.Background(), sc, Options{}, xrand.New(1))
	if err != nil {
		t.Fatal(err)
	}
	if res.Selected != -1 || res.Final() != nil {
		t.Fatal("infeasible scenario selected a VO")
	}
	if len(res.Iterations) != 1 {
		t.Fatalf("expected a single infeasible iteration, got %d", len(res.Iterations))
	}
	if res.FeasibleCount() != 0 {
		t.Fatal("FeasibleCount wrong")
	}
}

func TestRunKeepAssignments(t *testing.T) {
	sc := testScenario(11, 5, 20)
	res, err := RunContext(context.Background(), sc, Options{KeepAssignments: true}, xrand.New(1))
	if err != nil {
		t.Fatal(err)
	}
	for i := range res.Iterations {
		rec := &res.Iterations[i]
		if rec.Feasible && rec.Assignment == nil {
			t.Fatalf("iteration %d feasible but assignment dropped", i)
		}
	}
}

func TestRunCentralityAblation(t *testing.T) {
	sc := testScenario(12, 6, 24)
	res, err := RunContext(context.Background(), sc, Options{
		Eviction:   EvictLowestCentrality,
		Centrality: reputation.CentralityInDegree,
	}, xrand.New(1))
	if err != nil {
		t.Fatal(err)
	}
	if res.Final() == nil {
		t.Fatal("centrality ablation found no VO")
	}
}

func TestResultCandidatesAndProductSelection(t *testing.T) {
	sc := testScenario(13, 6, 24)
	res, err := TVOFContext(context.Background(), sc, xrand.New(6))
	if err != nil {
		t.Fatal(err)
	}
	fp := res.FinalByProduct()
	if fp == nil {
		t.Fatal("no product-selected VO")
	}
	for i := range res.Iterations {
		rec := &res.Iterations[i]
		if !rec.Feasible {
			continue
		}
		if rec.Payoff*rec.AvgReputation > fp.Payoff*fp.AvgReputation+1e-9 {
			t.Fatal("product selection not maximal")
		}
	}
}

func TestTheorem2ParetoOptimality(t *testing.T) {
	// The VO selected by TVOF must not be Pareto-dominated within L.
	sc := testScenario(14, 8, 32)
	res, err := TVOFContext(context.Background(), sc, xrand.New(7))
	if err != nil {
		t.Fatal(err)
	}
	final := res.Final()
	if final == nil {
		t.Skip("infeasible scenario")
	}
	for i := range res.Iterations {
		rec := &res.Iterations[i]
		if !rec.Feasible || i == res.Selected {
			continue
		}
		if rec.Payoff > final.Payoff+1e-9 && rec.AvgReputation > final.AvgReputation+1e-9 {
			t.Fatalf("selected VO dominated by iteration %d", i)
		}
	}
}

func TestStabilityCheckRuns(t *testing.T) {
	sc := testScenario(15, 5, 20)
	res, err := TVOFContext(context.Background(), sc, xrand.New(8))
	if err != nil {
		t.Fatal(err)
	}
	// Theorem 1 asserts individual stability under the total-reputation
	// criterion its proof uses; verify on this instance.
	stable, destabilizer, err := StabilityCheckContext(context.Background(), sc, res, Options{}, CriterionTotal)
	if err != nil {
		t.Fatal(err)
	}
	if !stable {
		t.Fatalf("TVOF VO not individually stable under CriterionTotal; destabilizer %d", destabilizer)
	}
}

func TestStabilityCheckAverageCriterionRuns(t *testing.T) {
	// Under the literal average-reputation reading of eq. (17),
	// individual stability can genuinely fail (see CriterionAverage doc);
	// this test only asserts the check runs and reports coherently.
	sc := testScenario(15, 5, 20)
	res, err := TVOFContext(context.Background(), sc, xrand.New(8))
	if err != nil {
		t.Fatal(err)
	}
	stable, destabilizer, err := StabilityCheckContext(context.Background(), sc, res, Options{}, CriterionAverage)
	if err != nil {
		t.Fatal(err)
	}
	if !stable && destabilizer < 0 {
		t.Fatal("unstable result must name a destabilizer")
	}
	if stable && destabilizer != -1 {
		t.Fatal("stable result must not name a destabilizer")
	}
}

func TestStabilityCheckDegenerate(t *testing.T) {
	sc := testScenario(16, 4, 12)
	res := &Result{Selected: -1}
	stable, _, err := StabilityCheckContext(context.Background(), sc, res, Options{}, CriterionTotal)
	if err != nil || !stable {
		t.Fatal("nil final VO should be vacuously stable")
	}
}

func TestEvictionRuleStrings(t *testing.T) {
	if EvictLowestReputation.String() != "tvof" ||
		EvictRandom.String() != "rvof" ||
		EvictLowestCentrality.String() != "centrality" {
		t.Fatal("EvictionRule strings wrong")
	}
	if EvictionRule(9).String() == "" {
		t.Fatal("unknown rule empty string")
	}
}

func TestValueFunction(t *testing.T) {
	sc := testScenario(17, 4, 12)
	infeasible := &assign.Solution{Feasible: false, Cost: 123}
	if sc.Value(infeasible) != 0 {
		t.Fatal("infeasible VO must have zero value (eq. 15)")
	}
	feasible := &assign.Solution{Feasible: true, Cost: 100}
	if got := sc.Value(feasible); got != sc.Payment-100 {
		t.Fatalf("Value = %v, want %v", got, sc.Payment-100)
	}
}

func TestPayoffMatchesValueOverSize(t *testing.T) {
	sc := testScenario(18, 6, 24)
	res, err := TVOFContext(context.Background(), sc, xrand.New(10))
	if err != nil {
		t.Fatal(err)
	}
	for i := range res.Iterations {
		rec := &res.Iterations[i]
		if !rec.Feasible {
			continue
		}
		want := (sc.Payment - rec.Cost) / float64(rec.Size())
		if math.Abs(rec.Payoff-want) > 1e-9 {
			t.Fatalf("iteration %d payoff %v != %v", i, rec.Payoff, want)
		}
		if rec.Value != sc.Payment-rec.Cost {
			t.Fatal("value mismatch")
		}
	}
}
