package mechanism

import (
	"context"
	"testing"

	"gridvo/internal/fault"
	"gridvo/internal/xrand"
)

func TestMergeSplitFormsFeasibleVO(t *testing.T) {
	sc := testScenario(21, 6, 24)
	res, err := MergeSplitContext(context.Background(), sc, MergeSplitOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Selected == nil {
		t.Fatal("merge-split found no feasible coalition on a feasible scenario")
	}
	if res.Payoff <= 0 {
		t.Fatalf("payoff = %v", res.Payoff)
	}
	if res.AvgReputation <= 0 {
		t.Fatal("no reputation recorded")
	}
	if res.Evaluations == 0 || res.Rounds == 0 {
		t.Fatalf("suspicious counters: rounds=%d evals=%d", res.Rounds, res.Evaluations)
	}
}

func TestMergeSplitStructureIsPartition(t *testing.T) {
	sc := testScenario(22, 6, 24)
	res, err := MergeSplitContext(context.Background(), sc, MergeSplitOptions{})
	if err != nil {
		t.Fatal(err)
	}
	seen := map[int]bool{}
	total := 0
	for _, c := range res.Structure {
		for _, g := range c {
			if seen[g] {
				t.Fatalf("GSP %d in two coalitions", g)
			}
			seen[g] = true
			total++
		}
	}
	if total != sc.M() {
		t.Fatalf("partition covers %d of %d GSPs", total, sc.M())
	}
}

func TestMergeSplitSelectedIsInStructure(t *testing.T) {
	sc := testScenario(23, 5, 20)
	res, err := MergeSplitContext(context.Background(), sc, MergeSplitOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Selected == nil {
		t.Skip("no feasible coalition")
	}
	found := false
	for _, c := range res.Structure {
		if len(c) != len(res.Selected) {
			continue
		}
		match := true
		sorted := append([]int(nil), c...)
		for i := range sorted {
			if res.Selected[i] != sortedOf(c)[i] {
				match = false
				break
			}
		}
		_ = sorted
		if match {
			found = true
			break
		}
	}
	if !found {
		t.Fatalf("selected %v not a coalition of the structure %v", res.Selected, res.Structure)
	}
}

func sortedOf(c []int) []int {
	out := append([]int(nil), c...)
	for i := 1; i < len(out); i++ {
		for j := i; j > 0 && out[j-1] > out[j]; j-- {
			out[j-1], out[j] = out[j], out[j-1]
		}
	}
	return out
}

func TestMergeSplitInfeasibleScenario(t *testing.T) {
	sc := testScenario(24, 4, 12)
	sc.Deadline = 1e-9
	res, err := MergeSplitContext(context.Background(), sc, MergeSplitOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Selected != nil {
		t.Fatal("infeasible scenario produced a selected VO")
	}
}

func TestMergeSplitInvalidScenario(t *testing.T) {
	sc := testScenario(25, 4, 12)
	sc.Payment = 0
	if _, err := MergeSplitContext(context.Background(), sc, MergeSplitOptions{}); err == nil {
		t.Fatal("invalid scenario accepted")
	}
}

func TestMergeSplitVsTVOFComparable(t *testing.T) {
	// Both mechanisms must produce feasible VOs on the same scenario;
	// the comparison bench records their relative payoffs.
	sc := testScenario(26, 6, 24)
	ms, err := MergeSplitContext(context.Background(), sc, MergeSplitOptions{})
	if err != nil {
		t.Fatal(err)
	}
	tv, err := TVOFContext(context.Background(), sc, xrand.New(1))
	if err != nil {
		t.Fatal(err)
	}
	if ms.Selected == nil || tv.Final() == nil {
		t.Fatal("a mechanism failed to form a VO")
	}
	if ms.Payoff <= 0 || tv.Final().Payoff <= 0 {
		t.Fatal("non-positive payoffs")
	}
}

func TestMergeSplitRespectsRoundCap(t *testing.T) {
	sc := testScenario(27, 6, 24)
	res, err := MergeSplitContext(context.Background(), sc, MergeSplitOptions{MaxRounds: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.Rounds > 1 {
		t.Fatalf("rounds = %d exceeds cap", res.Rounds)
	}
}

// TestMergeSplitUnderFaultInjection: the merge/split process under
// injected solve truncation must never panic, must keep the structure a
// valid partition, and must flag the run degraded when faults actually
// bit. A coalition accepted fault-free is either still accepted when its
// union solve degrades to a heuristic incumbent, or correctly rejected —
// the selected coalition's payoff stays non-negative either way.
func TestMergeSplitUnderFaultInjection(t *testing.T) {
	sc := testScenario(23, 6, 24)
	clean, err := MergeSplitContext(context.Background(), sc, MergeSplitOptions{})
	if err != nil {
		t.Fatal(err)
	}
	inj := fault.New(fault.Config{Seed: 17, Rate: 0.6, CancelNodes: 2})
	faulted, err := MergeSplitContext(context.Background(), sc, MergeSplitOptions{Inject: inj})
	if err != nil {
		t.Fatalf("merge-split under injection failed hard: %v", err)
	}
	if inj.Stats().Fired == 0 {
		t.Fatalf("rate-0.6 injector never fired: %v", inj.Stats())
	}
	seen := map[int]bool{}
	total := 0
	for _, c := range faulted.Structure {
		if len(c) == 0 {
			t.Fatal("empty coalition in structure")
		}
		for _, g := range c {
			if g < 0 || g >= sc.M() || seen[g] {
				t.Fatalf("invalid partition under faults: %v", faulted.Structure)
			}
			seen[g] = true
			total++
		}
	}
	if total != sc.M() {
		t.Fatalf("partition covers %d of %d GSPs", total, sc.M())
	}
	if faulted.Payoff < 0 {
		t.Fatalf("negative payoff under faults: %v", faulted.Payoff)
	}
	if faulted.Stats.Degraded > 0 && !faulted.Degraded {
		t.Fatal("degraded solves occurred but result not flagged")
	}
	// The clean run on the same scenario stays the reference: its payoff
	// is a proven merge/split outcome the faulted run cannot beat by more
	// than numerical noise (degradation only weakens coalition values).
	if faulted.Payoff > clean.Payoff+1e-6 {
		t.Fatalf("faulted payoff %v exceeds fault-free payoff %v", faulted.Payoff, clean.Payoff)
	}
}

// TestMergeSplitFaultDeterminism: identical injector seeds reproduce the
// identical degraded structure and payoff.
func TestMergeSplitFaultDeterminism(t *testing.T) {
	run := func() *MergeSplitResult {
		sc := testScenario(24, 6, 24)
		inj := fault.New(fault.Config{Seed: 8, Rate: 0.5, CancelNodes: 2})
		res, err := MergeSplitContext(context.Background(), sc, MergeSplitOptions{Inject: inj})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := run(), run()
	if a.Payoff != b.Payoff || a.Rounds != b.Rounds || len(a.Structure) != len(b.Structure) {
		t.Fatalf("faulted merge-split not deterministic: %+v vs %+v", a, b)
	}
}
