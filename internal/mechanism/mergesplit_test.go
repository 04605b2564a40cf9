package mechanism

import (
	"context"
	"testing"

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
