package coalition

import (
	"testing"
)

func TestOutcomePreference(t *testing.T) {
	a := Outcome{Payoff: 2, Reputation: 0.5}
	b := Outcome{Payoff: 1, Reputation: 0.5}
	c := Outcome{Payoff: 2, Reputation: 0.4}
	d := Outcome{Payoff: 1, Reputation: 0.9}
	if !a.Prefers(b) || !a.Prefers(c) {
		t.Fatal("dominance not detected")
	}
	if a.Prefers(a) {
		t.Fatal("outcome strictly prefers itself")
	}
	if !a.WeaklyPrefers(a) {
		t.Fatal("outcome does not weakly prefer itself")
	}
	// Incomparable outcomes: neither strictly preferred.
	if a.Prefers(d) || d.Prefers(a) {
		t.Fatal("incomparable outcomes reported as dominated")
	}
}

func TestIsIndividuallyStableSingleton(t *testing.T) {
	stable, who := IsIndividuallyStable([]int{3}, nil)
	if !stable || who != -1 {
		t.Fatal("singleton must be stable")
	}
	stable, _ = IsIndividuallyStable(nil, nil)
	if !stable {
		t.Fatal("empty coalition must be stable")
	}
}

func TestIsIndividuallyStableDetectsFreeloader(t *testing.T) {
	// Member 2 drags the outcome down: everyone strictly prefers the
	// coalition without it.
	eval := func(member int, coalition []int) Outcome {
		has2 := false
		for _, g := range coalition {
			if g == 2 {
				has2 = true
			}
		}
		if has2 {
			return Outcome{Payoff: 1, Reputation: 0.2}
		}
		return Outcome{Payoff: 5, Reputation: 0.8}
	}
	stable, who := IsIndividuallyStable([]int{0, 1, 2}, eval)
	if stable {
		t.Fatal("freeloader coalition reported stable")
	}
	if who != 2 {
		t.Fatalf("destabilizer = %d, want 2", who)
	}
}

func TestIsIndividuallyStableWhenRemovalHurts(t *testing.T) {
	// Payoff grows with size: removing anyone hurts the rest.
	eval := func(member int, coalition []int) Outcome {
		return Outcome{Payoff: float64(len(coalition)), Reputation: 0.5}
	}
	stable, _ := IsIndividuallyStable([]int{0, 1, 2, 3}, eval)
	if !stable {
		t.Fatal("growing-payoff coalition reported unstable")
	}
}

func TestIsIndividuallyStableWeakIndifference(t *testing.T) {
	// Removal leaves everyone exactly indifferent: nobody strictly
	// gains, so nothing destabilizes the coalition (see the strictness
	// discussion on IsIndividuallyStable).
	eval := func(member int, coalition []int) Outcome {
		return Outcome{Payoff: 1, Reputation: 0.5}
	}
	stable, _ := IsIndividuallyStable([]int{0, 1}, eval)
	if !stable {
		t.Fatal("indifferent coalition should be stable: no member strictly gains")
	}
}

func TestSortedMembers(t *testing.T) {
	in := []int{3, 1, 2}
	got := SortedMembers(in)
	if got[0] != 1 || got[1] != 2 || got[2] != 3 {
		t.Fatalf("SortedMembers = %v", got)
	}
	if in[0] != 3 {
		t.Fatal("input mutated")
	}
}
