package coalition

import "sort"

// Outcome is the bicriteria evaluation of a VO from one member's point of
// view: the equal-share payoff (eq. 16) and a reputation criterion for the
// VO's members (eq. 17). The paper states the reputation criterion as the
// *average* global reputation, but the proof of Theorem 1 argues with the
// *total* reputation ("removing G decreases the total reputation of GSPs
// in C"); evaluators choose which value to put in Reputation — the
// preference relation is agnostic. The hedonic relation ≽ compares
// Outcomes by Pareto dominance over (Payoff, Reputation).
type Outcome struct {
	Payoff     float64
	Reputation float64
}

// Prefers reports whether outcome a is strictly preferred to b under the
// paper's bicriteria objective, interpreted as Pareto dominance: at least
// as good in both criteria and strictly better in one.
func (a Outcome) Prefers(b Outcome) bool {
	return a.Payoff >= b.Payoff && a.Reputation >= b.Reputation &&
		(a.Payoff > b.Payoff || a.Reputation > b.Reputation)
}

// WeaklyPrefers reports a ≽ b: at least as good in both criteria.
func (a Outcome) WeaklyPrefers(b Outcome) bool {
	return a.Payoff >= b.Payoff && a.Reputation >= b.Reputation
}

// OutcomeFunc evaluates a coalition from member i's point of view. With
// equal sharing and a common reputation average the evaluation is the same
// for every member, but the signature keeps member identity for
// generality (and for tests that inject asymmetric preferences).
type OutcomeFunc func(member int, coalition []int) Outcome

// IsIndividuallyStable implements Definition 1: coalition C is individually
// stable if there is no member G_i whose departure would be a Pareto
// improvement for the remaining members — every j weakly prefers C\{G_i}
// and at least one strictly prefers it. The strictness requirement follows
// the paper's reading of the definition in the proof of Theorem 1
// ("leaving G as part of the VO makes other GSPs in C *unhappy*"): a
// departure that leaves everyone exactly indifferent destabilizes nothing.
// The second return names a destabilizing member when unstable.
func IsIndividuallyStable(coalition []int, eval OutcomeFunc) (bool, int) {
	if len(coalition) <= 1 {
		return true, -1
	}
	for _, gi := range coalition {
		without := removeMember(coalition, gi)
		allWeak := true
		someStrict := false
		for _, gj := range without {
			after, before := eval(gj, without), eval(gj, coalition)
			if !after.WeaklyPrefers(before) {
				allWeak = false
				break
			}
			if after.Prefers(before) {
				someStrict = true
			}
		}
		if allWeak && someStrict {
			return false, gi
		}
	}
	return true, -1
}

func removeMember(coalition []int, member int) []int {
	out := make([]int, 0, len(coalition)-1)
	for _, g := range coalition {
		if g != member {
			out = append(out, g)
		}
	}
	return out
}

// SortedMembers returns a sorted copy of a member list (VO records store
// members in eviction order; comparisons need canonical form).
func SortedMembers(members []int) []int {
	out := append([]int(nil), members...)
	sort.Ints(out)
	return out
}
