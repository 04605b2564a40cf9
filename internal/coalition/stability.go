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

// Candidate is one VO under bicriteria evaluation, used for Pareto-front
// extraction over the feasible VO list L of the mechanism.
type Candidate struct {
	Members []int
	Outcome Outcome
}

// ParetoFront returns the subset of candidates not Pareto-dominated in
// (payoff, average reputation), in input order. Duplicated outcomes are
// all retained (they dominate each other weakly but not strictly).
func ParetoFront(cands []Candidate) []Candidate {
	var front []Candidate
	for i, c := range cands {
		dominated := false
		for j, d := range cands {
			if i == j {
				continue
			}
			if d.Outcome.Prefers(c.Outcome) {
				dominated = true
				break
			}
		}
		if !dominated {
			front = append(front, c)
		}
	}
	return front
}

// BestByPayoff returns the index of the candidate with the highest payoff,
// ties broken toward higher average reputation, then lower index. Returns
// -1 for an empty list. This is TVOF's final selection rule
// (k = argmax v(C)/|C|, Algorithm 1 line 14).
// Only bitwise-equal payoffs tie, so the tie-break is deterministic.
func BestByPayoff(cands []Candidate) int {
	best := -1
	for i, c := range cands {
		if best == -1 {
			best = i
			continue
		}
		b := cands[best]
		if c.Outcome.Payoff > b.Outcome.Payoff ||
			(c.Outcome.Payoff == b.Outcome.Payoff && c.Outcome.Reputation > b.Outcome.Reputation) {
			best = i
		}
	}
	return best
}

// BestByProduct returns the index of the candidate maximizing
// payoff × average reputation — the comparator Fig. 4 of the paper uses to
// demonstrate Pareto optimality. Returns -1 for an empty list.
func BestByProduct(cands []Candidate) int {
	best := -1
	bestV := 0.0
	for i, c := range cands {
		v := c.Outcome.Payoff * c.Outcome.Reputation
		if best == -1 || v > bestV {
			best, bestV = i, v
		}
	}
	return best
}

// SortedMembers returns a sorted copy of a member list (candidates store
// members in eviction order; comparisons need canonical form).
func SortedMembers(members []int) []int {
	out := append([]int(nil), members...)
	sort.Ints(out)
	return out
}
