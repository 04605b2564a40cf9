package mechanism

import (
	"context"
	"testing"
	"testing/quick"

	"gridvo/internal/assign"
	"gridvo/internal/xrand"
)

// TestMechanismInvariantsProperty checks the structural invariants of
// Algorithm 1 over randomized scenarios and both eviction rules:
//
//   - the VO shrinks by exactly one member per iteration;
//   - the run ends at the first infeasible VO (or a singleton);
//   - every feasible record's payoff equals (P − cost)/|C| and its cost
//     respects the payment budget;
//   - the selected VO maximizes payoff over the feasible records and
//     carries an assignment satisfying all five IP constraints;
//   - member lists are always sorted subsets of the original GSPs.
func TestMechanismInvariantsProperty(t *testing.T) {
	check := func(seedRaw uint16, ruleRaw bool) bool {
		seed := uint64(seedRaw) + 1
		m := 4 + int(seed%4)
		n := 4 * m
		sc := testScenario(seed, m, n)
		opts := Options{Solver: assign.Options{NodeBudget: 100_000}}
		if ruleRaw {
			opts.Eviction = EvictRandom
		}
		res, err := RunContext(context.Background(), sc, opts, xrand.New(seed))
		if err != nil {
			t.Logf("seed %d: %v", seed, err)
			return false
		}
		bestPayoff := -1.0
		for i := range res.Iterations {
			rec := &res.Iterations[i]
			if rec.Size() != m-i {
				t.Logf("seed %d: iteration %d size %d", seed, i, rec.Size())
				return false
			}
			for j := 1; j < len(rec.Members); j++ {
				if rec.Members[j] <= rec.Members[j-1] {
					return false
				}
			}
			if rec.Members[len(rec.Members)-1] >= m || rec.Members[0] < 0 {
				return false
			}
			if rec.Feasible {
				if rec.Cost > sc.Payment+assign.Eps {
					return false
				}
				want := (sc.Payment - rec.Cost) / float64(rec.Size())
				if diff := rec.Payoff - want; diff > 1e-9 || diff < -1e-9 {
					return false
				}
				if rec.Payoff > bestPayoff {
					bestPayoff = rec.Payoff
				}
			} else if i != len(res.Iterations)-1 {
				// Infeasibility only terminates the loop.
				return false
			}
		}
		if res.Selected >= 0 {
			final := res.Final()
			if final.Payoff < bestPayoff-1e-9 {
				return false
			}
			if assign.Verify(sc.Instance(final.Members), final.Assignment) != nil {
				return false
			}
		} else if bestPayoff >= 0 {
			return false // feasible records existed but nothing selected
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}
