package assign

import (
	"testing"

	"gridvo/internal/xrand"
)

// seedVariants builds the warm-start hints the property tests exercise for
// an instance: the cold solution itself, projections with orphaned entries
// (the shape a parent coalition's assignment takes after an eviction),
// shifted/garbage hints, and hints of the wrong length.
func seedVariants(rng *xrand.RNG, in *Instance, cold []int) map[string][]int {
	k, n := in.NumGSPs(), in.NumTasks()
	variants := map[string][]int{}
	if cold != nil {
		variants["exact"] = append([]int(nil), cold...)

		holes := append([]int(nil), cold...)
		for j := range holes {
			if rng.Float64() < 0.3 {
				holes[j] = -1
			}
		}
		variants["orphaned"] = holes

		shifted := append([]int(nil), cold...)
		for j := range shifted {
			shifted[j] = (shifted[j] + 1) % k
		}
		variants["shifted"] = shifted
	}
	garbage := make([]int, n)
	for j := range garbage {
		garbage[j] = rng.UniformInt(-2, 3*k)
	}
	variants["garbage"] = garbage
	variants["allOrphans"] = make([]int, n) // filled below
	for j := range variants["allOrphans"] {
		variants["allOrphans"][j] = -1
	}
	variants["wrongLen"] = make([]int, n/2)
	return variants
}

// TestSeedNeverWorsens is the warm-start safety property: for any hint —
// exact, partially orphaned, systematically wrong, or unusable — the seeded
// solve is feasible whenever the cold solve is and its cost is never worse.
func TestSeedNeverWorsens(t *testing.T) {
	rng := xrand.New(7)
	for trial := 0; trial < 40; trial++ {
		k := rng.UniformInt(2, 5)
		n := rng.UniformInt(k, 14)
		slack := rng.Uniform(0.3, 1.5)
		in := randomInstance(rng.SplitN("inst", trial), k, n, slack)
		for _, budget := range []int64{0, 200} { // full search and truncated
			opts := Options{NodeBudget: budget}
			cold := Solve(in, opts)
			for name, seed := range seedVariants(rng.SplitN("seed", trial), in, cold.Assign) {
				warm := opts
				warm.SeedAssign = seed
				ws := Solve(in, warm)
				if cold.Feasible && !ws.Feasible {
					t.Fatalf("trial %d budget %d seed %q: cold feasible, seeded infeasible", trial, budget, name)
				}
				if cold.Feasible && ws.Cost > cold.Cost+Eps {
					t.Fatalf("trial %d budget %d seed %q: seeded cost %v worse than cold %v",
						trial, budget, name, ws.Cost, cold.Cost)
				}
				if ws.Feasible {
					if err := Verify(in, ws.Assign); err != nil {
						t.Fatalf("trial %d budget %d seed %q: seeded solution invalid: %v", trial, budget, name, err)
					}
				}
				if ws.Stats.SeedWins > ws.Stats.SeedAccepted {
					t.Fatalf("trial %d seed %q: SeedWins %d > SeedAccepted %d",
						trial, name, ws.Stats.SeedWins, ws.Stats.SeedAccepted)
				}
			}
		}
	}
}

// TestSeedOptimalFoundWithoutSearch feeds the known optimum as the seed
// with heuristics disabled: the solver must accept it (SeedAccepted,
// SeedWins) and return the same cost bit-identically, since canonical
// task-index-order costing makes the reported figure independent of which
// incumbent produced the assignment.
func TestSeedOptimalFoundWithoutSearch(t *testing.T) {
	rng := xrand.New(11)
	for trial := 0; trial < 20; trial++ {
		k := rng.UniformInt(2, 4)
		n := rng.UniformInt(k, 10)
		in := randomInstance(rng.SplitN("inst", trial), k, n, 1.0)
		cold := Solve(in, Options{})
		if !cold.Feasible {
			continue
		}
		ws := Solve(in, Options{DisableHeuristics: true, SeedAssign: cold.Assign})
		if !ws.Feasible || ws.Stats.SeedAccepted != 1 || ws.Stats.SeedWins != 1 {
			t.Fatalf("trial %d: optimal seed not installed: %+v", trial, ws.Stats)
		}
		if ws.Cost != cold.Cost {
			t.Fatalf("trial %d: seeded cost %v != cold cost %v (canonical costing broken)", trial, ws.Cost, cold.Cost)
		}
	}
}

// TestSeedUnusableIsIgnored verifies hints the repair cannot salvage leave
// the solve identical to a cold one, with SeedAccepted == 0.
func TestSeedUnusableIsIgnored(t *testing.T) {
	in := tiny()
	cold := Solve(in, Options{})
	for name, seed := range map[string][]int{
		"wrongLen": {0},
		"empty":    {},
	} {
		ws := Solve(in, Options{SeedAssign: seed})
		if ws.Stats.SeedAccepted != 0 {
			t.Fatalf("%s: unusable seed accepted: %+v", name, ws.Stats)
		}
		if ws.Cost != cold.Cost || ws.Feasible != cold.Feasible {
			t.Fatalf("%s: unusable seed changed the answer: %+v vs %+v", name, ws, cold)
		}
	}
}
