package assign

import (
	"math"
	"testing"

	"gridvo/internal/xrand"
)

// twinInstance builds a random instance and then overwrites GSP rows so
// that pairs (0,1) and, when k ≥ 4, (2,3) are bitwise-identical twins.
// Times are rounded to integers first: the dominance rule fires only
// when two twins reach exactly equal loads, which continuous times make
// a measure-zero event but small-integer times make routine.
func twinInstance(rng *xrand.RNG, k, n int, deadlineSlack float64) *Instance {
	in := randomInstance(rng, k, n, deadlineSlack)
	for i := range in.Time {
		for j := range in.Time[i] {
			in.Time[i][j] = math.Round(in.Time[i][j])
		}
	}
	copy(in.Cost[1], in.Cost[0])
	copy(in.Time[1], in.Time[0])
	if k >= 4 {
		copy(in.Cost[3], in.Cost[2])
		copy(in.Time[3], in.Time[2])
	}
	return in
}

// TestTwinPruningIdentity is the pruning-identity property: on instances
// with identical-row GSP pairs, the twin rules must not change the
// outcome of a completed search — same feasibility, same optimality
// verdict, and exactly the same cost as the prune-disabled reference.
func TestTwinPruningIdentity(t *testing.T) {
	rng := xrand.New(11)
	sawSymmetry, sawDominance := false, false
	for trial := 0; trial < 40; trial++ {
		k := 2 + rng.IntN(3)
		n := k + rng.IntN(8)
		in := twinInstance(rng, k, n, 0.8+rng.Float64())
		pruned := Solve(in, Options{NodeBudget: -1})
		ref := Solve(in, Options{NodeBudget: -1, DisableTwinPruning: true})
		if ref.Stats.PrunedBySymmetry != 0 || ref.Stats.PrunedByDominance != 0 {
			t.Fatalf("trial %d: disabled run reported twin prunes: %+v", trial, ref.Stats)
		}
		if pruned.Feasible != ref.Feasible || pruned.Optimal != ref.Optimal {
			t.Fatalf("trial %d: verdicts diverge: pruned %v/%v vs ref %v/%v",
				trial, pruned.Feasible, pruned.Optimal, ref.Feasible, ref.Optimal)
		}
		if pruned.Cost != ref.Cost {
			t.Fatalf("trial %d: cost diverges: pruned %v vs ref %v", trial, pruned.Cost, ref.Cost)
		}
		if pruned.Feasible {
			if err := Verify(in, pruned.Assign); err != nil {
				t.Fatalf("trial %d: pruned assignment invalid: %v", trial, err)
			}
		}
		if pruned.Nodes > ref.Nodes {
			t.Fatalf("trial %d: pruning grew the tree: %d > %d nodes", trial, pruned.Nodes, ref.Nodes)
		}
		sawSymmetry = sawSymmetry || pruned.Stats.PrunedBySymmetry > 0
		sawDominance = sawDominance || pruned.Stats.PrunedByDominance > 0
	}
	if !sawSymmetry {
		t.Error("no trial exercised the symmetry rule")
	}
	if !sawDominance {
		t.Error("no trial exercised the dominance rule")
	}
}

// TestTwinPruningInertOnContinuousData pins the benchmark-safety claim:
// without identical rows the rules fire zero times and the search
// trajectory (node count) is exactly the prune-disabled one.
func TestTwinPruningInertOnContinuousData(t *testing.T) {
	rng := xrand.New(12)
	for trial := 0; trial < 10; trial++ {
		in := randomInstance(rng, 2+rng.IntN(4), 6+rng.IntN(8), 1.2)
		on := Solve(in, Options{NodeBudget: -1})
		off := Solve(in, Options{NodeBudget: -1, DisableTwinPruning: true})
		if on.Stats.PrunedBySymmetry != 0 || on.Stats.PrunedByDominance != 0 {
			t.Fatalf("trial %d: twin rules fired on continuous data: %+v", trial, on.Stats)
		}
		if on.Nodes != off.Nodes || on.Cost != off.Cost {
			t.Fatalf("trial %d: trajectory not inert: %d/%v vs %d/%v",
				trial, on.Nodes, on.Cost, off.Nodes, off.Cost)
		}
	}
}

// TestTwinPruningShrinksSymmetricSearch checks that on a fully symmetric
// instance (every GSP identical) the rules actually cut the tree, not
// just leave counters at zero.
func TestTwinPruningShrinksSymmetricSearch(t *testing.T) {
	// GSPs 0 and 1 are twins; GSP 2 is distinct, so assignments differ in
	// cost and the search genuinely branches. Heuristics are disabled so
	// the raw tree — not a lucky incumbent — is what the rules act on.
	rng := xrand.New(5)
	in := twinInstance(rng, 3, 9, 0.65)
	opts := Options{NodeBudget: -1, DisableHeuristics: true}
	pruned := Solve(in, opts)
	refOpts := opts
	refOpts.DisableTwinPruning = true
	ref := Solve(in, refOpts)
	if pruned.Cost != ref.Cost || pruned.Feasible != ref.Feasible {
		t.Fatalf("outcome diverges: %v/%v vs %v/%v", pruned.Feasible, pruned.Cost, ref.Feasible, ref.Cost)
	}
	if pruned.Stats.PrunedBySymmetry == 0 {
		t.Error("symmetry rule never fired on an all-identical instance")
	}
	if pruned.Nodes >= ref.Nodes {
		t.Errorf("no tree reduction: %d vs %d nodes", pruned.Nodes, ref.Nodes)
	}
}
