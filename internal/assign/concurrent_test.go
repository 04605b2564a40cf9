package assign

import (
	"context"
	"fmt"
	"slices"
	"sync"
	"testing"

	"gridvo/internal/xrand"
)

// concurrentCase is one solve whose sequential result is the reference
// for the concurrent runs.
type concurrentCase struct {
	name string
	in   *Instance
	opts Options
	ref  Solution
}

// concurrentCases mixes the solve shapes that touch different pooled
// state: warm-start seeds (repair buffers), budget-truncated searches
// (aborted searchers returned to the pool mid-tree) and twin-GSP instances
// (the twin scratch slice).
func concurrentCases(t *testing.T) []concurrentCase {
	t.Helper()
	rng := xrand.New(41)
	var cases []concurrentCase
	add := func(name string, in *Instance, opts Options) {
		cases = append(cases, concurrentCase{name: name, in: in, opts: opts, ref: Solve(in, opts)})
	}
	for trial := 0; trial < 6; trial++ {
		k := rng.UniformInt(2, 5)
		n := rng.UniformInt(k+2, 14)
		in := randomInstance(rng.SplitN("seeded", trial), k, n, 1.0)
		cold := Solve(in, Options{})
		if !cold.Feasible {
			continue
		}
		seed := append([]int(nil), cold.Assign...)
		for j := range seed {
			if rng.Float64() < 0.3 {
				seed[j] = -1
			}
		}
		add(fmt.Sprintf("seeded/%d", trial), in, Options{SeedAssign: seed})
	}
	for trial := 0; trial < 6; trial++ {
		in := randomInstance(rng.SplitN("truncated", trial), 8, 40, 1.0)
		add(fmt.Sprintf("truncated/%d", trial), in, Options{NodeBudget: 100})
	}
	for trial := 0; trial < 6; trial++ {
		k := 2 + rng.IntN(3)
		in := twinInstance(rng.SplitN("twins", trial), k, k+rng.IntN(8), 0.8+rng.Float64())
		add(fmt.Sprintf("twins/%d", trial), in, Options{NodeBudget: -1})
	}

	var seeded, truncated, twins bool
	for _, c := range cases {
		seeded = seeded || c.ref.Stats.SeedAccepted > 0
		truncated = truncated || c.ref.NodeBudgetHit
		twins = twins || c.ref.Stats.PrunedBySymmetry > 0
	}
	if !seeded || !truncated || !twins {
		t.Fatalf("case mix incomplete: seeded=%v truncated=%v twins=%v", seeded, truncated, twins)
	}
	return cases
}

// TestSolveConcurrentMatchesSequential runs the same solves from several
// goroutines at once: every result must equal its sequential reference in
// assignment, cost, node count and optimality verdict. Under -race this is
// the check that the searcher and scratch pools share no state between
// concurrent solves.
func TestSolveConcurrentMatchesSequential(t *testing.T) {
	cases := concurrentCases(t)
	const workers, rounds = 4, 3
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				for i := range cases {
					// Each worker starts at a different case so that
					// different shapes overlap in time.
					c := &cases[(i+w*len(cases)/workers)%len(cases)]
					got := SolveCtx(context.Background(), c.in, c.opts)
					if !slices.Equal(got.Assign, c.ref.Assign) || got.Cost != c.ref.Cost ||
						got.Nodes != c.ref.Nodes || got.Optimal != c.ref.Optimal {
						t.Errorf("%s (worker %d, round %d): got cost %v nodes %d optimal %v, want cost %v nodes %d optimal %v",
							c.name, w, r, got.Cost, got.Nodes, got.Optimal, c.ref.Cost, c.ref.Nodes, c.ref.Optimal)
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
}
