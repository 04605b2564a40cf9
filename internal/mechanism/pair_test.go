package mechanism

import (
	"context"
	"reflect"
	"sync"
	"testing"
	"time"

	"gridvo/internal/adversary"
	"gridvo/internal/assign"
	"gridvo/internal/fault"
	"gridvo/internal/xrand"
)

// withoutClock strips a result down to what a pair must reproduce bit for
// bit: everything but the wall clock and the engine pointer.
func withoutClock(res *Result) Result {
	out := *res
	out.Duration = 0
	out.Engine = nil
	out.Stats.WallTime = 0
	return out
}

// assertPairMatchesSequential runs leader then follower on one fresh
// engine, then the pair on another, and requires identical results.
func assertPairMatchesSequential(t *testing.T, sc *Scenario, leader, follower Options, seedL, seedF uint64, newEngine func() *Engine) (lead, follow *Result) {
	t.Helper()
	ctx := context.Background()
	eng := newEngine()
	leader.Engine, follower.Engine = eng, eng
	wantL, err := RunContext(ctx, sc, leader, xrand.New(seedL))
	if err != nil {
		t.Fatal(err)
	}
	wantF, err := RunContext(ctx, sc, follower, xrand.New(seedF))
	if err != nil {
		t.Fatal(err)
	}
	leader.Engine, follower.Engine = newEngine(), nil
	gotL, gotF, err := RunPairContext(ctx, sc, leader, follower, xrand.New(seedL), xrand.New(seedF))
	if err != nil {
		t.Fatal(err)
	}
	if gotL.Engine != gotF.Engine || gotL.Engine != leader.Engine {
		t.Fatal("pair runs did not share the leader's engine")
	}
	if a, b := withoutClock(gotL), withoutClock(wantL); !reflect.DeepEqual(a, b) {
		t.Errorf("leader differs from its sequential run:\npair %+v\nseq  %+v", a, b)
	}
	if a, b := withoutClock(gotF), withoutClock(wantF); !reflect.DeepEqual(a, b) {
		t.Errorf("follower differs from its sequential run:\npair %+v\nseq  %+v", a, b)
	}
	return gotL, gotF
}

// seedSolver is a stub backend whose solution depends on the warm-start
// seed, so a coalition solved from a different parent gets a different
// cost. It sleeps on the coalitions in slow, which lets a test hold one
// run back while the other races ahead.
type seedSolver struct {
	sc   *Scenario
	slow map[uint64]time.Duration
}

func (s *seedSolver) SolveCtx(_ context.Context, in *assign.Instance, opts assign.Options) assign.Solution {
	var mask uint64
	for _, row := range in.Cost {
		for g := range s.sc.Cost {
			if &s.sc.Cost[g][0] == &row[0] {
				mask |= 1 << uint(g)
			}
		}
	}
	time.Sleep(s.slow[mask])
	k, n := in.NumGSPs(), in.NumTasks()
	// The assignment depends on the membership, and the cost on the whole
	// seed, so coalitions reached from different parents cost differently.
	sol := assign.Solution{Feasible: true, Optimal: true, Assign: make([]int, n)}
	for j := range sol.Assign {
		sol.Assign[j] = (j + int(mask)) % k
	}
	sol.Cost = float64(n)
	for j, a := range opts.SeedAssign {
		sol.Cost += float64((a + 2) * (j + 1))
	}
	return sol
}

// randomPicks returns the first two GSPs a random-eviction run on the
// grand coalition 0…m-1 evicts with rng seed s.
func randomPicks(m int, s uint64) (int, int) {
	rng := xrand.New(s)
	members := make([]int, m)
	for i := range members {
		members[i] = i
	}
	a := members[rng.IntN(m)]
	rest := make([]int, 0, m-1)
	for _, g := range members {
		if g != a {
			rest = append(rest, g)
		}
	}
	return a, rest[rng.IntN(m-1)]
}

// TestRunPairFollowerWaitsForLeader forces the situation the precedence
// rule exists for: both chains reach G∖{a,b}, the leader through G∖{a},
// the follower through G∖{b}, and the leader's solve of G∖{a} is slow.
// Without the wait the follower solves G∖{a,b} first, seeded from its own
// parent, and the leader reads that entry instead of its own solve.
func TestRunPairFollowerWaitsForLeader(t *testing.T) {
	const m = 6
	sc := testScenario(41, m, 12)
	// Seeds whose random evictions cross: leader evicts a then b, the
	// follower b then a.
	var seedL, seedF uint64
	var a, b int
search:
	for sl := uint64(1); sl < 200; sl++ {
		a, b = randomPicks(m, sl)
		for sf := uint64(1); sf < 200; sf++ {
			if fb, fa := randomPicks(m, sf); fa == a && fb == b {
				seedL, seedF = sl, sf
				break search
			}
		}
	}
	if seedL == 0 {
		t.Fatal("no crossing seed pair found")
	}
	grand := uint64(1)<<m - 1
	newEngine := func() *Engine {
		eng := NewEngine(sc, assign.Options{})
		eng.SetSolver(&seedSolver{sc: sc, slow: map[uint64]time.Duration{grand &^ (1 << uint(a)): 50 * time.Millisecond}})
		return eng
	}
	opts := Options{Eviction: EvictRandom}
	assertPairMatchesSequential(t, sc, opts, opts, seedL, seedF, newEngine)
}

// TestRunPairMatchesSequential is the differential on the real solver:
// TVOF leading RVOF across scenarios and seeds, at a node budget small
// enough that solves depend on their warm-start seeds.
func TestRunPairMatchesSequential(t *testing.T) {
	for seed := uint64(1); seed <= 6; seed++ {
		sc := testScenario(50+seed, 8, 40)
		solver := assign.Options{NodeBudget: 300}
		newEngine := func() *Engine { return NewEngine(sc, solver) }
		assertPairMatchesSequential(t, sc,
			Options{Eviction: EvictLowestReputation, Solver: solver},
			Options{Eviction: EvictRandom, Solver: solver},
			seed, seed+100, newEngine)
	}
}

// TestRunPairChurnMatchesSequential: churn re-joins break the nesting the
// precedence rule relies on, so the follower waits for the whole leader
// run and the pair still equals its sequential runs.
func TestRunPairChurnMatchesSequential(t *testing.T) {
	sc := testScenario(61, 8, 32)
	churn := []adversary.ChurnEvent{{Round: 0, Leave: []int{2, 5}}, {Round: 1, Join: []int{2}}, {Round: 3, Join: []int{5}, Leave: []int{1}}}
	solver := assign.Options{NodeBudget: 2000}
	var last *Engine
	newEngine := func() *Engine { last = NewEngine(sc, solver); return last }
	assertPairMatchesSequential(t, sc,
		Options{Eviction: EvictLowestReputation, Churn: churn, Solver: solver},
		Options{Eviction: EvictRandom, Churn: churn, Solver: solver},
		3, 4, newEngine)
	if last.Stats().Reformations == 0 {
		t.Fatal("no churn round fired")
	}
}

// TestRunPairInjectorMatchesSequential: the injector's schedule is one
// stream consumed in visit order, so the follower waits for the leader
// and the faults land where the sequential runs put them.
func TestRunPairInjectorMatchesSequential(t *testing.T) {
	sc := testScenario(62, 7, 28)
	cfg := fault.Config{Seed: 3, Rate: 0.2}
	var last *Engine
	newEngine := func() *Engine {
		last = NewEngine(sc, assign.Options{NodeBudget: 2000, Inject: fault.New(cfg)})
		return last
	}
	lead, follow := assertPairMatchesSequential(t, sc,
		Options{Eviction: EvictLowestReputation},
		Options{Eviction: EvictRandom},
		5, 6, newEngine)
	if lead.Faults == 0 || follow.Faults == 0 || len(lead.Iterations) < 3 || len(follow.Iterations) < 3 {
		t.Fatalf("faults %d/%d over %d/%d iterations; want both runs several iterations deep with faults",
			lead.Faults, follow.Faults, len(lead.Iterations), len(follow.Iterations))
	}
}

func TestRunPairRejectsMismatchedEngine(t *testing.T) {
	sc := testScenario(63, 5, 20)
	other := NewEngine(sc, assign.Options{})
	if _, _, err := RunPairContext(context.Background(), sc, Options{}, Options{Engine: other}, xrand.New(1), xrand.New(2)); err == nil {
		t.Fatal("follower engine differing from the leader's accepted")
	}
}

// TestEngineStatsPerRunUnderConcurrency: runs sharing one engine at the
// same time each count only their own work, so their Stats sum to the
// engine totals exactly.
func TestEngineStatsPerRunUnderConcurrency(t *testing.T) {
	sc := testScenario(64, 8, 48)
	eng := NewEngine(sc, assign.Options{NodeBudget: 20000})
	results := make([]*Result, 4)
	var wg sync.WaitGroup
	for i := range results {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			rule := EvictRandom
			if i%2 == 0 {
				rule = EvictLowestReputation
			}
			res, err := RunContext(context.Background(), sc, Options{Eviction: rule, Engine: eng}, xrand.New(uint64(70+i)))
			if err != nil {
				t.Error(err)
				return
			}
			results[i] = res
		}(i)
	}
	wg.Wait()
	var sum EngineStats
	for _, res := range results {
		if res == nil {
			t.FailNow()
		}
		sum = sum.Add(res.Stats)
	}
	if total := eng.Stats(); sum != total {
		t.Fatalf("per-run stats sum to %+v, engine totals are %+v", sum, total)
	}
}

// TestEngineAdoptRefusesInterrupted: a handed-over solution is cached like
// the engine's own solve, unless its search was interrupted.
func TestEngineAdoptRefusesInterrupted(t *testing.T) {
	sc := testScenario(65, 5, 20)
	grand := []int{0, 1, 2, 3, 4}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	eng := NewEngine(sc, assign.Options{})
	if eng.Adopt(grand, assign.SolveCtx(ctx, sc.Instance(grand), assign.Options{})) {
		t.Fatal("interrupted solution adopted")
	}
	sol := assign.Solve(sc.Instance(grand), assign.Options{})
	if !eng.Adopt(grand, sol) {
		t.Fatal("uninterrupted solution refused")
	}
	if eng.Adopt(grand, sol) {
		t.Fatal("second adoption of a cached coalition accepted")
	}
	got := eng.SolveWithParent(context.Background(), grand, nil)
	if st := eng.Stats(); st.Solves != 0 || st.CacheHits != 1 || got.Cost != sol.Cost {
		t.Fatalf("adopted solution not served as a cache hit: stats %+v, cost %v want %v", st, got.Cost, sol.Cost)
	}
}
