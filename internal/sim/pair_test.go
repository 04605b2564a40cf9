package sim

import (
	"context"
	"fmt"
	"reflect"
	"testing"

	"gridvo/internal/adversary"
	"gridvo/internal/assign"
	"gridvo/internal/fault"
	"gridvo/internal/mechanism"
)

// pairView is what RunPairContext must reproduce bit for bit from two
// sequential runs: everything but the wall clock.
type pairView struct {
	Iterations                  []mechanism.IterationRecord
	Selected, SelectedByProduct int
	GlobalReputation            []float64
	Degraded                    bool
	Faults                      int64
	Stats                       mechanism.EngineStats
}

func viewOf(res *mechanism.Result) pairView {
	v := pairView{
		Iterations: res.Iterations, Selected: res.Selected, SelectedByProduct: res.SelectedByProduct,
		GlobalReputation: res.GlobalReputation, Degraded: res.Degraded, Faults: res.Faults, Stats: res.Stats,
	}
	v.Stats.WallTime = 0
	return v
}

// sequentialPair is the reference for Env.RunPairContext: TVOF then RVOF
// through RunContext on one fresh engine, with the same options and RNG
// streams. When adopt is set the engine first adopts an independent solve
// of the grand coalition, as the cell's engine does.
func sequentialPair(t *testing.T, e *Env, sc *mechanism.Scenario, size, rep int, adopt bool) (tvof, rvof *mechanism.Result) {
	t.Helper()
	cfg := e.Config
	eng := mechanism.NewEngine(sc, cfg.Solver)
	if adopt {
		grand := make([]int, sc.M())
		for i := range grand {
			grand[i] = i
		}
		if !eng.Adopt(grand, assign.Solve(sc.Instance(grand), cfg.Solver)) {
			t.Fatal("reference engine refused the grand-coalition solve")
		}
	}
	key := fmt.Sprintf("run-%d-%d", size, rep)
	var out [2]*mechanism.Result
	for i, rule := range []mechanism.EvictionRule{mechanism.EvictLowestReputation, mechanism.EvictRandom} {
		opts := cfg.mechanismOptions(rule)
		opts.Engine = eng
		if !cfg.Churn.IsZero() {
			events, err := cfg.Churn.Schedule(e.rng.Split(fmt.Sprintf("churn-%d-%d", size, rep)), sc.M())
			if err != nil {
				t.Fatal(err)
			}
			opts.Churn = events
		}
		res, err := mechanism.RunContext(context.Background(), sc, opts, e.rng.Split(key+"-"+rule.String()))
		if err != nil {
			t.Fatal(err)
		}
		out[i] = res
	}
	return out[0], out[1]
}

// comparePairs runs every cell of the env's grid through RunPairContext
// and through the sequential reference and requires identical views. It
// returns how many cells had the two eviction chains overlap beyond the
// grand coalition — the cells where the precedence rule decides who
// solves a coalition first — and the pairs' summed engine stats.
func comparePairs(t *testing.T, e *Env) (cells, overlapping int, stats mechanism.EngineStats) {
	t.Helper()
	for _, size := range e.Config.ProgramSizes {
		for rep := 0; rep < e.Config.Repetitions; rep++ {
			sc, _, err := e.BuildScenario(size, rep)
			if err != nil {
				t.Fatal(err)
			}
			tv, rv, err := e.RunPairContext(context.Background(), sc, size, rep)
			if err != nil {
				t.Fatal(err)
			}
			wantT, wantR := sequentialPair(t, e, sc, size, rep, true)
			if !reflect.DeepEqual(viewOf(tv), viewOf(wantT)) {
				t.Errorf("seed %d n=%d rep=%d: concurrent TVOF differs from sequential\n%+v\n%+v", e.Config.Seed, size, rep, viewOf(tv), viewOf(wantT))
			}
			if !reflect.DeepEqual(viewOf(rv), viewOf(wantR)) {
				t.Errorf("seed %d n=%d rep=%d: concurrent RVOF differs from sequential\n%+v\n%+v", e.Config.Seed, size, rep, viewOf(rv), viewOf(wantR))
			}
			cells++
			stats = stats.Add(tv.Stats).Add(rv.Stats)
			seen := map[string]bool{}
			for _, rec := range tv.Iterations[1:] {
				seen[fmt.Sprint(rec.Members)] = true
			}
			for _, rec := range rv.Iterations[1:] {
				if seen[fmt.Sprint(rec.Members)] {
					overlapping++
					break
				}
			}
		}
	}
	return cells, overlapping, stats
}

// TestRunPairMatchesSequentialRuns is the sim-level differential of the
// concurrent pair: on QuickConfig grids at a node budget small enough
// that every solve depends on its warm-start seed, the pair must equal
// TVOF then RVOF on a fresh engine in every cell, Stats included.
func TestRunPairMatchesSequentialRuns(t *testing.T) {
	var seeds []uint64
	for seed := uint64(1); seed <= 24; seed++ {
		seeds = append(seeds, seed)
	}
	if testing.Short() {
		// Two seeds whose chains overlap beyond the grand coalition in
		// four cells between them.
		seeds = []uint64{5, 19}
	}
	cells, overlapping := 0, 0
	for _, seed := range seeds {
		cfg := QuickConfig(seed)
		cfg.Solver.NodeBudget = 300
		e, err := NewEnv(cfg)
		if err != nil {
			t.Fatal(err)
		}
		c, o, _ := comparePairs(t, e)
		cells += c
		overlapping += o
	}
	t.Logf("%d cells identical, %d with chains overlapping beyond the grand coalition", cells, overlapping)
	if overlapping == 0 {
		t.Fatal("no cell exercised an overlap beyond the grand coalition")
	}
}

// TestRunPairChurnMatchesSequentialRuns: under churn the follower waits
// for the leader, and the pair still equals its sequential runs.
func TestRunPairChurnMatchesSequentialRuns(t *testing.T) {
	cfg := QuickConfig(7)
	cfg.ProgramSizes = []int{64, 128}
	cfg.Repetitions = 2
	cfg.Solver.NodeBudget = 300
	cfg.Churn = &adversary.ChurnSpec{LeaveRate: 0.2, JoinRate: 0.5}
	e, err := NewEnv(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, st := comparePairs(t, e); st.ChurnJoins == 0 || st.ChurnLeaves == 0 {
		t.Fatalf("churn fired %d joins and %d leaves; want both", st.ChurnJoins, st.ChurnLeaves)
	}
}

// TestBuildScenarioHandOffIsExact: the grand-coalition solve BuildScenario
// hands to the pair's engine changes no selection — only the counters of
// the one solve it saves.
func TestBuildScenarioHandOffIsExact(t *testing.T) {
	cfg := QuickConfig(11)
	cfg.Solver.NodeBudget = 300
	e, err := NewEnv(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, size := range cfg.ProgramSizes {
		sc, _, err := e.BuildScenario(size, 0)
		if err != nil {
			t.Fatal(err)
		}
		tv, rv, err := e.RunPairContext(context.Background(), sc, size, 0)
		if err != nil {
			t.Fatal(err)
		}
		coldT, coldR := sequentialPair(t, e, sc, size, 0, false)
		for _, p := range [][2]*mechanism.Result{{tv, coldT}, {rv, coldR}} {
			got, want := viewOf(p[0]), viewOf(p[1])
			got.Stats, want.Stats = mechanism.EngineStats{}, mechanism.EngineStats{}
			if !reflect.DeepEqual(got, want) {
				t.Errorf("n=%d: %s with the hand-off differs from a cold engine", size, p[0].Rule)
			}
		}
		if tv.Stats.Solves != coldT.Stats.Solves-1 || tv.Stats.CacheHits != coldT.Stats.CacheHits+1 {
			t.Errorf("n=%d: TVOF %d solves %d hits, cold %d solves %d hits; want one solve turned into a hit",
				size, tv.Stats.Solves, tv.Stats.CacheHits, coldT.Stats.Solves, coldT.Stats.CacheHits)
		}
		if len(e.grand) != 0 {
			t.Fatalf("n=%d: %d hand-offs left after the pair took its own", size, len(e.grand))
		}
	}
	// A scenario the pair never runs keeps one entry per cell, however
	// often the cell is rebuilt.
	for i := 0; i < 3; i++ {
		if _, _, err := e.BuildScenario(cfg.ProgramSizes[0], 1); err != nil {
			t.Fatal(err)
		}
	}
	if len(e.grand) != 1 {
		t.Fatalf("rebuilding one cell kept %d hand-offs", len(e.grand))
	}
}

// TestBuildScenarioHandOffSkipsSolverInjector: a fault injector must see
// the engine solve the grand coalition (the feasibility check never visits
// it), so BuildScenario keeps nothing and the pair solves the grand
// coalition itself, exactly as a cold engine does. The injector never
// fires here (rate 0), so the solves are the uninjected ones.
func TestBuildScenarioHandOffSkipsSolverInjector(t *testing.T) {
	cfg := QuickConfig(11)
	cfg.ProgramSizes = []int{64, 128}
	cfg.Solver.NodeBudget = 300
	cfg.Solver.Inject = fault.New(fault.Config{Seed: 1})
	e, err := NewEnv(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, size := range cfg.ProgramSizes {
		sc, _, err := e.BuildScenario(size, 0)
		if err != nil {
			t.Fatal(err)
		}
		if len(e.grand) != 0 {
			t.Fatalf("n=%d: BuildScenario kept a hand-off under a solver injector", size)
		}
		tv, rv, err := e.RunPairContext(context.Background(), sc, size, 0)
		if err != nil {
			t.Fatal(err)
		}
		coldT, coldR := sequentialPair(t, e, sc, size, 0, false)
		if !reflect.DeepEqual(viewOf(tv), viewOf(coldT)) || !reflect.DeepEqual(viewOf(rv), viewOf(coldR)) {
			t.Errorf("n=%d: pair differs from a cold engine's runs\nTVOF %+v\ncold %+v", size, viewOf(tv).Stats, viewOf(coldT).Stats)
		}
	}
	if cfg.Solver.Inject.Stats().Visits == 0 {
		t.Fatal("the solver injector was never visited")
	}
}

// TestPairUnderSolverInjectorMatchesSequential: an injector in the solver
// options makes the follower wait for the whole leader run, so the faults
// land where TVOF then RVOF puts them. Two envs with identically seeded
// injectors build the same cells; one runs each cell's pair, the other the
// sequential runs.
func TestPairUnderSolverInjectorMatchesSequential(t *testing.T) {
	newEnv := func(seed uint64) *Env {
		cfg := QuickConfig(seed)
		cfg.ProgramSizes = []int{64, 128}
		cfg.Repetitions = 2
		cfg.Solver.NodeBudget = 2000
		cfg.Solver.Inject = fault.New(fault.Config{Seed: seed, Rate: 0.4, Classes: []fault.Class{fault.Cancel}, CancelNodes: 5})
		e, err := NewEnv(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return e
	}
	var fired int64
	for seed := uint64(1); seed <= 2; seed++ {
		pe, se := newEnv(seed), newEnv(seed)
		for _, size := range pe.Config.ProgramSizes {
			for rep := 0; rep < pe.Config.Repetitions; rep++ {
				sc, _, err := pe.BuildScenario(size, rep)
				if err != nil {
					t.Fatal(err)
				}
				tv, rv, err := pe.RunPairContext(context.Background(), sc, size, rep)
				if err != nil {
					t.Fatal(err)
				}
				ssc, _, err := se.BuildScenario(size, rep)
				if err != nil {
					t.Fatal(err)
				}
				wantT, wantR := sequentialPair(t, se, ssc, size, rep, false)
				if !reflect.DeepEqual(viewOf(tv), viewOf(wantT)) || !reflect.DeepEqual(viewOf(rv), viewOf(wantR)) {
					t.Errorf("seed %d n=%d rep=%d: pair differs from the sequential runs", seed, size, rep)
				}
			}
		}
		fired += pe.Config.Solver.Inject.Stats().Fired
	}
	if fired == 0 {
		t.Fatal("the solver injector never fired")
	}
}
