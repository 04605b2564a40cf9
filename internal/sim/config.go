package sim

import (
	"context"
	"fmt"
	"runtime"
	"sync"

	"gridvo/internal/adversary"
	"gridvo/internal/assign"
	"gridvo/internal/grid"
	"gridvo/internal/mechanism"
	"gridvo/internal/swf"
	"gridvo/internal/trust"
	"gridvo/internal/workload"
	"gridvo/internal/xrand"
)

// Config holds the experimental setup of Section IV-A. DefaultConfig
// matches Table I.
type Config struct {
	// Seed is the root seed; every stochastic component derives its own
	// stream from it, so a Config is fully reproducible.
	Seed uint64
	// NumGSPs is m (Table I: 16).
	NumGSPs int
	// TrustEdgeProb is the Erdős–Rényi p (Table I: 0.1).
	TrustEdgeProb float64
	// TrustMeanDegree, when positive, switches trust-graph generation to
	// the O(nnz) sparse Erdős–Rényi sampler with the given expected
	// out-degree, overriding TrustEdgeProb. This is the knob for scaling
	// experiments far beyond the paper's 16 GSPs.
	TrustMeanDegree float64
	// ProgramSizes are the task counts of the experiment programs
	// (Section IV-A: 256…8192).
	ProgramSizes []int
	// Repetitions is the number of independent runs averaged per point
	// (Section IV-B: 10).
	Repetitions int
	// Trace supplies the jobs; nil generates the synthetic Atlas trace.
	Trace *swf.Trace
	// TraceJobs bounds the synthetic trace size when Trace is nil (0
	// selects the full 43,778; experiments only need the large completed
	// jobs, so harness runs use a smaller default for speed).
	TraceJobs int
	// Solver configures the assignment solver for all mechanism runs. Its
	// Inject is the runs' fault injector; scenario generation never
	// visits it.
	Solver assign.Options
	// Mechanism carries the remaining mechanism options (eviction rule
	// is set per run by the harness).
	Mechanism mechanism.Options
	// Adversary, when non-zero, rewrites every generated scenario with the
	// attack model after feasibility is established (attacks only ever add
	// capacity — sybil twins — or rewrite trust, so the grand coalition
	// stays feasible). A nil or zero-Size spec leaves generation bitwise
	// identical to the honest path. Composes with fault injection: the
	// chaos sweep then runs on adversarial graphs.
	Adversary *adversary.Spec
	// Churn, when non-zero, draws one churn schedule per scenario cell
	// and applies it to both mechanism runs: GSPs leave and re-join the
	// forming VO between eviction rounds.
	Churn *adversary.ChurnSpec
}

// mechanismOptions returns the options of one mechanism run under rule:
// Mechanism with the eviction rule and the configured solver.
func (c Config) mechanismOptions(rule mechanism.EvictionRule) mechanism.Options {
	opts := c.Mechanism
	opts.Eviction = rule
	opts.Solver = c.Solver
	return opts
}

// DefaultConfig returns the Table I setup.
func DefaultConfig(seed uint64) Config {
	return Config{
		Seed:          seed,
		NumGSPs:       grid.DefaultNumGSPs,
		TrustEdgeProb: 0.1,
		ProgramSizes:  []int{256, 512, 1024, 2048, 4096, 8192},
		Repetitions:   10,
	}
}

// maxFeasibilityRetries bounds deadline/payment resampling when the grand
// coalition is infeasible ("the values for deadline and payment were
// generated in such a way that there exists a feasible solution in each
// experiment").
const maxFeasibilityRetries = 64

// QuickConfig returns a reduced setup (small programs, few repetitions)
// for tests and smoke runs.
func QuickConfig(seed uint64) Config {
	c := DefaultConfig(seed)
	c.ProgramSizes = []int{64, 128, 256}
	c.Repetitions = 3
	c.TraceJobs = 4000
	return c
}

// Env bundles the immutable experiment inputs derived from a Config: the
// workload catalog and the root RNG.
type Env struct {
	Config  Config
	Catalog *workload.Catalog
	rng     *xrand.RNG

	// grand holds, per (size, rep) cell, the grand-coalition solution
	// BuildScenario's feasibility check found, until RunPairContext hands
	// it to the cell's engine. A cell rebuilt replaces its entry, so the
	// map never outgrows the cells built.
	grandMu sync.Mutex
	grand   map[[2]int]grandSolve
}

// grandSolve is one cell's feasibility solve of the grand coalition of sc.
type grandSolve struct {
	sc      *mechanism.Scenario
	members []int
	sol     assign.Solution
}

// NewEnv prepares the experiment environment: it generates (or adopts) the
// trace and indexes the eligible jobs.
func NewEnv(cfg Config) (*Env, error) {
	if cfg.NumGSPs <= 0 {
		return nil, fmt.Errorf("sim: NumGSPs = %d", cfg.NumGSPs)
	}
	if cfg.Repetitions <= 0 {
		return nil, fmt.Errorf("sim: Repetitions = %d", cfg.Repetitions)
	}
	rng := xrand.New(cfg.Seed)
	tr := cfg.Trace
	if tr == nil {
		genOpts := swf.GenOptions{NumJobs: cfg.TraceJobs}
		// Guarantee supply for the configured program sizes.
		genOpts.GuaranteeSizes = append([]int(nil), cfg.ProgramSizes...)
		genOpts.MinPerSize = cfg.Repetitions + 4
		tr = swf.GenerateAtlas(rng.Split("trace"), genOpts)
	}
	cat := workload.NewCatalog(tr, 0, 0)
	for _, size := range cfg.ProgramSizes {
		if cat.Count(size) == 0 {
			return nil, fmt.Errorf("sim: trace has no eligible job with %d processors", size)
		}
	}
	return &Env{Config: cfg, Catalog: cat, rng: rng, grand: map[[2]int]grandSolve{}}, nil
}

// ScenarioMeta records how a scenario was generated.
type ScenarioMeta struct {
	ProgramSize        int
	Repetition         int
	FeasibilityRetries int
	// DeadlineEscalations counts how many ×1.5 deadline widenings were
	// needed beyond the Table I band. Zero for faithful Table I
	// scenarios; positive values occur for program sizes below the
	// paper's 256-task minimum, where the d ∝ n/1000 band is too tight
	// for any assignment (the paper guarantees feasibility only for its
	// own sizes).
	DeadlineEscalations int
}

// BuildScenario generates one complete scenario for a (program size,
// repetition) pair: program from the catalog, GSPs, Braun cost matrix,
// consistent time matrix, Erdős–Rényi trust graph, and Table I deadline /
// payment resampled until the grand coalition is feasible.
//
// The last feasibility check solved the grand coalition with the very
// instance and solver options a fresh engine's first solve uses, so
// BuildScenario keeps that solution for RunPairContext on the same
// scenario, which then solves the grand coalition zero times instead of
// once. Scenarios an adversary rewrote, and configs that hand nothing off
// (see handsOffGrand), keep nothing.
func (e *Env) BuildScenario(size, rep int) (*mechanism.Scenario, ScenarioMeta, error) {
	sc, meta, grand, err := e.buildScenario(size, rep)
	if err != nil {
		return nil, meta, err
	}
	if grand != nil && e.Config.handsOffGrand() {
		e.grandMu.Lock()
		e.grand[[2]int{size, rep}] = *grand
		e.grandMu.Unlock()
	}
	return sc, meta, nil
}

// injected reports whether the config installs a fault injector.
func (c *Config) injected() bool { return c.Solver.Inject != nil }

// handsOffGrand reports whether an engine may start from the grand
// coalition the feasibility check solved. A fault injector must see the
// engine solve it (the feasibility check never visits the injector), and
// a solver seed is not the feasibility check's, so neither hands it over.
func (c *Config) handsOffGrand() bool {
	return !c.injected() && c.Solver.SeedAssign == nil
}

// takeGrand removes and returns the grand-coalition solve BuildScenario
// kept for the cell, if it was kept for sc.
func (e *Env) takeGrand(sc *mechanism.Scenario, size, rep int) (grandSolve, bool) {
	e.grandMu.Lock()
	defer e.grandMu.Unlock()
	g, ok := e.grand[[2]int{size, rep}]
	delete(e.grand, [2]int{size, rep})
	return g, ok && g.sc == sc
}

// buildScenario is BuildScenario without keeping the grand-coalition
// solve, which it returns instead (nil when the scenario it returns is
// not the one that solve was for). Callers that never pair use it.
func (e *Env) buildScenario(size, rep int) (*mechanism.Scenario, ScenarioMeta, *grandSolve, error) {
	cfg := e.Config
	rng := e.rng.Split(fmt.Sprintf("scenario-%d-%d", size, rep))
	prog, err := e.Catalog.Pick(rng.Split("prog"), size, fmt.Sprintf("n%d-r%d", size, rep))
	if err != nil {
		return nil, ScenarioMeta{}, nil, err
	}
	gsps := grid.GenerateGSPs(rng.Split("gsps"), cfg.NumGSPs)
	cost := grid.CostMatrix(rng.Split("cost"), cfg.NumGSPs, prog)
	tm := grid.TimeMatrix(gsps, prog)
	var tg *trust.Graph
	if cfg.TrustMeanDegree > 0 {
		tg = trust.SparseErdosRenyi(rng.Split("trust"), cfg.NumGSPs, cfg.TrustMeanDegree)
	} else {
		tg = trust.ErdosRenyi(rng.Split("trust"), cfg.NumGSPs, cfg.TrustEdgeProb)
	}

	sc := &mechanism.Scenario{
		Program: prog, GSPs: gsps, Cost: cost, Time: tm, Trust: tg,
	}
	meta := ScenarioMeta{ProgramSize: size, Repetition: rep}

	// Resample deadline/payment until the grand coalition is feasible,
	// mirroring the paper's guarantee. Every pair is drawn up front (the
	// "dp" stream feeds nothing else, so attempt a draws the same pair
	// however the attempts are scheduled), and the attempts are solved
	// two at a time when a second core can take them (see firstFeasible).
	grand := make([]int, cfg.NumGSPs)
	for i := range grand {
		grand[i] = i
	}
	base := sc.Instance(grand)
	var deadlines, payments [maxFeasibilityRetries]float64
	dpRNG := rng.Split("dp")
	for a := range deadlines {
		deadlines[a] = grid.Deadline(dpRNG, prog)
		payments[a] = grid.Payment(dpRNG, prog.N())
	}
	// The feasibility check is scenario generation, not a mechanism run:
	// it never visits the injector.
	opts := cfg.Solver
	opts.Inject = nil
	speculate := runtime.GOMAXPROCS(0) > 1
	solve := func(ctx context.Context, d, p float64) assign.Solution {
		in := *base
		in.Deadline, in.Budget = d, p
		return assign.SolveCtx(ctx, &in, opts)
	}
	if a, sol, ok := firstFeasible(maxFeasibilityRetries, speculate, func(ctx context.Context, a int) assign.Solution {
		return solve(ctx, deadlines[a], payments[a])
	}); ok {
		sc.Deadline, sc.Payment = deadlines[a], payments[a]
		meta.FeasibilityRetries = a
		return e.finishScenario(sc, meta, rng, grand, sol)
	}
	// The Table I band admits no feasible mapping (possible for program
	// sizes below the paper's 256-task minimum): widen the deadline
	// multiplicatively until one exists, recording the deviation.
	const maxEscalations = 32
	var widened [maxEscalations]float64
	d := grid.MaxDeadlineFactor * prog.BaseRuntimeSec * float64(prog.N()) / 1000
	for i := range widened {
		d *= 1.5
		widened[i] = d
	}
	pay := grid.MaxPaymentFactor * grid.MaxCost * float64(prog.N())
	if i, sol, ok := firstFeasible(maxEscalations, speculate, func(ctx context.Context, i int) assign.Solution {
		return solve(ctx, widened[i], pay)
	}); ok {
		sc.Deadline, sc.Payment = widened[i], pay
		meta.FeasibilityRetries = maxFeasibilityRetries
		meta.DeadlineEscalations = i + 1
		return e.finishScenario(sc, meta, rng, grand, sol)
	}
	return nil, meta, nil, fmt.Errorf("sim: no feasible deadline/payment for n=%d rep=%d after %d retries and escalation",
		size, rep, maxFeasibilityRetries)
}

// firstFeasible solves attempts 0…count−1 in order and returns the first
// feasible one with its solution. With speculate it solves attempt a+1 on a
// second goroutine while attempt a runs, and cancels a+1 when a is
// feasible. An uncancelled solve is deterministic, and a cancelled one is
// never returned, so the attempt and the solution returned are the
// sequential loop's; only the wall time differs.
func firstFeasible(count int, speculate bool, solve func(ctx context.Context, a int) assign.Solution) (int, assign.Solution, bool) {
	for a := 0; a < count; a++ {
		if !speculate || a+1 == count {
			if sol := solve(context.Background(), a); sol.Feasible {
				return a, sol, true
			}
			continue
		}
		b := a + 1
		ctx, cancel := context.WithCancel(context.Background())
		next := make(chan assign.Solution, 1)
		go func() { next <- solve(ctx, b) }()
		sol := solve(context.Background(), a)
		if sol.Feasible {
			cancel()
			<-next
			return a, sol, true
		}
		sol = <-next
		cancel()
		if sol.Feasible {
			return b, sol, true
		}
		a = b
	}
	return 0, assign.Solution{}, false
}

// finishScenario applies the configured adversary to a freshly generated
// scenario. The attack runs AFTER feasibility resampling, on the scenario
// stream's "adversary" child — which, because Split consumes no parent
// randomness, is the same stream however many deadline/payment attempts
// the honest generation needed. A zero spec returns the honest scenario
// untouched, drawing nothing, so honest and zero-attack generation are
// bitwise identical. grand and sol are the feasibility solve of the honest
// scenario, returned only when that is the scenario returned.
func (e *Env) finishScenario(sc *mechanism.Scenario, meta ScenarioMeta, rng *xrand.RNG, grand []int, sol assign.Solution) (*mechanism.Scenario, ScenarioMeta, *grandSolve, error) {
	if e.Config.Adversary.IsZero() {
		return sc, meta, &grandSolve{sc: sc, members: grand, sol: sol}, nil
	}
	adv, _, err := mechanism.ApplyAdversary(sc, e.Config.Adversary, rng.Split("adversary"))
	if err != nil {
		return nil, meta, nil, err
	}
	return adv, meta, nil, nil
}

// RunPairContext executes TVOF and RVOF on the same scenario with split
// RNG streams, as the paper's comparisons do, honoring ctx. Both runs
// share one solve engine for the scenario and run concurrently under
// mechanism.RunPairContext, with results identical to TVOF then RVOF:
// coalitions TVOF solves (plus any eviction-chain overlap) are cache hits
// for RVOF rather than repeated IP solves. When sc came from this Env's
// BuildScenario, the grand coalition it solved is handed to the engine,
// so neither run solves it again.
func (e *Env) RunPairContext(ctx context.Context, sc *mechanism.Scenario, size, rep int) (tvof, rvof *mechanism.Result, err error) {
	cfg := e.Config
	eng := mechanism.NewEngine(sc, cfg.Solver)
	if g, ok := e.takeGrand(sc, size, rep); ok {
		eng.Adopt(g.members, g.sol)
	}
	optsT := cfg.mechanismOptions(mechanism.EvictLowestReputation)
	optsT.Engine = eng
	optsR := cfg.mechanismOptions(mechanism.EvictRandom)
	optsR.Engine = eng
	if !cfg.Churn.IsZero() {
		// One schedule per scenario cell, shared by both rules so they
		// face the same membership dynamics.
		events, err := cfg.Churn.Schedule(e.rng.Split(fmt.Sprintf("churn-%d-%d", size, rep)), sc.M())
		if err != nil {
			return nil, nil, err
		}
		optsT.Churn = events
		optsR.Churn = events
	}
	key := fmt.Sprintf("run-%d-%d", size, rep)
	return mechanism.RunPairContext(ctx, sc, optsT, optsR, e.rng.Split(key+"-tvof"), e.rng.Split(key+"-rvof"))
}
