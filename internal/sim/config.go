package sim

import (
	"context"
	"fmt"

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
	// MaxFeasibilityRetries bounds deadline/payment resampling when the
	// grand coalition is infeasible ("the values for deadline and
	// payment were generated in such a way that there exists a feasible
	// solution in each experiment").
	MaxFeasibilityRetries int
	// Trace supplies the jobs; nil generates the synthetic Atlas trace.
	Trace *swf.Trace
	// TraceJobs bounds the synthetic trace size when Trace is nil (0
	// selects the full 43,778; experiments only need the large completed
	// jobs, so harness runs use a smaller default for speed).
	TraceJobs int
	// Solver configures the assignment solver for all mechanism runs.
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

// DefaultConfig returns the Table I setup.
func DefaultConfig(seed uint64) Config {
	return Config{
		Seed:                  seed,
		NumGSPs:               grid.DefaultNumGSPs,
		TrustEdgeProb:         0.1,
		ProgramSizes:          []int{256, 512, 1024, 2048, 4096, 8192},
		Repetitions:           10,
		MaxFeasibilityRetries: 64,
	}
}

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
	return &Env{Config: cfg, Catalog: cat, rng: rng}, nil
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
func (e *Env) BuildScenario(size, rep int) (*mechanism.Scenario, ScenarioMeta, error) {
	cfg := e.Config
	rng := e.rng.Split(fmt.Sprintf("scenario-%d-%d", size, rep))
	prog, err := e.Catalog.Pick(rng.Split("prog"), size, fmt.Sprintf("n%d-r%d", size, rep))
	if err != nil {
		return nil, ScenarioMeta{}, err
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
	// mirroring the paper's guarantee.
	grand := make([]int, cfg.NumGSPs)
	for i := range grand {
		grand[i] = i
	}
	dpRNG := rng.Split("dp")
	retries := cfg.MaxFeasibilityRetries
	if retries <= 0 {
		retries = 64
	}
	for attempt := 0; attempt < retries; attempt++ {
		sc.Deadline = grid.Deadline(dpRNG, prog)
		sc.Payment = grid.Payment(dpRNG, prog.N())
		sol := assign.Solve(sc.Instance(grand), cfg.Solver)
		if sol.Feasible {
			meta.FeasibilityRetries = attempt
			return e.finishScenario(sc, meta, rng)
		}
	}
	// The Table I band admits no feasible mapping (possible for program
	// sizes below the paper's 256-task minimum): widen the deadline
	// multiplicatively until one exists, recording the deviation.
	sc.Deadline = grid.MaxDeadlineFactor * prog.BaseRuntimeSec * float64(prog.N()) / 1000
	sc.Payment = grid.MaxPaymentFactor * grid.MaxCost * float64(prog.N())
	for esc := 1; esc <= 32; esc++ {
		sc.Deadline *= 1.5
		sol := assign.Solve(sc.Instance(grand), cfg.Solver)
		if sol.Feasible {
			meta.FeasibilityRetries = retries
			meta.DeadlineEscalations = esc
			return e.finishScenario(sc, meta, rng)
		}
	}
	return nil, meta, fmt.Errorf("sim: no feasible deadline/payment for n=%d rep=%d after %d retries and escalation",
		size, rep, retries)
}

// finishScenario applies the configured adversary to a freshly generated
// scenario. The attack runs AFTER feasibility resampling, on the scenario
// stream's "adversary" child — which, because Split consumes no parent
// randomness, is the same stream however many deadline/payment attempts
// the honest generation needed. A zero spec returns the honest scenario
// untouched, drawing nothing, so honest and zero-attack generation are
// bitwise identical.
func (e *Env) finishScenario(sc *mechanism.Scenario, meta ScenarioMeta, rng *xrand.RNG) (*mechanism.Scenario, ScenarioMeta, error) {
	if e.Config.Adversary.IsZero() {
		return sc, meta, nil
	}
	adv, _, err := mechanism.ApplyAdversary(sc, e.Config.Adversary, rng.Split("adversary"))
	if err != nil {
		return nil, meta, err
	}
	return adv, meta, nil
}

// RunPair executes TVOF and RVOF on the same scenario with split RNG
// streams, as the paper's comparisons do. It is RunPairContext with a
// background context.
func (e *Env) RunPair(sc *mechanism.Scenario, size, rep int) (tvof, rvof *mechanism.Result, err error) {
	return e.RunPairContext(context.Background(), sc, size, rep)
}

// RunPairContext is RunPair honoring ctx. Both runs share one solve
// engine for the scenario, so coalitions TVOF already solved (the grand
// coalition above all, plus any eviction-chain overlap) are cache hits
// for RVOF rather than repeated IP solves.
func (e *Env) RunPairContext(ctx context.Context, sc *mechanism.Scenario, size, rep int) (tvof, rvof *mechanism.Result, err error) {
	cfg := e.Config
	eng := mechanism.NewEngine(sc, cfg.Solver)
	optsT := cfg.Mechanism
	optsT.Eviction = mechanism.EvictLowestReputation
	optsT.Solver = cfg.Solver
	optsT.Engine = eng
	optsR := cfg.Mechanism
	optsR.Eviction = mechanism.EvictRandom
	optsR.Solver = cfg.Solver
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
	tvof, err = mechanism.RunContext(ctx, sc, optsT, e.rng.Split(key+"-tvof"))
	if err != nil {
		return nil, nil, err
	}
	rvof, err = mechanism.RunContext(ctx, sc, optsR, e.rng.Split(key+"-rvof"))
	if err != nil {
		return nil, nil, err
	}
	return tvof, rvof, nil
}

// ScenarioTightness reports how far a scenario's deadline sits above the
// minimum achievable makespan of the grand coalition
// (deadline / R||C_max lower bound): 1.0 is the feasibility edge, large
// values mean a loose deadline. Experiment reports use it to characterize
// how binding constraint (11) was for a generated scenario.
func ScenarioTightness(sc *mechanism.Scenario, solver assign.Options) float64 {
	grand := make([]int, sc.M())
	for i := range grand {
		grand[i] = i
	}
	return assign.DeadlineTightness(sc.Instance(grand), solver)
}
