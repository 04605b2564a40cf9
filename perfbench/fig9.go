package main

import (
	"context"
	"fmt"
	"runtime"
	"time"

	"gridvo/internal/mechanism"
	"gridvo/internal/reputation"
	"gridvo/internal/sim"
	"gridvo/internal/xrand"
)

// sweepResult is one pass over the Fig. 9 grid.
type sweepResult struct {
	wall        time.Duration
	fingerprint string
	// failed counts runs that failed a check.
	failed  int
	cells   int
	retries int
	// Kept by the traced replica only.
	scenarios []*mechanism.Scenario
	results   []*mechanism.Result
}

// add checks and fingerprints one cell's TVOF and RVOF results.
func (s *sweepResult) add(rep *report, fp *selectionHash, sc *mechanism.Scenario, meta sim.ScenarioMeta, tv, rv *mechanism.Result) {
	s.retries += meta.FeasibilityRetries
	s.cells++
	for _, res := range []*mechanism.Result{tv, rv} {
		if err := checkSelection(sc, res); err != nil {
			rep.checkf("n=%d rep=%d: %v", meta.ProgramSize, meta.Repetition, err)
			s.failed++
		}
		fp.run(meta.ProgramSize, meta.Repetition, res)
	}
}

// sweepPlain runs the grid the way vosim -fig 9 does: BuildScenario, then
// RunPairContext, cell by cell.
func sweepPlain(ctx context.Context, env *sim.Env, rep *report) (*sweepResult, error) {
	cfg := env.Config
	fp := newSelectionHash()
	out := &sweepResult{}
	start := time.Now()
	for _, size := range cfg.ProgramSizes {
		for r := 0; r < cfg.Repetitions; r++ {
			sc, meta, err := env.BuildScenario(size, r)
			if err != nil {
				return nil, err
			}
			tv, rv, err := env.RunPairContext(ctx, sc, size, r)
			if err != nil {
				return nil, err
			}
			out.add(rep, fp, sc, meta, tv, rv)
		}
	}
	out.wall = time.Since(start)
	out.fingerprint = fp.sum()
	return out, nil
}

// sweepTraced is sweepPlain with RunPairContext replicated from its
// parts: one NewEngine per cell with the solve recorder installed, and
// the same RNG stream names, so it must select bit-identical VOs.
// Splitting an xrand stream draws nothing from it, so the root stream
// here equals the one sim.NewEnv derives from the seed.
func sweepTraced(ctx context.Context, env *sim.Env, tr *tracer, rec *solveRecorder, rep *report) (*sweepResult, error) {
	cfg := env.Config
	root := xrand.New(cfg.Seed)
	fp := newSelectionHash()
	out := &sweepResult{}
	start := time.Now()
	sweep := tr.begin("driver.sweep", 0, 0)
	var req int64
	for _, size := range cfg.ProgramSizes {
		for r := 0; r < cfg.Repetitions; r++ {
			req++
			id := tr.begin("sim.build", sweep, req)
			sc, meta, err := env.BuildScenario(size, r)
			tr.end(id)
			if err != nil {
				return nil, err
			}
			eng := mechanism.NewEngine(sc, cfg.Solver)
			eng.SetSolver(rec)
			key := fmt.Sprintf("run-%d-%d", size, r)
			var pair [2]*mechanism.Result
			for i, rule := range []mechanism.EvictionRule{mechanism.EvictLowestReputation, mechanism.EvictRandom} {
				opts := cfg.Mechanism
				opts.Eviction = rule
				opts.Solver = cfg.Solver
				opts.Engine = eng
				pair[i], err = rec.run(ctx, sc, opts, root.Split(key+"-"+rule.String()), sweep, req)
				if err != nil {
					return nil, err
				}
			}
			out.add(rep, fp, sc, meta, pair[0], pair[1])
			out.scenarios = append(out.scenarios, sc)
			out.results = append(out.results, pair[0], pair[1])
		}
	}
	tr.end(sweep)
	out.wall = time.Since(start)
	out.fingerprint = fp.sum()
	return out, nil
}

// runFig9 is the fig9-sweep workload: the Table I grid, one closed-loop
// caller.
func runFig9(rc *runConfig, rep *report) error {
	ctx := context.Background()
	cfg := sim.DefaultConfig(rc.seed)
	cfg.ProgramSizes = append([]int(nil), rc.spec.Sizes...)
	cfg.Repetitions = rc.spec.Reps

	var env *sim.Env
	setups := make([]float64, 0, rc.setupRounds)
	for i := 0; i < rc.setupRounds; i++ {
		var err error
		d := timed(func() { env, err = sim.NewEnv(cfg) })
		if err != nil {
			return err
		}
		setups = append(setups, d.Seconds())
		runtime.GC()
	}
	limit := time.Duration(rc.spec.LatencyLimitMS * float64(time.Millisecond))

	if rc.trace {
		return traceFig9(ctx, rc, rep, env, setups)
	}
	rep.set("setup_s", median(setups))
	// Sweep while another whole sweep still fits in the run time, and at
	// least once.
	var sweeps []*sweepResult
	var recs []opRecord
	start := time.Now()
	for len(sweeps) == 0 || time.Since(start)+sweeps[len(sweeps)-1].wall <= rc.seconds {
		at := time.Since(start)
		s, err := sweepPlain(ctx, env, rep)
		if err != nil {
			return err
		}
		sweeps = append(sweeps, s)
		recs = append(recs, sweepRecord(at, s))
	}
	var walls []float64
	var fps []string
	for _, s := range sweeps {
		walls = append(walls, s.wall.Seconds())
		fps = append(fps, s.fingerprint)
	}
	checkFingerprints(rc, rep, fps)
	ls := summarize(recs, limit)
	ls.setEndToEnd(rep, time.Duration(median(walls)*float64(time.Second)))
	rep.notef("%d sweeps of %d cells; fingerprint %s", len(sweeps), sweeps[0].cells, sweeps[0].fingerprint)
	return setPeakRSS(rep)
}

// sweepRecord is one sweep as one operation of the closed loop, started
// at offset at: the caller asks for the Fig. 9 sweep and waits for all of
// it, as a vosim user does.
func sweepRecord(at time.Duration, s *sweepResult) opRecord {
	r := opRecord{due: at, sent: at, done: at + s.wall}
	if s.failed > 0 {
		r.outcome = outcomeCheck
	}
	return r
}

// checkFingerprints requires every sweep of the run to select the same
// VOs, and the default seed's sweep to match the recorded fingerprint.
func checkFingerprints(rc *runConfig, rep *report, fps []string) {
	for i, fp := range fps[1:] {
		if fp != fps[0] {
			rep.checkf("sweep %d fingerprint %s differs from sweep 0's %s", i+1, fp, fps[0])
		}
	}
	if rc.seed == rc.spec.DefaultSeed && fps[0] != rc.spec.Fingerprint {
		rep.checkf("default-seed fingerprint %s, recorded %s", fps[0], rc.spec.Fingerprint)
	}
}

// unattributedTarget is the largest share of a traced sweep that may fall
// outside every layer span (ROADMAP: stages add up to at least 95%).
const unattributedTarget = 0.05

// traceFig9 is the traced fig9-sweep run: an untraced sweep, the traced
// replica (which must select the same VOs), then probes of the heuristic
// phase, the scenario key and the global reputation.
func traceFig9(ctx context.Context, rc *runConfig, rep *report, env *sim.Env, setups []float64) error {
	rep.set("sim.env_ms", median(setups)*1e3)
	plain, err := sweepPlain(ctx, env, rep)
	if err != nil {
		return err
	}
	tr := newTracer()
	rec := &solveRecorder{tr: tr}
	traced, err := sweepTraced(ctx, env, tr, rec, rep)
	if err != nil {
		return err
	}
	//gridvolint:ignore fptaint the fingerprint strings hash selections only; the tracer's clock never reaches them
	checkFingerprints(rc, rep, []string{plain.fingerprint, traced.fingerprint})
	rep.set("trace.overhead_frac", traced.wall.Seconds()/plain.wall.Seconds()-1)
	tr.report(rep, "driver.sweep")
	if u := tr.unattributed("driver.sweep"); u > unattributedTarget {
		rep.notef("trace.unattributed_frac %.4f misses the target of %.2f", u, unattributedTarget)
	} else {
		rep.notef("trace.unattributed_frac %.4f meets the target of %.2f", u, unattributedTarget)
	}

	heur := probeHeuristics(ctx, tr, rep, rec.solves)
	reportSolves(rep, rec.solves, heur)
	reportRuns(rep, traced.results, tr.durations("mechanism.run"), sum(tr.durations("assign.solve")))
	rep.set("sim.build_ms", sum(tr.durations("sim.build")))
	rep.set("sim.feasibility_retries", float64(traced.retries))

	var keyUS, globalMS, iters []float64
	probe := tr.begin("driver.probe", 0, 0)
	for _, sc := range traced.scenarios {
		id := tr.begin("mechanism.scenario_key", probe, 0)
		mechanism.ScenarioKey(sc)
		tr.end(id)
		keyUS = append(keyUS, tr.spanMS(id)*1e3)
		id = tr.begin("reputation.global", probe, 0)
		_, diag, err := reputation.Global(sc.Trust, reputation.DefaultOptions())
		tr.end(id)
		if err != nil {
			return err
		}
		globalMS = append(globalMS, tr.spanMS(id))
		iters = append(iters, float64(diag.Iterations))
	}
	tr.end(probe)
	rep.set("mechanism.scenario_key_us", median(keyUS))
	rep.set("reputation.global_ms", mean(globalMS))
	rep.set("reputation.iters", mean(iters))

	s := summarize([]opRecord{sweepRecord(0, traced)}, time.Duration(rc.spec.LatencyLimitMS*float64(time.Millisecond)))
	s.setDriver(rep)
	rep.notef("fingerprint %s (untraced) %s (traced); traced sweep %.2fs vs untraced %.2fs",
		plain.fingerprint, traced.fingerprint, traced.wall.Seconds(), plain.wall.Seconds())
	return finishTrace(tr, rep, rc.name, rc.seed)
}
