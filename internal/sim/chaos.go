package sim

import (
	"context"
	"fmt"
	"math"

	"gridvo/internal/assign"
	"gridvo/internal/fault"
	"gridvo/internal/mechanism"
)

// This file implements the chaos sweep: the full TVOF/RVOF experiment grid
// executed under deterministic fault injection, with every mechanism-level
// invariant of the paper checked on every iteration record:
//
//   - every feasible VO's task assignment satisfies all IP constraints
//     (eqs. 10-14), verified independently of the solver;
//   - v(C) ≥ 0 for every reported value (eq. 15 with the mechanism's
//     non-negativity clamp);
//   - the equal payoff shares sum back to v(C) (eq. 18).
//
// The sweep is sequential by construction — the injector's fault schedule
// is a pure function of its seed and the order of solve visits — so two
// sweeps from identical (config seed, fault seed, rate) must produce
// bit-identical results. ChaosReport.Fingerprint folds every selection,
// payoff bit pattern, and injector counter into one FNV-1a hash so callers
// (cmd/vosim -chaos) can assert that reproducibility cheaply.

// ChaosViolation describes one broken invariant found during a chaos sweep.
type ChaosViolation struct {
	// Size / Rep / Rule locate the run; Iteration indexes its eviction
	// trace (-1 for run-level violations).
	Size      int
	Rep       int
	Rule      string
	Iteration int
	// Detail is the human-readable description of the violation.
	Detail string
}

func (v ChaosViolation) String() string {
	return fmt.Sprintf("n=%d rep=%d %s it=%d: %s", v.Size, v.Rep, v.Rule, v.Iteration, v.Detail)
}

// ChaosReport is the outcome of one chaos sweep.
type ChaosReport struct {
	// Cells is the number of (program size, repetition) scenario cells
	// completed; Runs counts mechanism runs (2 per cell: TVOF and RVOF).
	Cells int
	Runs  int
	// DegradedRuns counts runs that fell below the exact tier; FeasibleRuns
	// counts runs that still returned a feasible VO.
	DegradedRuns int
	FeasibleRuns int
	// FaultStats are the injector's counters after the sweep.
	FaultStats fault.Stats
	// Fingerprint is an FNV-1a hash over every run's selection, the bit
	// patterns of its payoff/value/cost, and the injector counters. Two
	// sweeps with identical seeds must produce identical fingerprints.
	Fingerprint uint64
	// Violations lists every broken invariant (empty on a healthy sweep).
	Violations []ChaosViolation
}

// ChaosSweep runs the experiment grid sequentially under fault injection
// and checks the mechanism invariants on every run. The injection config
// fcfg seeds a fresh injector shared by the whole sweep; it replaces
// cfg.Solver.Inject, so every cell's engine carries it to all four hook
// points. Returns an error only for setup or scenario-generation failures
// — invariant violations are reported in the result, not as errors, so
// callers can print them all.
func ChaosSweep(ctx context.Context, cfg Config, fcfg fault.Config, progress func(string)) (*ChaosReport, error) {
	inj := fault.New(fcfg)
	cfg.Solver.Inject = inj
	// Keep every feasible iteration's assignment so each can be verified
	// against the IP constraints, not just the selected VO's.
	cfg.Mechanism.KeepAssignments = true

	env, err := NewEnv(cfg)
	if err != nil {
		return nil, err
	}
	rep := &ChaosReport{}
	fp := newFingerprint()

	for _, size := range cfg.ProgramSizes {
		for r := 0; r < cfg.Repetitions; r++ {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
			sc, _, err := env.BuildScenario(size, r)
			if err != nil {
				return nil, err
			}
			tvof, rvof, err := env.RunPairContext(ctx, sc, size, r)
			if err != nil {
				return nil, err
			}
			rep.checkRun(sc, size, r, tvof, fp)
			rep.checkRun(sc, size, r, rvof, fp)
			rep.Cells++
			if progress != nil {
				progress(fmt.Sprintf("chaos n=%d rep=%d: faults fired %d, violations %d",
					size, r, inj.Stats().Fired, len(rep.Violations)))
			}
		}
	}

	rep.FaultStats = inj.Stats()
	fp.u64(uint64(rep.FaultStats.Visits))
	fp.u64(uint64(rep.FaultStats.Fired))
	for _, c := range rep.FaultStats.PerClass {
		fp.u64(uint64(c))
	}
	rep.Fingerprint = fp.sum()
	return rep, nil
}

// checkRun folds one mechanism run into the report: invariant checks on
// every iteration record and the run's contribution to the fingerprint.
func (rep *ChaosReport) checkRun(sc *mechanism.Scenario, size, r int, res *mechanism.Result, fp *fingerprint) {
	rule := res.Rule.String()
	fail := func(it int, format string, args ...any) {
		rep.Violations = append(rep.Violations, ChaosViolation{
			Size: size, Rep: r, Rule: rule, Iteration: it,
			Detail: fmt.Sprintf(format, args...),
		})
	}

	rep.Runs++
	if res.Degraded {
		rep.DegradedRuns++
	}
	for i := range res.Iterations {
		rec := &res.Iterations[i]
		if !rec.Feasible {
			continue
		}
		// eq. 15: the mechanism only reports non-negative coalition values.
		if rec.Value < -1e-6 {
			fail(i, "negative value v(C) = %g", rec.Value)
		}
		// eq. 18: the |C| equal shares must sum back to v(C).
		if sum := rec.Payoff * float64(len(rec.Members)); math.Abs(sum-rec.Value) > 1e-6*(1+math.Abs(rec.Value)) {
			fail(i, "payoff shares sum %g != value %g", sum, rec.Value)
		}
		// eqs. 10-14: the kept assignment must satisfy every IP constraint
		// on the coalition's own instance — degraded or not.
		if rec.Assignment == nil {
			fail(i, "feasible iteration kept no assignment")
		} else if err := assign.Verify(sc.Instance(rec.Members), rec.Assignment); err != nil {
			fail(i, "assignment violates IP constraints: %v", err)
		}
	}
	if f := res.Final(); f != nil {
		rep.FeasibleRuns++
		if !f.Feasible {
			fail(res.Selected, "selected VO is not feasible")
		}
	}

	// Fingerprint: selection, members, and exact float bit patterns.
	fp.u64(uint64(int64(res.Selected)))
	fp.u64(uint64(len(res.Iterations)))
	if f := res.Final(); f != nil {
		for _, g := range f.Members {
			fp.u64(uint64(int64(g)))
		}
		fp.f64(f.Payoff)
		fp.f64(f.Value)
		fp.f64(f.Cost)
		fp.f64(f.AvgReputation)
	}
	fp.u64(uint64(res.Faults))
	if res.Degraded {
		fp.u64(1)
	} else {
		fp.u64(0)
	}
}

// fingerprint is an incremental 64-bit FNV-1a hash.
type fingerprint struct{ h uint64 }

func newFingerprint() *fingerprint { return &fingerprint{h: 14695981039346656037} }

func (f *fingerprint) u64(v uint64) {
	for i := 0; i < 8; i++ {
		f.h ^= v & 0xff
		f.h *= 1099511628211
		v >>= 8
	}
}

func (f *fingerprint) f64(v float64) { f.u64(math.Float64bits(v)) }

func (f *fingerprint) sum() uint64 { return f.h }
