package sim

import (
	"context"
	"fmt"

	"gridvo/internal/adversary"
	"gridvo/internal/mechanism"
	"gridvo/internal/tablewriter"
)

// This file implements the robustness sweep: the TVOF experiment grid run
// twice per scenario cell — once on the honest scenario, once on its
// adversarial transform (attack model and/or churn schedule) — with the
// degradation measured cell by cell. Both runs draw their mechanism
// randomness from the SAME derived stream and the adversary draws only
// from its own dedicated child stream, so a zero-strength attack produces
// a bitwise-identical run: identical selections, identical reputation
// vectors, identical fingerprints. That identity is the sweep's anchor —
// any measured degradation is attributable to the attack alone.

// RobustnessOptions select the adversarial transform under test.
type RobustnessOptions struct {
	// Attack rewrites each scenario's trust graph (nil or zero-Size = no
	// attack; see adversary.Spec).
	Attack *adversary.Spec
	// Churn schedules join/leave events between eviction rounds of the
	// adversarial run (nil or zero rates = no churn).
	Churn *adversary.ChurnSpec
}

// label names the transform for reports ("sybil", "churn", "sybil+churn",
// or "none").
func (o RobustnessOptions) label() string {
	switch {
	case !o.Attack.IsZero() && !o.Churn.IsZero():
		return o.Attack.Class + "+churn"
	case !o.Attack.IsZero():
		return o.Attack.Class
	case !o.Churn.IsZero():
		return "churn"
	default:
		return "none"
	}
}

// RobustnessCell is the honest-vs-adversarial comparison for one
// (program size, repetition) scenario.
type RobustnessCell struct {
	Size, Rep int
	// HonestValue / AdversarialValue are v(C) of the selected VO in each
	// world (0 when no feasible VO formed).
	HonestValue      float64
	AdversarialValue float64
	// ValueDelta = HonestValue − AdversarialValue: how much selected-VO
	// value the attack destroyed (negative means the attack "helped",
	// which collusion-style reputation inflation can).
	ValueDelta float64
	// Infiltration is the attacker share of the adversarial selected VO:
	// |VO ∩ attackers| / |VO|.
	Infiltration float64
	// Displacement is the fraction of the honest VO's members missing
	// from the adversarial VO: |honest \ adversarial| / |honest|.
	Displacement float64
	// Reformations counts churn-triggered mid-formation membership
	// changes in the adversarial run; ChurnJoins/ChurnLeaves the
	// individual moves; WarmStarts the adversarial run's seeded IP solves
	// (re-formation resumes warm, not cold).
	Reformations int64
	ChurnJoins   int64
	ChurnLeaves  int64
	WarmStarts   int64
}

// RobustnessReport aggregates a sweep.
type RobustnessReport struct {
	// Class labels the transform ("collusion", "churn", "sybil+churn", …).
	Class string
	Cells []RobustnessCell
	// Mean degradation metrics over all cells.
	MeanValueDelta   float64
	MeanInfiltration float64
	MeanDisplacement float64
	// Churn totals over the adversarial runs.
	Reformations int64
	ChurnJoins   int64
	ChurnLeaves  int64
	// WarmStarts counts adversarial-run IP solves seeded from a parent
	// coalition — re-formation rounds resume warm, not cold.
	WarmStarts int64
	// HonestFingerprint / AdversarialFingerprint are FNV-1a hashes over
	// each world's selections, member sets, payoff bit patterns, and full
	// reputation vectors. Two sweeps with identical seeds must reproduce
	// both exactly; a zero-strength transform must make them equal.
	HonestFingerprint      uint64
	AdversarialFingerprint uint64
}

// RobustnessSweep runs the experiment grid honest-vs-adversarial under the
// given transform. The config's own Adversary/Churn fields are ignored —
// the sweep owns the transform so the honest baseline inside it is always
// truly honest. Scenario generation, attack application, and churn
// scheduling reuse the exact stream derivations of the Config.Adversary /
// Config.Churn pipeline, so a RobustnessSweep's adversarial world matches
// what a ChaosSweep with those fields set would see.
func RobustnessSweep(ctx context.Context, cfg Config, opts RobustnessOptions, progress func(string)) (*RobustnessReport, error) {
	if err := validateRobustness(opts); err != nil {
		return nil, err
	}
	cfg.Adversary = nil
	cfg.Churn = nil
	env, err := NewEnv(cfg)
	if err != nil {
		return nil, err
	}
	rep := &RobustnessReport{Class: opts.label()}
	fpH, fpA := newFingerprint(), newFingerprint()

	for _, size := range cfg.ProgramSizes {
		for r := 0; r < cfg.Repetitions; r++ {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
			cell, err := env.robustnessCell(ctx, size, r, opts, fpH, fpA)
			if err != nil {
				return nil, err
			}
			rep.Cells = append(rep.Cells, *cell)
			if progress != nil {
				progress(fmt.Sprintf("robustness %s n=%d rep=%d: Δv=%.1f infiltration=%.2f displacement=%.2f",
					rep.Class, size, r, cell.ValueDelta, cell.Infiltration, cell.Displacement))
			}
		}
	}

	for i := range rep.Cells {
		c := &rep.Cells[i]
		rep.MeanValueDelta += c.ValueDelta
		rep.MeanInfiltration += c.Infiltration
		rep.MeanDisplacement += c.Displacement
		rep.Reformations += c.Reformations
		rep.ChurnJoins += c.ChurnJoins
		rep.ChurnLeaves += c.ChurnLeaves
		rep.WarmStarts += c.WarmStarts
	}
	if n := float64(len(rep.Cells)); n > 0 {
		rep.MeanValueDelta /= n
		rep.MeanInfiltration /= n
		rep.MeanDisplacement /= n
	}
	rep.HonestFingerprint = fpH.sum()
	rep.AdversarialFingerprint = fpA.sum()
	return rep, nil
}

// validateRobustness front-loads transform validation so a sweep fails
// before any scenario work rather than on the first cell.
func validateRobustness(opts RobustnessOptions) error {
	if opts.Attack != nil {
		if err := opts.Attack.Validate(); err != nil {
			return err
		}
	}
	if opts.Churn != nil {
		if err := opts.Churn.Validate(); err != nil {
			return err
		}
	}
	return nil
}

// robustnessCell runs one honest-vs-adversarial comparison. Stream
// discipline is the whole game here:
//
//   - the adversary draws from the scenario stream's "adversary" child —
//     the same derivation Config.Adversary uses in finishScenario;
//   - the churn schedule draws from the "churn-size-rep" stream — the
//     same derivation RunPairContext uses for Config.Churn;
//   - both mechanism runs draw from streams split with the same
//     "run-size-rep-tvof" label, which yields two independent RNG objects
//     with identical states.
//
// Splitting consumes no parent randomness, so none of these derivations
// perturb each other, and a zero transform leaves the adversarial run
// consuming exactly the honest run's draw sequence.
func (e *Env) robustnessCell(ctx context.Context, size, r int, opts RobustnessOptions, fpH, fpA *fingerprint) (*RobustnessCell, error) {
	cfg := e.Config
	sc, _, grand, err := e.buildScenario(size, r)
	if err != nil {
		return nil, err
	}
	scRNG := e.rng.Split(fmt.Sprintf("scenario-%d-%d", size, r))
	advSc, advRep, err := mechanism.ApplyAdversary(sc, opts.Attack, scRNG.Split("adversary"))
	if err != nil {
		return nil, err
	}
	var churn []adversary.ChurnEvent
	if !opts.Churn.IsZero() {
		churn, err = opts.Churn.Schedule(e.rng.Split(fmt.Sprintf("churn-%d-%d", size, r)), advSc.M())
		if err != nil {
			return nil, err
		}
	}

	runTVOF := func(sc *mechanism.Scenario, churn []adversary.ChurnEvent, eng *mechanism.Engine) (*mechanism.Result, error) {
		mopts := cfg.mechanismOptions(mechanism.EvictLowestReputation)
		mopts.Engine = eng
		mopts.Churn = churn
		return mechanism.RunContext(ctx, sc, mopts, e.rng.Split(fmt.Sprintf("run-%d-%d-tvof", size, r)))
	}
	// The honest run's engine starts from the grand coalition the
	// feasibility check solved, as RunPairContext's does.
	var honestEng *mechanism.Engine
	if grand != nil && cfg.handsOffGrand() {
		honestEng = mechanism.NewEngine(sc, cfg.Solver)
		honestEng.Adopt(grand.members, grand.sol)
	}
	// The two worlds share no engine and no state, so they run at once,
	// unless a shared fault injector would see their solves interleave.
	var hres, ares *mechanism.Result
	var herr, aerr error
	if cfg.injected() {
		hres, herr = runTVOF(sc, nil, honestEng)
		if herr == nil {
			ares, aerr = runTVOF(advSc, churn, nil)
		}
	} else {
		done := make(chan struct{})
		go func() {
			defer close(done)
			ares, aerr = runTVOF(advSc, churn, nil)
		}()
		hres, herr = runTVOF(sc, nil, honestEng)
		<-done
	}
	if herr != nil {
		return nil, herr
	}
	if aerr != nil {
		return nil, aerr
	}
	foldResult(fpH, hres)
	foldResult(fpA, ares)

	cell := &RobustnessCell{
		Size: size, Rep: r,
		Reformations: ares.Stats.Reformations,
		ChurnJoins:   ares.Stats.ChurnJoins,
		ChurnLeaves:  ares.Stats.ChurnLeaves,
		WarmStarts:   ares.Stats.WarmStarts,
	}
	if f := hres.Final(); f != nil {
		cell.HonestValue = f.Value
	}
	if f := ares.Final(); f != nil {
		cell.AdversarialValue = f.Value
		isAttacker := map[int]bool{}
		for _, a := range advRep.Attackers {
			isAttacker[a] = true
		}
		in := 0
		for _, g := range f.Members {
			if isAttacker[g] {
				in++
			}
		}
		cell.Infiltration = float64(in) / float64(len(f.Members))
		if h := hres.Final(); h != nil {
			inAdv := map[int]bool{}
			for _, g := range f.Members {
				inAdv[g] = true
			}
			out := 0
			for _, g := range h.Members {
				if !inAdv[g] {
					out++
				}
			}
			cell.Displacement = float64(out) / float64(len(h.Members))
		}
	} else if h := hres.Final(); h != nil {
		// The attack destroyed VO formation outright: every honest member
		// is displaced.
		cell.Displacement = 1
	}
	cell.ValueDelta = cell.HonestValue - cell.AdversarialValue
	return cell, nil
}

// foldResult folds one mechanism run into a fingerprint: the selection,
// the selected members and outcome bit patterns, the full global
// reputation vector, and the churn counters. Any bit of nondeterminism in
// selections, reputation, or re-formation accounting changes the sum.
func foldResult(fp *fingerprint, res *mechanism.Result) {
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
	for _, x := range res.GlobalReputation {
		fp.f64(x)
	}
	fp.u64(uint64(res.Stats.Reformations))
	fp.u64(uint64(res.Stats.ChurnJoins))
	fp.u64(uint64(res.Stats.ChurnLeaves))
}

// RobustnessTable renders the per-cell grid for vosim.
func RobustnessTable(rep *RobustnessReport) *tablewriter.Table {
	t := tablewriter.New("n", "rep", "honest v(C)", "adversarial v(C)", "Δv", "infiltration", "displacement", "reforms")
	t.SetTitle(fmt.Sprintf("Robustness under %q: mean Δv=%s infiltration=%s displacement=%s (fingerprints honest=%016x adversarial=%016x)",
		rep.Class,
		tablewriter.Ftoa(rep.MeanValueDelta, 2),
		tablewriter.Ftoa(rep.MeanInfiltration, 3),
		tablewriter.Ftoa(rep.MeanDisplacement, 3),
		rep.HonestFingerprint, rep.AdversarialFingerprint))
	for _, c := range rep.Cells {
		t.AddRow(
			tablewriter.Itoa(c.Size),
			tablewriter.Itoa(c.Rep),
			tablewriter.Ftoa(c.HonestValue, 2),
			tablewriter.Ftoa(c.AdversarialValue, 2),
			tablewriter.Ftoa(c.ValueDelta, 2),
			tablewriter.Ftoa(c.Infiltration, 3),
			tablewriter.Ftoa(c.Displacement, 3),
			tablewriter.Itoa(int(c.Reformations)),
		)
	}
	return t
}
