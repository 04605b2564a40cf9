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
// config's transform, Config.Adversary and Config.Churn. Each cell is
// generated once: its honest world is the scenario before the attack, its
// adversarial world the attacked scenario under the churn schedule, the
// very scenario and schedule a ChaosSweep with the same config runs.
func RobustnessSweep(ctx context.Context, cfg Config, progress func(string)) (*RobustnessReport, error) {
	env, err := NewEnv(cfg)
	if err != nil {
		return nil, err
	}
	rep := &RobustnessReport{Class: "none"}
	switch {
	case !cfg.Adversary.IsZero() && !cfg.Churn.IsZero():
		rep.Class = cfg.Adversary.Class + "+churn"
	case !cfg.Adversary.IsZero():
		rep.Class = cfg.Adversary.Class
	case !cfg.Churn.IsZero():
		rep.Class = "churn"
	}
	fpH, fpA := newFingerprint(), newFingerprint()

	for _, size := range cfg.ProgramSizes {
		for r := 0; r < cfg.Repetitions; r++ {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
			cell, err := env.robustnessCell(ctx, size, r, fpH, fpA)
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

// robustnessCell runs one honest-vs-adversarial comparison: TVOF on the
// cell's honest scenario, whose engine starts from the feasibility check's
// grand solve, and on its attacked scenario under the churn schedule.
// Both runs draw from streams split with the same "run-size-rep-tvof"
// label, which yields two independent RNG objects with identical states,
// so a zero transform leaves the adversarial run consuming exactly the
// honest run's draw sequence.
func (e *Env) robustnessCell(ctx context.Context, size, r int, fpH, fpA *fingerprint) (*RobustnessCell, error) {
	c, err := e.buildScenario(size, r)
	if err != nil {
		return nil, err
	}
	churn, err := e.churn(size, r, c.sc.M())
	if err != nil {
		return nil, err
	}
	runTVOF := func(sc *mechanism.Scenario, churn []adversary.ChurnEvent, g *grandSolve) (*mechanism.Result, error) {
		mopts := e.Config.mechanismOptions(mechanism.EvictLowestReputation)
		mopts.Engine = e.newEngine(sc, g)
		mopts.Churn = churn
		return mechanism.RunContext(ctx, sc, mopts, e.rng.Split(fmt.Sprintf("run-%d-%d-tvof", size, r)))
	}
	// The two worlds share no engine and no state, so they run at once,
	// unless a shared fault injector would see their solves interleave.
	var hres, ares *mechanism.Result
	var herr, aerr error
	if e.Config.injected() {
		hres, herr = runTVOF(c.honest, nil, c.grand)
		if herr == nil {
			ares, aerr = runTVOF(c.sc, churn, nil)
		}
	} else {
		done := make(chan struct{})
		go func() {
			defer close(done)
			ares, aerr = runTVOF(c.sc, churn, nil)
		}()
		hres, herr = runTVOF(c.honest, nil, c.grand)
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
		for _, a := range c.attack.Attackers {
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
