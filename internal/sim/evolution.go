package sim

import (
	"context"
	"fmt"

	"gridvo/internal/mechanism"
	"gridvo/internal/trust"
)

// Trust evolution (extension, not in the paper's evaluation): the paper
// motivates trust by GSPs that "agree to provide some resources but fail
// to deliver". This experiment closes that loop: GSPs have an intrinsic
// (hidden) reliability; repeated VO formation rounds generate
// deliver/fail interactions among VO members; interactions update direct
// trust (trust.History); and the mechanism's reputation-based eviction
// should progressively exclude unreliable providers. The tracked quantity
// is the average *intrinsic* reliability of the selected VO per round —
// rising under TVOF, flat under RVOF.

// EvolutionConfig parameterizes the experiment.
type EvolutionConfig struct {
	// Rounds of VO formation.
	Rounds int
	// Reliability[i] is GSP i's hidden delivery probability. Leave nil
	// to draw uniform in [0.05, 0.95].
	Reliability []float64
	// Rule is the eviction rule under test.
	Rule mechanism.EvictionRule
	// ProgramSize picks the per-round application size.
	ProgramSize int
	// DecayRetention, when in (0,1), is the per-round retention of
	// trust.History's time-decaying model after Azzedin & Maheswaran —
	// the related-work variant the paper critiques ("converges to a state
	// in which the formation of new VOs is not possible"). Zero means
	// retention 1, the paper's undecayed accounting.
	DecayRetention float64
	// IdleRounds inserts this many formation-free rounds between
	// consecutive formations, accelerating decay-driven evaporation in
	// the comparison experiment.
	IdleRounds int
}

// EvolutionRound records one round's outcome.
type EvolutionRound struct {
	Round int
	// Members of the selected VO (nil when no feasible VO).
	Members []int
	// MeanReliability is the average intrinsic reliability of Members —
	// the quantity trust learning should push up.
	MeanReliability float64
	// AvgReputation is eq. (7) of the selected VO under the current
	// (learned) trust graph.
	AvgReputation float64
	// Interactions recorded this round.
	Interactions int
	// TrustEdges counts the positive-weight trust edges at formation
	// time — the evaporation signal under decay.
	TrustEdges int
}

// EvolutionResult is the whole trajectory.
type EvolutionResult struct {
	Rounds      []EvolutionRound
	Reliability []float64
	// FinalTrust is the learned trust graph after the last round.
	FinalTrust *trust.Graph
}

// RunEvolution executes the repeated-formation experiment on the
// environment's configuration (GSP count, solver options). Solves poll ctx
// and degrade to heuristic incumbents once it is done.
func (e *Env) RunEvolution(ctx context.Context, cfg EvolutionConfig) (*EvolutionResult, error) {
	m := e.Config.NumGSPs
	if cfg.Rounds <= 0 {
		return nil, fmt.Errorf("sim: evolution needs Rounds > 0")
	}
	if cfg.ProgramSize <= 0 {
		return nil, fmt.Errorf("sim: evolution needs ProgramSize > 0")
	}
	rng := e.rng.Split("evolution")

	rel := cfg.Reliability
	if rel == nil {
		rel = make([]float64, m)
		rrng := rng.Split("reliability")
		for i := range rel {
			rel[i] = rrng.Uniform(0.05, 0.95)
		}
	}
	if len(rel) != m {
		return nil, fmt.Errorf("sim: %d reliabilities for %d GSPs", len(rel), m)
	}

	// Round 0 starts from an Erdős–Rényi prior.
	cur := trust.ErdosRenyi(rng.Split("prior"), m, 0.3)
	retention := cfg.DecayRetention
	if retention == 0 {
		retention = 1 // the paper's undecayed accounting
	} else if !(retention > 0 && retention < 1) {
		return nil, fmt.Errorf("sim: decay retention %v outside (0,1)", retention)
	}
	hist := trust.NewHistory(m, retention)

	res := &EvolutionResult{Reliability: rel}
	for round := 0; round < cfg.Rounds; round++ {
		// Logical time advances faster when idle rounds separate the
		// formations (only meaningful under decay). Fold the decay since
		// the last formation into the graph before forming: stale trust
		// evaporates even for pairs that do not interact this round.
		if err := hist.AdvanceTo(round * (1 + cfg.IdleRounds)); err != nil {
			return nil, err
		}
		if err := hist.ApplyTo(cur); err != nil {
			return nil, err
		}
		c, err := e.buildScenario(cfg.ProgramSize, 5000+round)
		if err != nil {
			return nil, err
		}
		c.sc.Trust = cur.Clone()
		mres, err := mechanism.RunContext(ctx, c.sc, e.Config.mechanismOptions(cfg.Rule), rng.Split(fmt.Sprintf("round-%d", round)))
		if err != nil {
			return nil, err
		}
		rd := EvolutionRound{Round: round, TrustEdges: cur.NumEdges()}
		if final := mres.Final(); final != nil {
			rd.Members = final.Members
			rd.AvgReputation = final.AvgReputation
			total := 0.0
			for _, g := range final.Members {
				total += rel[g]
			}
			rd.MeanReliability = total / float64(len(final.Members))

			// Members observe one delivery attempt from every other
			// member of the VO this round.
			irng := rng.Split(fmt.Sprintf("interact-%d", round))
			for _, requester := range final.Members {
				for _, provider := range final.Members {
					if requester == provider {
						continue
					}
					if err := hist.Record(requester, provider, irng.Bool(rel[provider])); err != nil {
						return nil, err
					}
					rd.Interactions++
				}
			}
			if err := hist.ApplyTo(cur); err != nil {
				return nil, err
			}
		}
		res.Rounds = append(res.Rounds, rd)
	}
	res.FinalTrust = cur
	return res, nil
}
