package sim

import (
	"context"
	"testing"

	"gridvo/internal/mechanism"
	"gridvo/internal/trust"
)

func TestRunEvolutionDecayValidation(t *testing.T) {
	env := quickEnv(t, 60)
	if _, err := env.RunEvolution(context.Background(), EvolutionConfig{
		Rounds: 1, ProgramSize: 32, DecayRetention: 1.5,
	}); err == nil {
		t.Fatal("retention outside (0,1) accepted")
	}
	if _, err := env.RunEvolution(context.Background(), EvolutionConfig{
		Rounds: 1, ProgramSize: 32, DecayRetention: -0.5,
	}); err == nil {
		t.Fatal("negative retention accepted")
	}
}

func TestRunEvolutionDecayRuns(t *testing.T) {
	env := quickEnv(t, 61)
	res, err := env.RunEvolution(context.Background(), EvolutionConfig{
		Rounds:         4,
		Rule:           mechanism.EvictLowestReputation,
		ProgramSize:    32,
		DecayRetention: 0.8,
		IdleRounds:     2,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rounds) != 4 {
		t.Fatalf("rounds = %d", len(res.Rounds))
	}
	for _, rd := range res.Rounds {
		if rd.TrustEdges < 0 {
			t.Fatal("trust edge count missing")
		}
	}
}

func TestRunEvolutionDecayEvaporatesTrust(t *testing.T) {
	// The paper's critique of decaying trust: with aggressive decay and
	// long idle gaps, learned trust evaporates between formations, so
	// the trust graph ends up sparser than under the undecayed model on
	// the identical seed/interaction schedule.
	run := func(retention float64) *EvolutionResult {
		env := quickEnv(t, 62)
		res, err := env.RunEvolution(context.Background(), EvolutionConfig{
			Rounds:         6,
			Rule:           mechanism.EvictLowestReputation,
			ProgramSize:    32,
			DecayRetention: retention,
			IdleRounds:     8,
		})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	undecayed := run(0)
	decayed := run(0.3)
	// Compare the final learned graphs' edge counts: decayed ≤ undecayed,
	// and strictly fewer when anything was learned at all.
	ue, de := undecayed.FinalTrust.NumEdges(), decayed.FinalTrust.NumEdges()
	if de > ue {
		t.Fatalf("decayed graph has MORE edges (%d) than undecayed (%d)", de, ue)
	}
	// Total trust mass must be strictly smaller under decay (evidence
	// fades even for pairs that keep interacting).
	mass := func(g *trust.Graph) float64 {
		total := 0.0
		for _, e := range g.Edges() {
			total += e.Weight
		}
		return total
	}
	if mass(decayed.FinalTrust) >= mass(undecayed.FinalTrust) {
		t.Fatalf("decayed trust mass %v not below undecayed %v",
			mass(decayed.FinalTrust), mass(undecayed.FinalTrust))
	}
}
