package sim

import (
	"context"
	"encoding/binary"
	"fmt"
	"hash"
	"hash/fnv"
	"math"
	"testing"

	"gridvo/internal/mechanism"
	"gridvo/internal/stats"
)

// reliabilitySeries extracts the per-round selected-VO reliability.
func reliabilitySeries(r *EvolutionResult) []float64 {
	out := make([]float64, len(r.Rounds))
	for i, rd := range r.Rounds {
		out[i] = rd.MeanReliability
	}
	return out
}

func TestRunEvolutionBasics(t *testing.T) {
	env := quickEnv(t, 30)
	res, err := env.RunEvolution(context.Background(), EvolutionConfig{
		Rounds:      4,
		Rule:        mechanism.EvictLowestReputation,
		ProgramSize: 32,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rounds) != 4 {
		t.Fatalf("rounds = %d", len(res.Rounds))
	}
	if len(res.Reliability) != env.Config.NumGSPs {
		t.Fatal("reliability vector wrong length")
	}
	for _, rd := range res.Rounds {
		if rd.Members == nil {
			continue
		}
		if rd.MeanReliability <= 0 || rd.MeanReliability > 1 {
			t.Fatalf("round %d reliability %v out of (0,1]", rd.Round, rd.MeanReliability)
		}
		wantInteractions := len(rd.Members) * (len(rd.Members) - 1)
		if rd.Interactions != wantInteractions {
			t.Fatalf("round %d interactions = %d, want %d", rd.Round, rd.Interactions, wantInteractions)
		}
	}
	if res.FinalTrust == nil || res.FinalTrust.N() != env.Config.NumGSPs {
		t.Fatal("final trust graph missing")
	}
	if got := reliabilitySeries(res); len(got) != 4 {
		t.Fatalf("series length = %d", len(got))
	}
}

func TestRunEvolutionValidation(t *testing.T) {
	env := quickEnv(t, 31)
	if _, err := env.RunEvolution(context.Background(), EvolutionConfig{Rounds: 0, ProgramSize: 32}); err == nil {
		t.Fatal("zero rounds accepted")
	}
	if _, err := env.RunEvolution(context.Background(), EvolutionConfig{Rounds: 1, ProgramSize: 0}); err == nil {
		t.Fatal("zero program size accepted")
	}
	if _, err := env.RunEvolution(context.Background(), EvolutionConfig{
		Rounds: 1, ProgramSize: 32, Reliability: []float64{0.5},
	}); err == nil {
		t.Fatal("wrong-length reliability accepted")
	}
}

func TestRunEvolutionDeterministic(t *testing.T) {
	mk := func() []float64 {
		env := quickEnv(t, 32)
		res, err := env.RunEvolution(context.Background(), EvolutionConfig{
			Rounds: 3, Rule: mechanism.EvictLowestReputation, ProgramSize: 32,
		})
		if err != nil {
			t.Fatal(err)
		}
		return reliabilitySeries(res)
	}
	a, b := mk(), mk()
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("evolution not deterministic")
		}
	}
}

func TestRunEvolutionTVOFLearnsReliability(t *testing.T) {
	// With a clear reliability split (half good, half bad) and enough
	// rounds, TVOF's later selections should average at least as
	// reliable as its earliest one; RVOF has no such pressure. We assert
	// the TVOF trend direction, which is the extension's headline claim.
	env := quickEnv(t, 33)
	rel := make([]float64, env.Config.NumGSPs)
	for i := range rel {
		if i%2 == 0 {
			rel[i] = 0.95
		} else {
			rel[i] = 0.05
		}
	}
	res, err := env.RunEvolution(context.Background(), EvolutionConfig{
		Rounds:      6,
		Rule:        mechanism.EvictLowestReputation,
		ProgramSize: 32,
		Reliability: rel,
	})
	if err != nil {
		t.Fatal(err)
	}
	series := reliabilitySeries(res)
	// Selections must be enriched toward the reliable half once trust
	// has been learned: the late-round mean stays above the population
	// mean (0.5). Round 0 is excluded — before any interactions the
	// prior trust graph is uninformative and its selection is luck.
	lateMean := stats.Mean(series[len(series)/2:])
	if lateMean < 0.55 {
		t.Fatalf("late selections not enriched toward reliable GSPs: mean %v (series %v)", lateMean, series)
	}
	// The learned trust graph should give reliable GSPs more incoming
	// trust mass than unreliable ones.
	goodIn, badIn := 0.0, 0.0
	for j := 0; j < env.Config.NumGSPs; j++ {
		in := 0.0
		for i := 0; i < env.Config.NumGSPs; i++ {
			in += res.FinalTrust.Trust(i, j)
		}
		if rel[j] > 0.5 {
			goodIn += in
		} else {
			badIn += in
		}
	}
	if goodIn <= badIn {
		t.Fatalf("learned trust does not separate reliable GSPs: good=%v bad=%v", goodIn, badIn)
	}
}

// evolutionHash folds everything RunEvolution returns into one FNV-1a hash:
// each round's members, the bits of MeanReliability and AvgReputation,
// TrustEdges and Interactions, and FinalTrust's edges with their weight bits.
func evolutionHash(h hash.Hash64, r *EvolutionResult) {
	put := func(v uint64) {
		var b [8]byte
		binary.LittleEndian.PutUint64(b[:], v)
		h.Write(b[:])
	}
	for _, rd := range r.Rounds {
		put(uint64(rd.Round))
		put(uint64(len(rd.Members)))
		for _, g := range rd.Members {
			put(uint64(g))
		}
		put(math.Float64bits(rd.MeanReliability))
		put(math.Float64bits(rd.AvgReputation))
		put(uint64(rd.TrustEdges))
		put(uint64(rd.Interactions))
	}
	for _, e := range r.FinalTrust.Edges() {
		put(uint64(e.From))
		put(uint64(e.To))
		put(math.Float64bits(e.Weight))
	}
}

// TestRunEvolutionPinned pins vosim -evolution's three variants (TVOF and
// RVOF undecayed, TVOF at retention 0.5) bit for bit, so a change to the
// trust accounting cannot move a selection or a learned weight unnoticed.
func TestRunEvolutionPinned(t *testing.T) {
	cfg := QuickConfig(42)
	cfg.Solver.NodeBudget = 20_000
	env, err := NewEnv(cfg)
	if err != nil {
		t.Fatal(err)
	}
	h := fnv.New64a()
	for _, v := range []struct {
		rule      mechanism.EvictionRule
		retention float64
	}{
		{mechanism.EvictLowestReputation, 0},
		{mechanism.EvictRandom, 0},
		{mechanism.EvictLowestReputation, 0.5},
	} {
		res, err := env.RunEvolution(context.Background(), EvolutionConfig{
			Rounds:         8,
			Rule:           v.rule,
			ProgramSize:    64,
			DecayRetention: v.retention,
			IdleRounds:     4,
		})
		if err != nil {
			t.Fatal(err)
		}
		evolutionHash(h, res)
	}
	if got, want := fmt.Sprintf("%016x", h.Sum64()), "f9c272554c6591ea"; got != want {
		t.Fatalf("evolution hash = %s, want %s", got, want)
	}
}
