package mechanism

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"reflect"
	"strings"
	"testing"

	"gridvo/internal/adversary"
	"gridvo/internal/assign"
	"gridvo/internal/xrand"
)

// TestScenarioSpecAdversaryValidation is the wire-format table for the
// adversary block: every malformed block must be rejected by
// ScenarioSpec.Validate with the message the API layer returns as a 400.
func TestScenarioSpecAdversaryValidation(t *testing.T) {
	cases := []struct {
		name    string
		spec    *adversary.Spec
		wantErr string // substring; empty means the spec must validate
	}{
		{"nil block", nil, ""},
		{"zero size is a no-op", &adversary.Spec{Class: adversary.ClassSybil}, ""},
		{"collusion ok", &adversary.Spec{Class: adversary.ClassCollusion, Size: 2}, ""},
		{"sybil ok", &adversary.Spec{Class: adversary.ClassSybil, Size: 3}, ""},
		{"whitewash ok", &adversary.Spec{Class: adversary.ClassWhitewash, Size: 2}, ""},
		{"slander ok", &adversary.Spec{Class: adversary.ClassSlander, Size: 2, Rate: 0.4}, ""},
		{"unknown class", &adversary.Spec{Class: "eclipse", Size: 2},
			`unknown class "eclipse" (want collusion, sybil, whitewash, or slander)`},
		{"negative size", &adversary.Spec{Class: adversary.ClassSybil, Size: -1}, "size"},
		{"negative rate", &adversary.Spec{Class: adversary.ClassSlander, Size: 2, Rate: -0.5}, "rate"},
		{"rate above one", &adversary.Spec{Class: adversary.ClassSlander, Size: 2, Rate: 1.5}, "rate"},
		{"NaN rate", &adversary.Spec{Class: adversary.ClassSlander, Size: 2, Rate: math.NaN()}, "rate"},
		{"negative weight", &adversary.Spec{Class: adversary.ClassCollusion, Size: 2, Weight: -1}, "weight"},
		// SampleSpec has 4 GSPs: size checks are against that n.
		{"clique exceeds n", &adversary.Spec{Class: adversary.ClassCollusion, Size: 5},
			"collusion clique size 5 exceeds 4 GSPs"},
		{"clique of one", &adversary.Spec{Class: adversary.ClassCollusion, Size: 1}, "clique"},
		{"whitewash exceeds n", &adversary.Spec{Class: adversary.ClassWhitewash, Size: 9}, "exceeds"},
		{"slander exceeds n", &adversary.Spec{Class: adversary.ClassSlander, Size: 5, Rate: 0.2},
			"attacker count 5 exceeds 4"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			sp := SampleSpec(1)
			sp.Adversary = tc.spec
			err := sp.Validate()
			if tc.wantErr == "" {
				if err != nil {
					t.Fatalf("valid block rejected: %v", err)
				}
				return
			}
			if err == nil {
				t.Fatalf("invalid block accepted: %+v", tc.spec)
			}
			if !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("error %q does not mention %q", err, tc.wantErr)
			}
		})
	}
}

// FuzzAdversarySpec is FuzzScenarioSpec's sibling for the adversary block:
// arbitrary JSON through decode → Validate → re-encode round trip →
// attach to a known-good scenario spec → Build → bounded mechanism run.
func FuzzAdversarySpec(f *testing.F) {
	for _, s := range []string{
		`{"class":"collusion","size":2}`,
		`{"class":"sybil","size":3,"weight":2}`,
		`{"class":"whitewash","size":1,"weight":0.5}`,
		`{"class":"slander","size":2,"rate":0.4}`,
		`{"class":"eclipse","size":1}`,
		`{"class":"slander","rate":-1,"size":1}`,
		`{"class":"sybil","size":-2}`,
		`{"class":"collusion","size":2,"weight":1e309}`,
	} {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var sp adversary.Spec
		if err := json.Unmarshal(data, &sp); err != nil {
			return // malformed JSON: the API layer's 400 path
		}
		if err := sp.Validate(); err != nil {
			return // explicit rejection
		}
		enc, err := json.Marshal(&sp)
		if err != nil {
			t.Fatalf("validated adversary spec failed to re-encode: %v", err)
		}
		var back adversary.Spec
		if err := json.Unmarshal(bytes.NewBuffer(enc).Bytes(), &back); err != nil {
			t.Fatalf("re-encoded adversary spec failed to decode: %v\n%s", err, enc)
		}
		if err := back.Validate(); err != nil {
			t.Fatalf("round-tripped adversary spec no longer validates: %v\n%s", err, enc)
		}
		if sp.Size > 6 {
			return // keep the mechanism tail bounded
		}
		base := SampleSpec(1)
		base.Adversary = &sp
		if err := base.Validate(); err != nil {
			return // size checks against the concrete n reject here
		}
		sc, err := base.Build(1)
		if err != nil {
			t.Fatalf("validated adversarial spec failed to build: %v\n%s", err, enc)
		}
		if _, err := RunContext(context.Background(), sc, Options{
			Eviction: EvictLowestReputation,
			Solver:   assign.Options{NodeBudget: 5000},
		}, xrand.New(1)); err != nil {
			t.Fatalf("mechanism failed on built adversarial scenario: %v\n%s", err, enc)
		}
	})
}

// TestSybilTwinPruningCounters pins the interaction between the sybil
// attack and the solver's twin pruning: fake GSPs clone the ringleader's
// speed and cost row bitwise, so sybil scenarios contain twin capability
// rows by construction and the symmetry rule must fire — while leaving
// the selected VO identical to an unpruned search.
func TestSybilTwinPruningCounters(t *testing.T) {
	sc := testScenario(11, 6, 12)
	adv, rep, err := ApplyAdversary(sc, &adversary.Spec{Class: adversary.ClassSybil, Size: 3},
		xrand.New(3).Split("adversary"))
	if err != nil {
		t.Fatal(err)
	}
	if rep.ExtraGSPs != 3 || adv.M() != 9 {
		t.Fatalf("sybil ring of 3: ExtraGSPs=%d M=%d", rep.ExtraGSPs, adv.M())
	}

	opts := Options{Eviction: EvictLowestReputation}
	pruned, err := RunContext(context.Background(), adv, opts, xrand.New(7))
	if err != nil {
		t.Fatal(err)
	}
	if pruned.Stats.PrunedBySymmetry == 0 {
		t.Fatalf("sybil twins produced no symmetry prunes: %+v", pruned.Stats)
	}

	opts.Solver.DisableTwinPruning = true
	plain, err := RunContext(context.Background(), adv, opts, xrand.New(7))
	if err != nil {
		t.Fatal(err)
	}
	if plain.Stats.PrunedBySymmetry != 0 || plain.Stats.PrunedByDominance != 0 {
		t.Fatalf("disabled pruning still counted prunes: %+v", plain.Stats)
	}
	if pruned.Selected != plain.Selected {
		t.Fatalf("pruning changed the selected iteration: %d vs %d", pruned.Selected, plain.Selected)
	}
	pf, qf := pruned.Final(), plain.Final()
	if pf == nil || qf == nil {
		t.Fatalf("missing final iteration: pruned=%v plain=%v", pf, qf)
	}
	if !reflect.DeepEqual(pf.Members, qf.Members) {
		t.Fatalf("pruning changed the selected VO: %v vs %v", pf.Members, qf.Members)
	}
	if math.Abs(pf.Payoff-qf.Payoff) > 1e-9*(1+math.Abs(qf.Payoff)) {
		t.Fatalf("pruning changed the payoff: %v vs %v", pf.Payoff, qf.Payoff)
	}
}

// TestRunChurnEvents exercises Options.Churn directly with explicit
// events: deterministic replay, counted membership moves, and a no-op
// schedule (absent leavers, out-of-range joiners) that must leave the run
// bitwise identical to a churn-free one.
func TestRunChurnEvents(t *testing.T) {
	sc := testScenario(4, 8, 12)
	churn := []adversary.ChurnEvent{
		{Round: 0, Leave: []int{2, 5}},
		{Round: 1, Join: []int{2}, Leave: []int{7}},
	}
	opts := Options{Eviction: EvictLowestReputation, Churn: churn}
	r1, err := RunContext(context.Background(), sc, opts, xrand.New(9))
	if err != nil {
		t.Fatal(err)
	}
	r2, err := RunContext(context.Background(), sc, opts, xrand.New(9))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(r1.Iterations, r2.Iterations) || r1.Selected != r2.Selected {
		t.Fatalf("churned run not deterministic")
	}
	if r1.Stats.Reformations == 0 {
		t.Fatalf("scheduled churn never re-formed: %+v", r1.Stats)
	}
	if r1.Stats.ChurnLeaves == 0 {
		t.Fatalf("no leaves counted: %+v", r1.Stats)
	}
	// The round-0 departures must be out of the VO from iteration 1 on
	// (GSP 2 may return via the round-1 re-join).
	if len(r1.Iterations) > 1 {
		for _, g := range r1.Iterations[1].Members {
			if g == 5 {
				t.Fatalf("GSP 5 left at round 0 but is still a member at iteration 1: %v", r1.Iterations[1].Members)
			}
		}
	}
	if got := r1.Stats.String(); r1.Stats.Reformations > 0 && !strings.Contains(got, "re-formations") {
		t.Fatalf("stats string omits churn: %q", got)
	}

	// No-op schedule: leaves of absent GSPs and out-of-range joins are
	// ignored, bitwise.
	base, err := RunContext(context.Background(), sc, Options{Eviction: EvictLowestReputation}, xrand.New(9))
	if err != nil {
		t.Fatal(err)
	}
	noop, err := RunContext(context.Background(), sc, Options{
		Eviction: EvictLowestReputation,
		Churn:    []adversary.ChurnEvent{{Round: 0, Leave: []int{99}, Join: []int{-1, 99}}},
	}, xrand.New(9))
	if err != nil {
		t.Fatal(err)
	}
	if noop.Stats.Reformations != 0 || noop.Stats.ChurnJoins != 0 || noop.Stats.ChurnLeaves != 0 {
		t.Fatalf("no-op schedule counted churn: %+v", noop.Stats)
	}
	if !reflect.DeepEqual(base.Iterations, noop.Iterations) || base.Selected != noop.Selected {
		t.Fatalf("no-op churn schedule changed the run")
	}
}
