package mechanism

import (
	"bytes"
	"context"
	"encoding/json"
	"testing"

	"gridvo/internal/assign"
	"gridvo/internal/xrand"
)

// FuzzScenarioSpec drives arbitrary JSON through the full wire-format
// pipeline: decode → Validate → re-encode → re-decode → Build → a small
// TVOF run. The contract: no input panics; malformed specs are rejected
// with explicit errors; a spec that validates must re-encode to a spec
// that still validates, build a scenario, and survive the mechanism loop.
// This is the same path gridvod's POST /v1/vo/form exercises on untrusted
// request bodies.
func FuzzScenarioSpec(f *testing.F) {
	if sample, err := json.Marshal(SampleSpec(1)); err == nil {
		f.Add(sample)
	}
	f.Add([]byte(`{}`))
	f.Add([]byte(`{"gsps":[{"name":"a","speed_gflops":100}],"tasks":[1000],` +
		`"deadline":100,"payment":500,"trust":{"n":1,"edges":[]}}`))
	f.Add([]byte(`{"gsps":[{"speed_gflops":1e309}],"tasks":[1]}`))
	f.Add([]byte(`{"gsps":[{"speed_gflops":50}],"tasks":[-3],"deadline":1,` +
		`"payment":1,"trust":{"n":1,"edges":[]}}`))
	f.Add([]byte(`{"cost":[[1,null]],"tasks":[1,2]}`))

	f.Fuzz(func(t *testing.T, data []byte) {
		var sp ScenarioSpec
		if err := json.Unmarshal(data, &sp); err != nil {
			return // malformed JSON: the API layer's 400 path
		}
		if err := sp.Validate(); err != nil {
			return // explicit rejection
		}
		// Keep the expensive tail bounded: validation itself must already
		// have run on whatever size arrived.
		if len(sp.GSPs) > 6 || len(sp.Tasks) > 12 {
			return
		}

		// A validated spec must re-encode, and the round-trip must still
		// validate — otherwise a stored scenario would be unreadable.
		enc, err := json.Marshal(&sp)
		if err != nil {
			t.Fatalf("validated spec failed to re-encode: %v", err)
		}
		var back ScenarioSpec
		if err := json.Unmarshal(bytes.NewBuffer(enc).Bytes(), &back); err != nil {
			t.Fatalf("re-encoded spec failed to decode: %v\n%s", err, enc)
		}
		if err := back.Validate(); err != nil {
			t.Fatalf("round-tripped spec no longer validates: %v\n%s", err, enc)
		}

		sc, err := sp.Build(1)
		if err != nil {
			return // Build re-validates the materialized scenario
		}
		// The mechanism loop must not panic on anything that got this far.
		res, err := RunContext(context.Background(), sc, Options{
			Eviction: EvictLowestReputation,
			Solver:   assign.Options{NodeBudget: 5000},
		}, xrand.New(1))
		if err != nil {
			return
		}
		for i := range res.Iterations {
			rec := &res.Iterations[i]
			if rec.Feasible && rec.Payoff < 0 {
				t.Fatalf("feasible iteration %d has negative payoff %v", i, rec.Payoff)
			}
		}
	})
}
