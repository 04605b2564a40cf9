package server

import (
	"context"
	"encoding/json"
	"net/http"
	"strings"
	"testing"

	"gridvo/internal/assign"
	"gridvo/internal/mechanism"
	"gridvo/internal/trust"
)

// TestSaturatedServerSheds429 proves the load-shedding path: with every
// solve slot occupied, a solve request is rejected immediately with 429 and
// a Retry-After header instead of queueing; exempt routes keep working; a
// freed slot restores service.
func TestSaturatedServerSheds429(t *testing.T) {
	s, ts := newTestServer(t, Config{MaxInFlight: 1})
	spec := mechanism.SampleSpec(1)
	req := FormRequest{Scenario: *spec, Seed: 1}

	s.sem <- struct{}{} // occupy the only solve slot

	body, _ := json.Marshal(req)
	resp, err := http.Post(ts.URL+"/v1/vo/form", "application/json", strings.NewReader(string(body)))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("saturated: want 429, got %d", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("429 reply missing Retry-After header")
	}
	var e ErrorResponse
	if err := json.NewDecoder(resp.Body).Decode(&e); err != nil || e.Error == "" {
		t.Fatalf("429 reply not a JSON error: %v %+v", err, e)
	}
	if s.metrics.shed.Load() != 1 {
		t.Fatalf("shed counter = %d, want 1", s.metrics.shed.Load())
	}

	// Unlimited routes are exempt from the semaphore.
	if code := getJSON(t, ts.URL+"/healthz", nil); code != http.StatusOK {
		t.Fatalf("healthz under saturation: %d", code)
	}
	var snap MetricsSnapshot
	if code := getJSON(t, ts.URL+"/metrics", &snap); code != http.StatusOK {
		t.Fatalf("metrics under saturation: %d", code)
	}
	if snap.ShedTotal != 1 {
		t.Fatalf("snapshot shed_total = %d, want 1", snap.ShedTotal)
	}

	<-s.sem // free the slot; service resumes
	if code, data := postJSON(t, ts.URL+"/v1/vo/form", req); code != http.StatusOK {
		t.Fatalf("after drain: want 200, got %d: %s", code, data)
	}
}

// TestNonConvergedReputationDegradesNot500 is the graceful-degradation
// contract: when the power iteration exhausts its budget without
// converging, /v1/vo/form replies 200 with a feasible VO and
// degraded=true — never a 500 and never a 504 (the request budget was not
// the cause). Star trust makes the chain periodic: GSP 0 trusts every
// other GSP and each of them trusts only GSP 0, so the iterate oscillates
// around a non-uniform fixed point until MaxIter.
func TestNonConvergedReputationDegradesNot500(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	spec := mechanism.SampleSpec(1)
	spec.Trust = trust.NewGraph(len(spec.GSPs))
	for g := 1; g < len(spec.GSPs); g++ {
		spec.Trust.SetTrust(0, g, 1)
		spec.Trust.SetTrust(g, 0, 1)
	}

	code, data := postJSON(t, ts.URL+"/v1/vo/form", FormRequest{Scenario: *spec, Seed: 1})
	if code != http.StatusOK {
		t.Fatalf("want 200 under non-converged reputation, got %d: %s", code, data)
	}
	var resp FormResponse
	if err := json.Unmarshal(data, &resp); err != nil {
		t.Fatal(err)
	}
	if !resp.Degraded {
		t.Fatalf("periodic star trust did not mark the reply degraded: %+v", resp)
	}
	if resp.Partial {
		t.Fatalf("non-convergence must not masquerade as deadline expiry: %+v", resp)
	}
	if !resp.Feasible || len(resp.Members) == 0 {
		t.Fatalf("degraded run lost its VO: %+v", resp)
	}
	if resp.Engine.DegradedSolves != 0 {
		t.Fatalf("degradation came from the solver, not the power iteration: %+v", resp.Engine)
	}
}

// TestPanicRecoveryIs500JSON proves the containment middleware: a panic
// deep in the solve path becomes a 500 JSON error, not a dropped
// connection, and the panic counter advances.
func TestPanicRecoveryIs500JSON(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	spec := mechanism.SampleSpec(4)
	panicking := assign.SolverFunc(func(ctx context.Context, in *assign.Instance, opts assign.Options) assign.Solution {
		panic("solver exploded")
	})
	registerEngine(t, s, spec, 4, panicking)

	code, data := postJSON(t, ts.URL+"/v1/vo/form", FormRequest{Scenario: *spec, Seed: 4})
	if code != http.StatusInternalServerError {
		t.Fatalf("want 500, got %d: %s", code, data)
	}
	var e ErrorResponse
	if err := json.Unmarshal(data, &e); err != nil {
		t.Fatalf("500 body not JSON: %v\n%s", err, data)
	}
	if !strings.Contains(e.Error, "internal error") || !strings.Contains(e.Error, "solver exploded") {
		t.Fatalf("panic not surfaced in error body: %q", e.Error)
	}
	var snap MetricsSnapshot
	if code := getJSON(t, ts.URL+"/metrics", &snap); code != http.StatusOK {
		t.Fatalf("metrics status %d", code)
	}
	if snap.PanicsTotal != 1 {
		t.Fatalf("panics_total = %d, want 1", snap.PanicsTotal)
	}
	// The server keeps serving after the panic.
	if code := getJSON(t, ts.URL+"/healthz", nil); code != http.StatusOK {
		t.Fatalf("healthz after panic: %d", code)
	}
}
