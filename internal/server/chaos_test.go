package server

import (
	"context"
	"encoding/json"
	"net/http"
	"strings"
	"testing"
	"time"

	"gridvo/internal/assign"
	"gridvo/internal/fault"
	"gridvo/internal/mechanism"
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

// TestInjectedCancelDegradesNot500 is the graceful-degradation contract of
// the issue: under injected solve cancellation the mechanism falls back to
// heuristic incumbents, and /v1/vo/form replies 200 with a feasible VO and
// degraded=true — never a 500 and never a 504 (the request budget was not
// the cause).
func TestInjectedCancelDegradesNot500(t *testing.T) {
	// CancelNodes 1 makes the truncation bite even on the tiny sample
	// scenario, whose searches close in a handful of nodes.
	inj := fault.New(fault.Config{Seed: 7, Rate: 1, Classes: []fault.Class{fault.Cancel}, CancelNodes: 1})
	_, ts := newTestServer(t, Config{Inject: inj})
	spec := mechanism.SampleSpec(1)

	code, data := postJSON(t, ts.URL+"/v1/vo/form", FormRequest{Scenario: *spec, Seed: 1})
	if code != http.StatusOK {
		t.Fatalf("want 200 under injected cancel, got %d: %s", code, data)
	}
	var resp FormResponse
	if err := json.Unmarshal(data, &resp); err != nil {
		t.Fatal(err)
	}
	if !resp.Degraded {
		t.Fatalf("rate-1 cancel injection did not mark the reply degraded: %+v", resp)
	}
	if resp.Partial {
		t.Fatalf("injected faults must not masquerade as deadline expiry: %+v", resp)
	}
	if !resp.Feasible || len(resp.Members) == 0 {
		t.Fatalf("degraded run lost the heuristic incumbent VO: %+v", resp)
	}
	if resp.Engine.DegradedSolves == 0 {
		t.Fatalf("engine stats did not count degraded solves: %+v", resp.Engine)
	}
	st := inj.Stats()
	if st.Fired == 0 || st.PerClass[fault.Cancel] == 0 {
		t.Fatalf("injector never fired: %v", st)
	}
}

// TestBoundedRetryCounts proves the retry loop is bounded: with faults
// firing on every solve, the handler retries exactly MaxRetries times, the
// reply still reports degraded, and the metrics count the retries.
func TestBoundedRetryCounts(t *testing.T) {
	inj := fault.New(fault.Config{Seed: 3, Rate: 1, Classes: []fault.Class{fault.Cancel}, CancelNodes: 1})
	s, ts := newTestServer(t, Config{
		Inject:       inj,
		MaxRetries:   2,
		RetryBackoff: time.Millisecond,
	})
	spec := mechanism.SampleSpec(1)

	code, data := postJSON(t, ts.URL+"/v1/vo/form", FormRequest{Scenario: *spec, Seed: 1})
	if code != http.StatusOK {
		t.Fatalf("want 200, got %d: %s", code, data)
	}
	var resp FormResponse
	if err := json.Unmarshal(data, &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Retries != 2 {
		t.Fatalf("want exactly 2 bounded retries, got %d", resp.Retries)
	}
	if !resp.Degraded {
		t.Fatalf("persistent faults should leave the final reply degraded: %+v", resp)
	}
	var snap MetricsSnapshot
	if code := getJSON(t, ts.URL+"/metrics", &snap); code != http.StatusOK {
		t.Fatalf("metrics status %d", code)
	}
	if snap.RetriesTotal != 2 {
		t.Fatalf("retries_total = %d, want 2", snap.RetriesTotal)
	}
	_ = s
}

// TestRetryRecoversCleanRun: with injection disabled mid-flight semantics
// aside, a fault-free server performs zero retries and reports a clean run.
func TestNoFaultsMeansNoRetries(t *testing.T) {
	_, ts := newTestServer(t, Config{MaxRetries: 3, RetryBackoff: time.Millisecond})
	spec := mechanism.SampleSpec(1)
	code, data := postJSON(t, ts.URL+"/v1/vo/form", FormRequest{Scenario: *spec, Seed: 1})
	if code != http.StatusOK {
		t.Fatalf("want 200, got %d: %s", code, data)
	}
	var resp FormResponse
	if err := json.Unmarshal(data, &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Degraded || resp.Retries != 0 {
		t.Fatalf("clean run flagged degraded or retried: %+v", resp)
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
