package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"testing"
	"time"

	"gridvo"
	"gridvo/internal/assign"
	"gridvo/internal/mechanism"
)

// gatedSolver blocks every solve until gate closes, then delegates to the
// real branch-and-bound — deterministic fuel for "job is running / queued"
// states without sleeps.
func gatedSolver(gate <-chan struct{}) assign.Solver {
	return assign.SolverFunc(func(ctx context.Context, in *assign.Instance, opts assign.Options) assign.Solution {
		<-gate
		return assign.SolveCtx(ctx, in, opts)
	})
}

// panickingSolver panics on the first solve — the worker-containment case.
func panickingSolver() assign.Solver {
	return assign.SolverFunc(func(ctx context.Context, in *assign.Instance, opts assign.Options) assign.Solution {
		panic("solver exploded")
	})
}

// pollJob GETs the job until pred holds or the deadline elapses.
func pollJob(t *testing.T, url, id string, pred func(JobStatusResponse) bool) JobStatusResponse {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		var st JobStatusResponse
		if code := getJSON(t, url+"/v1/jobs/"+id, &st); code != http.StatusOK {
			t.Fatalf("poll %s: status %d", id, code)
		}
		if pred(st) {
			return st
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s stuck in %s", id, st.State)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func terminal(st JobStatusResponse) bool {
	return JobState(st.State).terminal()
}

func submitJob(t *testing.T, url string, req FormRequest) JobSubmitResponse {
	t.Helper()
	code, data := postJSON(t, url+"/v1/jobs", req)
	if code != http.StatusAccepted {
		t.Fatalf("submit: want 202, got %d: %s", code, data)
	}
	var resp JobSubmitResponse
	if err := json.Unmarshal(data, &resp); err != nil {
		t.Fatal(err)
	}
	if resp.ID == "" {
		t.Fatal("submit returned no job id")
	}
	return resp
}

// TestJobSubmitPollDone walks the happy path and checks the async result
// is bitwise-identical to the synchronous path's on the same request.
func TestJobSubmitPollDone(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	spec := mechanism.SampleSpec(7)
	req := FormRequest{Scenario: *spec, Seed: 7}

	sub := submitJob(t, ts.URL, req)
	if sub.Deduped {
		t.Fatal("first submission marked deduped")
	}
	st := pollJob(t, ts.URL, sub.ID, terminal)
	if st.State != string(JobDone) {
		t.Fatalf("state %s (error %q), want done", st.State, st.Error)
	}
	if st.Result == nil || !st.Result.Feasible {
		t.Fatalf("done job carries no feasible result: %+v", st.Result)
	}

	// The sync path on a second server (fresh engine — no shared cache
	// state) must agree bitwise on every solution field.
	_, ts2 := newTestServer(t, Config{})
	code, data := postJSON(t, ts2.URL+"/v1/vo/form", req)
	if code != http.StatusOK {
		t.Fatalf("sync status %d: %s", code, data)
	}
	var sync FormResponse
	if err := json.Unmarshal(data, &sync); err != nil {
		t.Fatal(err)
	}
	job := st.Result
	// Job and sync results must agree bitwise, not within epsilon.
	same := job.Payoff == sync.Payoff && job.Value == sync.Value &&
		job.Cost == sync.Cost && job.AvgReputation == sync.AvgReputation
	if !same {
		t.Fatalf("job result diverged from sync: %+v vs %+v", job, sync)
	}
	if fmt.Sprint(job.Members) != fmt.Sprint(sync.Members) ||
		fmt.Sprint(job.Assignment) != fmt.Sprint(sync.Assignment) ||
		fmt.Sprint(job.GlobalReputation) != fmt.Sprint(sync.GlobalReputation) {
		t.Fatalf("job solution diverged from sync: %+v vs %+v", job, sync)
	}
}

// TestJobDedupe coalesces two identical submissions onto one solve: the
// follower consumes no queue slot, runs no solver, and shares the
// leader's result object.
func TestJobDedupe(t *testing.T) {
	s, ts := newTestServer(t, Config{JobWorkers: 1})
	gate := make(chan struct{})
	spec := mechanism.SampleSpec(3)
	registerEngine(t, s, spec, 3, gatedSolver(gate))
	req := FormRequest{Scenario: *spec, Seed: 3}

	lead := submitJob(t, ts.URL, req)
	follow := submitJob(t, ts.URL, req)
	if lead.Deduped {
		t.Fatal("leader marked deduped")
	}
	if !follow.Deduped {
		t.Fatal("identical in-flight submission not deduped")
	}
	close(gate)

	stLead := pollJob(t, ts.URL, lead.ID, terminal)
	stFollow := pollJob(t, ts.URL, follow.ID, terminal)
	if stLead.State != string(JobDone) || stFollow.State != string(JobDone) {
		t.Fatalf("states %s / %s, want done / done", stLead.State, stFollow.State)
	}
	// One underlying solve: the follower's engine stats are the leader's,
	// verbatim, and the process-wide totals contain exactly the leader's
	// solves (a second real run would have added cache hits at least).
	if stFollow.Result.Engine != stLead.Result.Engine {
		t.Fatalf("follower re-solved: %+v vs %+v", stFollow.Result.Engine, stLead.Result.Engine)
	}
	var snap MetricsSnapshot
	if code := getJSON(t, ts.URL+"/metrics", &snap); code != http.StatusOK {
		t.Fatalf("metrics status %d", code)
	}
	if snap.Jobs.Deduped != 1 || snap.Jobs.Queued != 1 || snap.Jobs.Done != 2 {
		t.Fatalf("job counters off: %+v", snap.Jobs)
	}
	if snap.Engine.Solves != stLead.Result.Engine.Solves {
		t.Fatalf("process solves %d != leader's %d: dedupe ran a second solve",
			snap.Engine.Solves, stLead.Result.Engine.Solves)
	}
}

// TestJobQueueFull429 fills the one-slot queue behind a blocked worker and
// expects the overflow submission to shed with 429 + Retry-After.
func TestJobQueueFull429(t *testing.T) {
	s, ts := newTestServer(t, Config{JobWorkers: 1, JobQueueDepth: 1})
	gate := make(chan struct{})
	defer close(gate)
	spec := mechanism.SampleSpec(4)
	registerEngine(t, s, spec, 4, gatedSolver(gate))

	// Distinct timeout_ms values keep the dedupe keys distinct while every
	// job still resolves to the same (gated) engine.
	running := submitJob(t, ts.URL, FormRequest{Scenario: *spec, Seed: 4, TimeoutMS: 60000})
	pollJob(t, ts.URL, running.ID, func(st JobStatusResponse) bool {
		return st.State == string(JobRunning)
	})
	submitJob(t, ts.URL, FormRequest{Scenario: *spec, Seed: 4, TimeoutMS: 59000})

	var buf = FormRequest{Scenario: *spec, Seed: 4, TimeoutMS: 58000}
	resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", jsonBody(t, buf))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("overflow submit: want 429, got %d", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("429 without Retry-After")
	}
	var snap MetricsSnapshot
	if code := getJSON(t, ts.URL+"/metrics", &snap); code != http.StatusOK {
		t.Fatalf("metrics status %d", code)
	}
	if snap.ShedTotal == 0 {
		t.Fatal("queue-full rejection not counted as shed")
	}
}

// TestJobWorkerPanicFailsJobOnly panics inside a worker's solve and checks
// the job fails while the process keeps serving.
func TestJobWorkerPanicFailsJobOnly(t *testing.T) {
	s, ts := newTestServer(t, Config{JobWorkers: 1})
	spec := mechanism.SampleSpec(5)
	registerEngine(t, s, spec, 5, panickingSolver())

	sub := submitJob(t, ts.URL, FormRequest{Scenario: *spec, Seed: 5})
	st := pollJob(t, ts.URL, sub.ID, terminal)
	if st.State != string(JobFailed) {
		t.Fatalf("state %s, want failed", st.State)
	}
	if st.Error == "" {
		t.Fatal("failed job carries no error")
	}
	// The worker survived: a fresh (clean) job on the same server runs.
	clean := mechanism.SampleSpec(6)
	sub2 := submitJob(t, ts.URL, FormRequest{Scenario: *clean, Seed: 6})
	if st2 := pollJob(t, ts.URL, sub2.ID, terminal); st2.State != string(JobDone) {
		t.Fatalf("post-panic job state %s, want done", st2.State)
	}
	if code := getJSON(t, ts.URL+"/healthz", nil); code != http.StatusOK {
		t.Fatalf("healthz %d after worker panic", code)
	}
}

// TestJobLongPoll exercises ?wait=: a short wait returns a non-terminal
// state; after the gate opens, a long wait returns the terminal state in
// one round trip; malformed waits are 400.
func TestJobLongPoll(t *testing.T) {
	s, ts := newTestServer(t, Config{JobWorkers: 1})
	gate := make(chan struct{})
	spec := mechanism.SampleSpec(8)
	registerEngine(t, s, spec, 8, gatedSolver(gate))

	sub := submitJob(t, ts.URL, FormRequest{Scenario: *spec, Seed: 8})
	var st JobStatusResponse
	if code := getJSON(t, ts.URL+"/v1/jobs/"+sub.ID+"?wait=30", &st); code != http.StatusOK {
		t.Fatalf("short wait status %d", code)
	}
	if JobState(st.State).terminal() {
		t.Fatalf("gated job already terminal: %s", st.State)
	}
	go func() {
		time.Sleep(20 * time.Millisecond)
		close(gate)
	}()
	if code := getJSON(t, ts.URL+"/v1/jobs/"+sub.ID+"?wait=8s", &st); code != http.StatusOK {
		t.Fatalf("long wait status %d", code)
	}
	if !JobState(st.State).terminal() {
		t.Fatalf("long poll returned non-terminal %s", st.State)
	}
	if code := getJSON(t, ts.URL+"/v1/jobs/"+sub.ID+"?wait=banana", nil); code != http.StatusBadRequest {
		t.Fatalf("bad wait: want 400, got %d", code)
	}
	if code := getJSON(t, ts.URL+"/v1/jobs/nope", nil); code != http.StatusNotFound {
		t.Fatalf("unknown id: want 404, got %d", code)
	}
}

// TestJobDrainCompletesQueued starts a drain with one job running and one
// queued, expects new submissions to 503, and both existing jobs to
// complete before drain returns.
func TestJobDrainCompletesQueued(t *testing.T) {
	s, ts := newTestServer(t, Config{JobWorkers: 1, JobQueueDepth: 4})
	gate := make(chan struct{})
	spec := mechanism.SampleSpec(9)
	registerEngine(t, s, spec, 9, gatedSolver(gate))

	running := submitJob(t, ts.URL, FormRequest{Scenario: *spec, Seed: 9, TimeoutMS: 60000})
	pollJob(t, ts.URL, running.ID, func(st JobStatusResponse) bool {
		return st.State == string(JobRunning)
	})
	queued := submitJob(t, ts.URL, FormRequest{Scenario: *spec, Seed: 9, TimeoutMS: 59000})

	drained := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		drained <- s.DrainJobs(ctx)
	}()
	// Draining: new submissions are refused with 503.
	deadline := time.Now().Add(5 * time.Second)
	for {
		resp, err := http.Post(ts.URL+"/v1/jobs", "application/json",
			jsonBody(t, FormRequest{Scenario: *spec, Seed: 9, TimeoutMS: 58000}))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode == http.StatusServiceUnavailable {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("draining server still accepts submissions (%d)", resp.StatusCode)
		}
		time.Sleep(5 * time.Millisecond)
	}
	close(gate)
	if err := <-drained; err != nil {
		t.Fatalf("drain: %v", err)
	}
	for _, id := range []string{running.ID, queued.ID} {
		if st := pollJob(t, ts.URL, id, terminal); st.State != string(JobDone) {
			t.Fatalf("job %s drained into %s, want done", id, st.State)
		}
	}
}

// TestJobFaultTouchedNeverShared drives the manager directly: a leader
// whose run was fault-touched must not share its result — the first
// follower is promoted and re-enqueued for a fresh solve.
func TestJobFaultTouchedNeverShared(t *testing.T) {
	m := newJobManager(4, time.Minute)
	now := time.Unix(0, 0)
	req := FormRequest{Seed: 1}
	lead, err := m.submit(now, 42, nil, gridvo.TVOF, req)
	if err != nil {
		t.Fatal(err)
	}
	f1, err := m.submit(now, 42, nil, gridvo.TVOF, req)
	if err != nil || !f1.deduped {
		t.Fatalf("follower not deduped: %v", err)
	}
	f2, err := m.submit(now, 42, nil, gridvo.TVOF, req)
	if err != nil || !f2.deduped {
		t.Fatalf("second follower not deduped: %v", err)
	}
	<-m.queue // worker would have dequeued the leader
	m.start(lead, now)

	tainted := &FormResponse{Feasible: true, Degraded: true}
	m.finish(lead, now, tainted, 3, "") // 3 injected faults fired
	if lead.state != JobDegraded {
		t.Fatalf("leader state %s, want degraded", lead.state)
	}
	// f1 was promoted to a fresh leader, f2 re-attached to it; neither got
	// the tainted result.
	if f1.state.terminal() || f1.result != nil {
		t.Fatalf("promoted follower inherited tainted result: %s %v", f1.state, f1.result)
	}
	if f2.state.terminal() || f2.result != nil {
		t.Fatalf("re-attached follower inherited tainted result: %s %v", f2.state, f2.result)
	}
	requeued := <-m.queue
	if requeued != f1 {
		t.Fatalf("re-enqueued job is %v, want promoted follower %v", requeued.id, f1.id)
	}
	m.start(f1, now)
	clean := &FormResponse{Feasible: true}
	m.finish(f1, now, clean, 0, "")
	if f1.state != JobDone || f2.state != JobDone {
		t.Fatalf("clean retry states %s / %s, want done", f1.state, f2.state)
	}
	if f2.result != clean {
		t.Fatal("follower did not share the clean retry result")
	}
	snap := m.snapshot(1)
	if snap.Deduped != 2 || snap.Requeued != 1 {
		t.Fatalf("counters off: %+v", snap)
	}
}

// TestJobTTLGC expires terminal jobs with explicit clocks — no sleeps.
func TestJobTTLGC(t *testing.T) {
	m := newJobManager(4, time.Minute)
	t0 := time.Unix(0, 0)
	j, err := m.submit(t0, 1, nil, gridvo.TVOF, FormRequest{})
	if err != nil {
		t.Fatal(err)
	}
	<-m.queue
	m.start(j, t0)
	m.finish(j, t0, &FormResponse{Feasible: true}, 0, "")
	if m.get(j.id) == nil {
		t.Fatal("terminal job GC'd before TTL")
	}
	// A later submit triggers the lazy GC sweep past the TTL.
	if _, err := m.submit(t0.Add(2*time.Minute), 2, nil, gridvo.TVOF, FormRequest{Seed: 2}); err != nil {
		t.Fatal(err)
	}
	if m.get(j.id) != nil {
		t.Fatal("expired job still pollable after TTL")
	}
}

func jsonBody(t *testing.T, v any) *bytes.Reader {
	t.Helper()
	data, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return bytes.NewReader(data)
}
