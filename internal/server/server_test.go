package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"gridvo/internal/adversary"
	"gridvo/internal/assign"
	"gridvo/internal/mechanism"
	"gridvo/internal/reputation"
	"gridvo/internal/trust"
)

func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	s := New(cfg)
	ts := httptest.NewServer(s.mux)
	t.Cleanup(func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := s.DrainJobs(ctx); err != nil {
			t.Errorf("draining job workers: %v", err)
		}
	})
	return s, ts
}

func postJSON(t *testing.T, url string, body any) (int, []byte) {
	t.Helper()
	var buf bytes.Buffer
	switch b := body.(type) {
	case string:
		buf.WriteString(b)
	default:
		if err := json.NewEncoder(&buf).Encode(body); err != nil {
			t.Fatal(err)
		}
	}
	resp, err := http.Post(url, "application/json", &buf)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, data
}

func getJSON(t *testing.T, url string, dst any) int {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if dst != nil {
		if err := json.Unmarshal(data, dst); err != nil {
			t.Fatalf("decoding %s: %v\n%s", url, err, data)
		}
	}
	return resp.StatusCode
}

func ringTrust(n int) *trust.Graph {
	g := trust.NewGraph(n)
	for i := 0; i < n; i++ {
		g.SetTrust(i, (i+1)%n, 0.5+0.1*float64(i))
	}
	return g
}

func TestHealthz(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	var h HealthResponse
	if code := getJSON(t, ts.URL+"/healthz", &h); code != http.StatusOK {
		t.Fatalf("healthz status %d", code)
	}
	if h.Status != "ok" {
		t.Fatalf("healthz body %+v", h)
	}
}

func TestReputationHappyPath(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	code, data := postJSON(t, ts.URL+"/v1/reputation", ReputationRequest{Trust: ringTrust(3)})
	if code != http.StatusOK {
		t.Fatalf("status %d: %s", code, data)
	}
	var resp ReputationResponse
	if err := json.Unmarshal(data, &resp); err != nil {
		t.Fatal(err)
	}
	if len(resp.Scores) != 3 {
		t.Fatalf("want 3 scores, got %v", resp.Scores)
	}
	sum := 0.0
	for _, x := range resp.Scores {
		sum += x
	}
	if sum < 0.999 || sum > 1.001 {
		t.Fatalf("scores not L1-normalized: %v", resp.Scores)
	}
	if !resp.Converged || resp.Iterations == 0 {
		t.Fatalf("power method diagnostics off: %+v", resp)
	}
}

func TestReputationValidation(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	for name, body := range map[string]any{
		"no trust":    `{}`,
		"bad damping": ReputationRequest{Trust: ringTrust(3), Damping: 1.5},
	} {
		if code, data := postJSON(t, ts.URL+"/v1/reputation", body); code != http.StatusBadRequest {
			t.Fatalf("%s: want 400, got %d: %s", name, code, data)
		}
	}
}

// starTrust is a 3-node star trusted both ways, a periodic chain: the
// power iteration oscillates on it and runs to max_iter.
func starTrust() *trust.Graph {
	g := trust.NewGraph(3)
	for _, leaf := range []int{1, 2} {
		g.SetTrust(0, leaf, 1)
		g.SetTrust(leaf, 0, 1)
	}
	return g
}

// TestReputationMaxIterCapped: the power iteration does not watch the
// request deadline, so max_iter above reputation.DefaultMaxIter is a 400
// naming the cap; a 20,000,000 cap on the star once answered 200 after
// about a second on a server whose MaxTimeout was 200 ms.
func TestReputationMaxIterCapped(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	limit := reputation.DefaultMaxIter
	for _, maxIter := range []int{limit + 1, 20_000_000} {
		code, data := postJSON(t, ts.URL+"/v1/reputation", ReputationRequest{Trust: starTrust(), MaxIter: maxIter})
		if code != http.StatusBadRequest || !strings.Contains(string(data), strconv.Itoa(limit)) {
			t.Fatalf("max_iter %d: status %d: %s, want a 400 naming the cap %d", maxIter, code, data, limit)
		}
	}
	code, data := postJSON(t, ts.URL+"/v1/reputation", ReputationRequest{Trust: starTrust(), MaxIter: limit})
	if code != http.StatusOK {
		t.Fatalf("max_iter at the cap: status %d: %s", code, data)
	}
	var resp ReputationResponse
	if err := json.Unmarshal(data, &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Converged || resp.Iterations != limit {
		t.Fatalf("the star should run to the cap unconverged: %+v", resp)
	}
}

func TestMalformedJSONIs400(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	for _, route := range []string{"/v1/reputation", "/v1/vo/form", "/v1/assign", "/v1/trust/delta", "/v1/jobs"} {
		code, data := postJSON(t, ts.URL+route, `{"unterminated`)
		if code != http.StatusBadRequest {
			t.Fatalf("%s: want 400 for malformed JSON, got %d: %s", route, code, data)
		}
		var e ErrorResponse
		if err := json.Unmarshal(data, &e); err != nil || e.Error == "" {
			t.Fatalf("%s: error body malformed: %s", route, data)
		}
	}
}

func TestOversizedBodyIs413(t *testing.T) {
	_, ts := newTestServer(t, Config{MaxBodyBytes: 64})
	big := `{"trust": {"n": 3, "edges": [` + strings.Repeat(`{"from":0,"to":1,"weight":0.5},`, 50) + `]}}`
	for _, route := range []string{"/v1/reputation", "/v1/trust/delta", "/v1/jobs"} {
		code, data := postJSON(t, ts.URL+route, big)
		if code != http.StatusRequestEntityTooLarge {
			t.Fatalf("%s: want 413, got %d: %s", route, code, data)
		}
		var e ErrorResponse
		if err := json.Unmarshal(data, &e); err != nil || e.Error != "request body exceeds 64 bytes" {
			t.Fatalf("%s: error body %s", route, data)
		}
	}
}

func TestMethodNotAllowedAndNotFound(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	if code := getJSON(t, ts.URL+"/v1/reputation", nil); code != http.StatusMethodNotAllowed {
		t.Fatalf("GET on POST route: want 405, got %d", code)
	}
	if code := getJSON(t, ts.URL+"/no/such/route", nil); code != http.StatusNotFound {
		t.Fatalf("want 404, got %d", code)
	}
}

func TestFormHappyPathAndEngineReuse(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	spec := mechanism.SampleSpec(1)
	req := FormRequest{Scenario: *spec, Seed: 1, IncludeIterations: true}

	code, data := postJSON(t, ts.URL+"/v1/vo/form", req)
	if code != http.StatusOK {
		t.Fatalf("status %d: %s", code, data)
	}
	var first FormResponse
	if err := json.Unmarshal(data, &first); err != nil {
		t.Fatal(err)
	}
	if !first.Feasible || len(first.Members) == 0 || first.Partial || first.Degraded {
		t.Fatalf("first run malformed: %+v", first)
	}
	if first.Engine.Solves == 0 {
		t.Fatalf("first run reported no fresh solves: %+v", first.Engine)
	}
	if len(first.Assignment) != len(spec.Tasks) {
		t.Fatalf("assignment covers %d of %d tasks", len(first.Assignment), len(spec.Tasks))
	}
	members := map[int]bool{}
	for _, g := range first.Members {
		members[g] = true
	}
	for j, g := range first.Assignment {
		if !members[g] {
			t.Fatalf("task %d assigned to non-member GSP %d", j, g)
		}
	}
	if len(first.Iterations) == 0 {
		t.Fatal("include_iterations returned no trace")
	}

	// The identical request must hit the same engine: zero fresh solves.
	code, data = postJSON(t, ts.URL+"/v1/vo/form", req)
	if code != http.StatusOK {
		t.Fatalf("second status %d: %s", code, data)
	}
	var second FormResponse
	if err := json.Unmarshal(data, &second); err != nil {
		t.Fatal(err)
	}
	if second.Engine.Solves != 0 || second.Engine.CacheHits == 0 {
		t.Fatalf("second run not served from cache: %+v", second.Engine)
	}
	if second.Payoff != first.Payoff || len(second.Members) != len(first.Members) {
		t.Fatalf("cache changed the answer: %+v vs %+v", second, first)
	}
	if n := s.engines.Stats().Entries; n != 1 {
		t.Fatalf("want 1 live engine, got %d", n)
	}

	// /metrics reflects the rising hit rate.
	var snap MetricsSnapshot
	if code := getJSON(t, ts.URL+"/metrics", &snap); code != http.StatusOK {
		t.Fatalf("metrics status %d", code)
	}
	if snap.Engine.CacheHits == 0 || snap.Engine.HitRate <= 0 {
		t.Fatalf("metrics missing cache hits: %+v", snap.Engine)
	}
	if snap.Engines != 1 {
		t.Fatalf("metrics engines = %d", snap.Engines)
	}
}

func TestFormValidation(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	spec := mechanism.SampleSpec(1)
	bad := FormRequest{Scenario: *spec, Rule: "bogus"}
	if code, data := postJSON(t, ts.URL+"/v1/vo/form", bad); code != http.StatusBadRequest {
		t.Fatalf("unknown rule: want 400, got %d: %s", code, data)
	}
	empty := FormRequest{}
	if code, data := postJSON(t, ts.URL+"/v1/vo/form", empty); code != http.StatusBadRequest {
		t.Fatalf("empty scenario: want 400, got %d: %s", code, data)
	}
}

// TestFormAdversaryValidation pins the wire contract for the scenario
// spec's adversary block: malformed blocks are 400s carrying the precise
// validation message, and a well-formed block runs to a 200.
func TestFormAdversaryValidation(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	cases := []struct {
		name    string
		spec    *adversary.Spec
		wantMsg string
	}{
		{"unknown class", &adversary.Spec{Class: "eclipse", Size: 2},
			`unknown class "eclipse" (want collusion, sybil, whitewash, or slander)`},
		{"negative rate", &adversary.Spec{Class: adversary.ClassSlander, Size: 2, Rate: -0.5}, "rate"},
		{"clique exceeds n", &adversary.Spec{Class: adversary.ClassCollusion, Size: 5},
			"collusion clique size 5 exceeds 4 GSPs"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			spec := mechanism.SampleSpec(1)
			spec.Adversary = tc.spec
			code, data := postJSON(t, ts.URL+"/v1/vo/form", FormRequest{Scenario: *spec, Seed: 1})
			if code != http.StatusBadRequest {
				t.Fatalf("want 400, got %d: %s", code, data)
			}
			var er ErrorResponse
			if err := json.Unmarshal(data, &er); err != nil {
				t.Fatalf("error body not JSON: %v: %s", err, data)
			}
			if !strings.Contains(er.Error, tc.wantMsg) {
				t.Fatalf("error %q does not mention %q", er.Error, tc.wantMsg)
			}
		})
	}

	spec := mechanism.SampleSpec(1)
	spec.Adversary = &adversary.Spec{Class: adversary.ClassSybil, Size: 2}
	code, data := postJSON(t, ts.URL+"/v1/vo/form", FormRequest{Scenario: *spec, Seed: 1})
	if code != http.StatusOK {
		t.Fatalf("valid sybil block: want 200, got %d: %s", code, data)
	}
	var resp FormResponse
	if err := json.Unmarshal(data, &resp); err != nil {
		t.Fatal(err)
	}
	if !resp.Feasible {
		t.Fatalf("adversarial form found no feasible VO: %s", data)
	}
	// The sybil ring grew the grid from 4 to 6 GSPs, so the grand
	// coalition's reputation vector must cover the fakes too.
	if len(resp.GlobalReputation) != 6 {
		t.Fatalf("reputation vector has %d entries, want 6 (4 honest + 2 sybils)", len(resp.GlobalReputation))
	}
}

func TestAssignHappyPath(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	req := AssignRequest{
		Cost:     [][]float64{{1, 10}, {10, 1}},
		Time:     [][]float64{{1, 1}, {1, 1}},
		Deadline: 10,
	}
	code, data := postJSON(t, ts.URL+"/v1/assign", req)
	if code != http.StatusOK {
		t.Fatalf("status %d: %s", code, data)
	}
	var resp AssignResponse
	if err := json.Unmarshal(data, &resp); err != nil {
		t.Fatal(err)
	}
	if !resp.Feasible || !resp.Optimal || resp.Cost != 2 {
		t.Fatalf("assign result off: %+v", resp)
	}
	if len(resp.Assign) != 2 || resp.Assign[0] != 0 || resp.Assign[1] != 1 {
		t.Fatalf("assignment off: %+v", resp.Assign)
	}
}

func TestAssignValidation(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	for name, req := range map[string]AssignRequest{
		"empty":  {},
		"ragged": {Cost: [][]float64{{1, 2}, {3}}, Time: [][]float64{{1, 1}, {1, 1}}, Deadline: 5},
		"noDead": {Cost: [][]float64{{1}}, Time: [][]float64{{1}}},
	} {
		if code, data := postJSON(t, ts.URL+"/v1/assign", req); code != http.StatusBadRequest {
			t.Fatalf("%s: want 400, got %d: %s", name, code, data)
		}
	}
}

// blockingSolver returns a solver that blocks until the context is done,
// then reports an interrupted, infeasible search — deterministic fuel for
// the deadline-expiry path.
func blockingSolver() assign.Solver {
	return assign.SolverFunc(func(ctx context.Context, in *assign.Instance, opts assign.Options) assign.Solution {
		<-ctx.Done()
		return assign.Solution{Stats: assign.Stats{PrunedByDeadline: 1}}
	})
}

// registerEngine pre-registers an engine for the spec so a handler request
// with the same scenario and seed resolves to it.
func registerEngine(t *testing.T, s *Server, spec *mechanism.ScenarioSpec, seed uint64, solver assign.Solver) {
	t.Helper()
	sc, err := spec.Build(seed)
	if err != nil {
		t.Fatal(err)
	}
	eng := mechanism.NewEngine(sc, assign.Options{})
	eng.SetSolver(solver)
	s.engines.Add(mechanism.ScenarioKey(sc), sc, eng)
}

func TestExpiredDeadlineIs504WithPartialFlag(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	spec := mechanism.SampleSpec(2)
	registerEngine(t, s, spec, 2, blockingSolver())

	req := FormRequest{Scenario: *spec, Seed: 2, TimeoutMS: 30}
	code, data := postJSON(t, ts.URL+"/v1/vo/form", req)
	if code != http.StatusGatewayTimeout {
		t.Fatalf("want 504, got %d: %s", code, data)
	}
	var resp FormResponse
	if err := json.Unmarshal(data, &resp); err != nil {
		t.Fatal(err)
	}
	if !resp.Partial {
		t.Fatalf("504 reply without partial flag: %+v", resp)
	}
	if resp.Feasible {
		t.Fatalf("blocked solver cannot produce a feasible VO: %+v", resp)
	}
}

func TestAssignExpiredDeadlineIs504(t *testing.T) {
	// A real (not stubbed) B&B on a larger instance with a 1 ms budget:
	// the search is interrupted and the reply flags the incumbent partial.
	_, ts := newTestServer(t, Config{})
	const k, n = 8, 120
	req := AssignRequest{Deadline: float64(n), TimeoutMS: 1}
	for i := 0; i < k; i++ {
		costs := make([]float64, n)
		times := make([]float64, n)
		for j := 0; j < n; j++ {
			costs[j] = float64((i*31+j*17)%97 + 1)
			times[j] = 1
		}
		req.Cost = append(req.Cost, costs)
		req.Time = append(req.Time, times)
	}
	code, data := postJSON(t, ts.URL+"/v1/assign", req)
	var resp AssignResponse
	if err := json.Unmarshal(data, &resp); err != nil {
		t.Fatal(err)
	}
	if code == http.StatusOK && resp.Optimal {
		// Tiny machines can finish even this in 1 ms; accept a proven
		// optimum but require consistency.
		if resp.Partial {
			t.Fatalf("optimal result flagged partial: %+v", resp)
		}
		return
	}
	if code != http.StatusGatewayTimeout || !resp.Partial {
		t.Fatalf("want 504+partial, got %d: %s", code, data)
	}
}

func TestMetricsExposeWarmStartCounters(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	spec := mechanism.SampleSpec(1)
	code, data := postJSON(t, ts.URL+"/v1/vo/form", FormRequest{Scenario: *spec, Seed: 1})
	if code != http.StatusOK {
		t.Fatalf("status %d: %s", code, data)
	}
	var form FormResponse
	if err := json.Unmarshal(data, &form); err != nil {
		t.Fatal(err)
	}
	// The eviction loop solves a chain of nested coalitions, so every solve
	// after the first inherits its parent's incumbent.
	if form.Engine.WarmStarts == 0 {
		t.Fatalf("form run reported no warm starts: %+v", form.Engine)
	}
	if form.Engine.SeedAccepted > form.Engine.WarmStarts || form.Engine.SeedWins > form.Engine.SeedAccepted {
		t.Fatalf("seed counters inconsistent: %+v", form.Engine)
	}
	if r := form.Engine.WarmStartRate; r < 0 || r > 1 {
		t.Fatalf("warm-start rate %v outside [0,1]", r)
	}
	if form.Engine.PowerIterations == 0 {
		t.Fatalf("form run reported no power iterations: %+v", form.Engine)
	}

	// /metrics aggregates the same counters and serializes every field.
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	raw, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	var snap MetricsSnapshot
	if err := json.Unmarshal(raw, &snap); err != nil {
		t.Fatal(err)
	}
	if snap.Engine.WarmStarts != form.Engine.WarmStarts ||
		snap.Engine.SeedAccepted != form.Engine.SeedAccepted ||
		snap.Engine.PowerIterations != form.Engine.PowerIterations ||
		snap.Engine.PowerIterationsSaved != form.Engine.PowerIterationsSaved {
		t.Fatalf("metrics totals disagree with the only request: %+v vs %+v", snap.Engine, form.Engine)
	}
	for _, field := range []string{"warm_starts", "seed_accepted", "seed_wins", "warm_start_rate", "power_iterations", "power_iterations_saved"} {
		if !bytes.Contains(raw, []byte(`"`+field+`"`)) {
			t.Fatalf("/metrics body missing %q: %s", field, raw)
		}
	}
}

func TestMetricsCountersAdvance(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	var before MetricsSnapshot
	getJSON(t, ts.URL+"/metrics", &before)

	getJSON(t, ts.URL+"/healthz", nil)
	postJSON(t, ts.URL+"/v1/reputation", ReputationRequest{Trust: ringTrust(4)})
	postJSON(t, ts.URL+"/v1/reputation", `{"unterminated`)

	var after MetricsSnapshot
	getJSON(t, ts.URL+"/metrics", &after)
	if after.Requests["/healthz"] != before.Requests["/healthz"]+1 {
		t.Fatalf("healthz count did not advance: %v -> %v", before.Requests, after.Requests)
	}
	if after.Requests["/v1/reputation"] != before.Requests["/v1/reputation"]+2 {
		t.Fatalf("reputation count did not advance by 2: %v -> %v", before.Requests, after.Requests)
	}
	if after.Responses["2xx"] <= before.Responses["2xx"] {
		t.Fatalf("2xx count did not advance: %v -> %v", before.Responses, after.Responses)
	}
	if after.Responses["4xx"] != before.Responses["4xx"]+1 {
		t.Fatalf("4xx count did not advance: %v -> %v", before.Responses, after.Responses)
	}
	if after.Latency.Count <= before.Latency.Count {
		t.Fatalf("latency histogram did not advance: %+v", after.Latency)
	}
	// The snapshot counts the /metrics request serving it; once every
	// request has returned the gauge must be back to zero.
	if after.InFlight != 1 {
		t.Fatalf("snapshot should count its own request in flight: %d", after.InFlight)
	}
	if got := s.metrics.inFlight.Load(); got != 0 {
		t.Fatalf("in-flight gauge leaked: %d", got)
	}
}

func TestGracefulShutdownDrainsInFlight(t *testing.T) {
	s := New(Config{})
	spec := mechanism.SampleSpec(3)
	slow := assign.SolverFunc(func(ctx context.Context, in *assign.Instance, opts assign.Options) assign.Solution {
		time.Sleep(150 * time.Millisecond)
		return assign.Solution{Optimal: true}
	})
	registerEngine(t, s, spec, 3, slow)

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	serveDone := make(chan error, 1)
	go func() { serveDone <- s.Serve(ctx, ln, 5*time.Second) }()

	url := fmt.Sprintf("http://%s/v1/vo/form", ln.Addr())
	type result struct {
		code int
		err  error
	}
	reqDone := make(chan result, 1)
	go func() {
		var buf bytes.Buffer
		_ = json.NewEncoder(&buf).Encode(FormRequest{Scenario: *spec, Seed: 3})
		resp, err := http.Post(url, "application/json", &buf)
		if err != nil {
			reqDone <- result{err: err}
			return
		}
		resp.Body.Close()
		reqDone <- result{code: resp.StatusCode}
	}()

	// Wait for the request to be in flight, then trigger shutdown.
	deadline := time.Now().Add(2 * time.Second)
	for s.metrics.inFlight.Load() == 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	cancel()

	if err := <-serveDone; err != nil {
		t.Fatalf("Serve did not shut down cleanly: %v", err)
	}
	res := <-reqDone
	if res.err != nil {
		t.Fatalf("in-flight request dropped during shutdown: %v", res.err)
	}
	if res.code != http.StatusOK {
		t.Fatalf("in-flight request got status %d", res.code)
	}
}

// TestConcurrentFormsCountOwnEngineWork: two form requests with different
// seeds run at the same time on one cached scenario. Each reply's engine
// block must count only its own run's work, so the two sum to the engine's
// own totals, as do the /metrics engine totals.
func TestConcurrentFormsCountOwnEngineWork(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	// An explicit cost matrix makes the scenario independent of the
	// request seed, so both requests resolve to one engine.
	spec := mechanism.SampleSpec(3)
	sc, err := spec.Build(3)
	if err != nil {
		t.Fatal(err)
	}
	spec.Cost = sc.Cost
	// The first two solves wait for each other, so both runs are inside
	// the engine at once; later solves are slowed so neither run can
	// finish before the other's first solve is counted.
	var mu sync.Mutex
	arrived := 0
	both := make(chan struct{})
	registerEngine(t, s, spec, 3, assign.SolverFunc(func(ctx context.Context, in *assign.Instance, opts assign.Options) assign.Solution {
		mu.Lock()
		arrived++
		n := arrived
		if n == 2 {
			close(both)
		}
		mu.Unlock()
		if n <= 2 {
			select {
			case <-both:
			case <-time.After(5 * time.Second):
			}
		} else {
			time.Sleep(5 * time.Millisecond)
		}
		return assign.SolveCtx(ctx, in, opts)
	}))

	replies := make([]FormResponse, 2)
	errs := make([]error, 2)
	var wg sync.WaitGroup
	for i := range replies {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			body, err := json.Marshal(FormRequest{Scenario: *spec, Seed: uint64(10 + i)})
			if err != nil {
				errs[i] = err
				return
			}
			resp, err := http.Post(ts.URL+"/v1/vo/form", "application/json", bytes.NewReader(body))
			if err != nil {
				errs[i] = err
				return
			}
			defer resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				errs[i] = fmt.Errorf("status %d", resp.StatusCode)
				return
			}
			errs[i] = json.NewDecoder(resp.Body).Decode(&replies[i])
		}(i)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	if n := s.engines.Stats().Entries; n != 1 {
		t.Fatalf("the two requests resolved to %d engines, want 1", n)
	}
	_, eng, _ := s.engineFor(sc)
	total := eng.Stats()
	sum := replies[0].Engine.Solves + replies[1].Engine.Solves
	if sum != total.Solves {
		t.Fatalf("replies report %d + %d solves, the engine did %d", replies[0].Engine.Solves, replies[1].Engine.Solves, total.Solves)
	}
	if hits := replies[0].Engine.CacheHits + replies[1].Engine.CacheHits; hits != total.CacheHits {
		t.Fatalf("replies report %d cache hits, the engine served %d", hits, total.CacheHits)
	}
	var snap MetricsSnapshot
	getJSON(t, ts.URL+"/metrics", &snap)
	if snap.Engine.Solves != total.Solves || snap.Engine.Nodes != total.Nodes {
		t.Fatalf("/metrics engine totals %d solves %d nodes, the engine did %d and %d",
			snap.Engine.Solves, snap.Engine.Nodes, total.Solves, total.Nodes)
	}
}
