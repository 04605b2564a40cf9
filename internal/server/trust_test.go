package server

import (
	"encoding/json"
	"fmt"
	"net/http"
	"testing"

	"gridvo/internal/trust"
	"gridvo/internal/xrand"
)

// deltaOps converts a generated graph into one flat edge batch, so tests
// can seed the store with a realistic topology in a single POST.
func deltaOps(g *trust.Graph) []trust.DeltaOp {
	var ops []trust.DeltaOp
	for i := 0; i < g.N(); i++ {
		g.VisitNeighbors(i, func(j int, w float64) {
			ops = append(ops, trust.DeltaOp{From: i, To: j, Weight: w})
		})
	}
	return ops
}

func TestTrustDeltaRoundTripAndWarmResolve(t *testing.T) {
	_, ts := newTestServer(t, Config{})

	// Cold: seed a 400-node sparse graph and solve.
	g := trust.SparseErdosRenyi(xrand.New(5), 400, 10)
	code, data := postJSON(t, ts.URL+"/v1/trust/delta", TrustDeltaRequest{
		N: g.N(), Edges: deltaOps(g), Solve: true, IncludeScores: true,
	})
	if code != http.StatusOK {
		t.Fatalf("seed delta status %d: %s", code, data)
	}
	var cold TrustDeltaResponse
	if err := json.Unmarshal(data, &cold); err != nil {
		t.Fatal(err)
	}
	if !cold.Solved || !cold.Converged || cold.Warm {
		t.Fatalf("cold solve flags off: %+v", cold)
	}
	if cold.Stats.N != 400 || cold.Stats.Edges != g.NumEdges() {
		t.Fatalf("store shape %+v, want n=400 edges=%d", cold.Stats, g.NumEdges())
	}
	if len(cold.Scores) != 400 {
		t.Fatalf("include_scores returned %d scores", len(cold.Scores))
	}
	sum := 0.0
	for _, x := range cold.Scores {
		sum += x
	}
	if sum < 0.999 || sum > 1.001 {
		t.Fatalf("scores not L1-normalized: sum %v", sum)
	}

	// Warm: a small perturbation re-solves from the previous eigenvector
	// in strictly fewer iterations than the cold start took.
	code, data = postJSON(t, ts.URL+"/v1/trust/delta", TrustDeltaRequest{
		Edges: []trust.DeltaOp{{From: 1, To: 2, Weight: 0.5}},
		Solve: true,
	})
	if code != http.StatusOK {
		t.Fatalf("warm delta status %d: %s", code, data)
	}
	var warm TrustDeltaResponse
	if err := json.Unmarshal(data, &warm); err != nil {
		t.Fatal(err)
	}
	if !warm.Solved || !warm.Converged || !warm.Warm {
		t.Fatalf("warm solve flags off: %+v", warm)
	}
	if warm.Scores != nil {
		t.Fatalf("scores returned without include_scores")
	}
	if warm.Iterations >= cold.Iterations {
		t.Fatalf("warm re-solve took %d iterations, cold took %d", warm.Iterations, cold.Iterations)
	}

	// Stats reflect both batches and both solves.
	var st trust.StoreStats
	if code := getJSON(t, ts.URL+"/v1/trust/stats", &st); code != http.StatusOK {
		t.Fatalf("stats status %d", code)
	}
	if st.N != 400 || st.Ops != uint64(len(deltaOps(g))+1) {
		t.Fatalf("stats %+v", st)
	}
	if st.Solves != 2 || st.WarmSolves != 1 || !st.HasVector {
		t.Fatalf("solve counters off: %+v", st)
	}
	if st.Version != 2 {
		t.Fatalf("version %d after two batches", st.Version)
	}
}

func TestTrustDeltaGrowsAndDeletes(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	code, data := postJSON(t, ts.URL+"/v1/trust/delta", TrustDeltaRequest{
		N: 3, Edges: []trust.DeltaOp{{From: 0, To: 1, Weight: 0.9}, {From: 1, To: 2, Weight: 0.4}},
	})
	if code != http.StatusOK {
		t.Fatalf("status %d: %s", code, data)
	}
	// Delete one edge and grow to 5 in the same batch.
	code, data = postJSON(t, ts.URL+"/v1/trust/delta", TrustDeltaRequest{
		N: 5, Edges: []trust.DeltaOp{{From: 1, To: 2, Weight: 0}},
	})
	if code != http.StatusOK {
		t.Fatalf("status %d: %s", code, data)
	}
	var resp TrustDeltaResponse
	if err := json.Unmarshal(data, &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Stats.N != 5 || resp.Stats.Edges != 1 {
		t.Fatalf("store shape %+v, want n=5 edges=1", resp.Stats)
	}
	if resp.Solved {
		t.Fatalf("unrequested solve ran: %+v", resp)
	}
}

func TestTrustDeltaValidation(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	for _, tc := range []struct {
		name string
		body any
	}{
		{"empty batch", TrustDeltaRequest{}},
		{"negative n", `{"n": -1, "edges": [{"from":0,"to":1,"weight":1}]}`},
		{"out-of-range edge", TrustDeltaRequest{N: 2, Edges: []trust.DeltaOp{{From: 0, To: 7, Weight: 1}}}},
		{"negative from", TrustDeltaRequest{N: 2, Edges: []trust.DeltaOp{{From: -1, To: 1, Weight: 1}}}},
		{"bad weight", TrustDeltaRequest{N: 2, Edges: []trust.DeltaOp{{From: 0, To: 1, Weight: -3}}}},
		{"bad damping", TrustDeltaRequest{N: 2, Edges: []trust.DeltaOp{{From: 0, To: 1, Weight: 1}}, Damping: 1.5, Solve: true}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			code, data := postJSON(t, ts.URL+"/v1/trust/delta", tc.body)
			if code != http.StatusBadRequest {
				t.Fatalf("status %d: %s", code, data)
			}
		})
	}

	// A rejected batch must leave the store untouched (atomicity over HTTP).
	var st trust.StoreStats
	getJSON(t, ts.URL+"/v1/trust/stats", &st)
	if st.N != 0 || st.Edges != 0 || st.Ops != 0 {
		t.Fatalf("rejected batches mutated the store: %+v", st)
	}
}

// TestOversizedTrustRejected: a body of a few bytes can name enough
// edgeless nodes that the uniform dangling fix of eq. 1 would need n²
// matrix entries, or a node count whose row headers alone exhaust memory.
// Both endpoints answer 400 before allocating, and the server keeps
// serving.
func TestOversizedTrustRejected(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	over := trust.MaxEntries + 1
	for _, tc := range []struct {
		name, path, body string
	}{
		{"reputation, edgeless n=1e5", "/v1/reputation", `{"trust":{"n":100000,"edges":[]}}`},
		{"delta, edgeless n=1e5 solve", "/v1/trust/delta", `{"n":100000,"solve":true}`},
		{"reputation, n above the limit", "/v1/reputation", fmt.Sprintf(`{"trust":{"n":%d,"edges":[]}}`, over)},
		{"delta, n above the limit", "/v1/trust/delta", fmt.Sprintf(`{"n":%d}`, over)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			code, data := postJSON(t, ts.URL+tc.path, tc.body)
			if code != http.StatusBadRequest {
				t.Fatalf("status %d: %s", code, data)
			}
			if code := getJSON(t, ts.URL+"/healthz", nil); code != http.StatusOK {
				t.Fatalf("healthz after the oversized body: %d", code)
			}
		})
	}
	code, data := postJSON(t, ts.URL+"/v1/reputation", `{"trust":{"n":2,"edges":[{"from":0,"to":1,"weight":1},{"from":1,"to":0,"weight":1}]}}`)
	if code != http.StatusOK {
		t.Fatalf("small reputation request after the oversized ones: status %d: %s", code, data)
	}
}

func TestTrustDeltaAtomicRollbackOverHTTP(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	// First op valid, second invalid: neither may land.
	code, _ := postJSON(t, ts.URL+"/v1/trust/delta", TrustDeltaRequest{
		N: 4,
		Edges: []trust.DeltaOp{
			{From: 0, To: 1, Weight: 0.8},
			{From: 2, To: 9, Weight: 0.5},
		},
	})
	if code != http.StatusBadRequest {
		t.Fatalf("mixed batch status %d", code)
	}
	var st trust.StoreStats
	getJSON(t, ts.URL+"/v1/trust/stats", &st)
	if st.Edges != 0 || st.Version != 0 {
		t.Fatalf("partial batch applied: %+v", st)
	}
}

func TestTrustStatsDensity(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	var ops []trust.DeltaOp
	n := 10
	for i := 0; i < n; i++ {
		ops = append(ops, trust.DeltaOp{From: i, To: (i + 1) % n, Weight: 1})
	}
	code, _ := postJSON(t, ts.URL+"/v1/trust/delta", TrustDeltaRequest{N: n, Edges: ops})
	if code != http.StatusOK {
		t.Fatalf("status %d", code)
	}
	var st trust.StoreStats
	getJSON(t, ts.URL+"/v1/trust/stats", &st)
	want := float64(n) / float64(n*(n-1))
	if st.Density != want {
		t.Fatalf("density %v, want %v", st.Density, want)
	}
	if got := fmt.Sprintf("%d/%d", st.Edges, st.N); got != "10/10" {
		t.Fatalf("shape %s", got)
	}
}
