package server

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"time"

	"gridvo"
	"gridvo/internal/assign"
	"gridvo/internal/matrix"
	"gridvo/internal/mechanism"
	"gridvo/internal/reputation"
	"gridvo/internal/trust"
)

// handleReputation computes the global reputation vector (eqs. 2-6,
// Algorithm 2) for a sparse trust graph.
func (s *Server) handleReputation(w http.ResponseWriter, r *http.Request) {
	var req ReputationRequest
	if !s.decodeJSON(w, r, &req) {
		return
	}
	if err := req.Validate(); err != nil {
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	scores, diag, err := reputation.Global(req.Trust, req.Options())
	if err != nil {
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	writeJSON(w, http.StatusOK, ReputationResponse{
		Scores:     scores,
		Iterations: diag.Iterations,
		Delta:      diag.Delta,
		Converged:  diag.Converged,
		Dangling:   diag.Dangling,
	})
}

// buildFormRequest validates a form request and builds its scenario —
// the shared front half of the sync /v1/vo/form path and the async job
// submit path (so a job's bad request fails fast with 400 at submit,
// never inside a worker).
func buildFormRequest(req *FormRequest) (*mechanism.Scenario, gridvo.Rule, error) {
	var rule gridvo.Rule
	switch req.Rule {
	case "", "tvof":
		rule = gridvo.TVOF
	case "rvof":
		rule = gridvo.RVOF
	default:
		return nil, 0, fmt.Errorf("unknown rule %s (want tvof or rvof)", req.Rule)
	}
	sc, err := req.Scenario.Build(req.Seed)
	if err != nil {
		return nil, 0, err
	}
	return sc, rule, nil
}

// engineFor returns the scenario, engine, and content key to solve a form
// request with: the cached pair when the scenario was seen before (so its
// coalition solutions are reused), else a fresh engine registered in the
// LRU, which keeps the -engines most recently used scenarios. The
// returned key doubles as the content half of the job tier's dedupe key.
func (s *Server) engineFor(sc *mechanism.Scenario) (*mechanism.Scenario, *mechanism.Engine, uint64) {
	key := mechanism.ScenarioKey(sc)
	if csc, eng, ok := s.engines.Get(key, sc); ok {
		return csc, eng, key
	}
	eng := mechanism.NewEngine(sc, s.cfg.Solver)
	s.engines.Add(key, sc, eng)
	return sc, eng, key
}

// solveForm runs one VO formation (Algorithm 1) to completion under ctx —
// the shared back half of the sync handler and the async job worker, so
// both paths produce bitwise-identical responses for identical requests.
func (s *Server) solveForm(ctx context.Context, sc *mechanism.Scenario, rule gridvo.Rule, req *FormRequest) (*FormResponse, error) {
	start := time.Now()
	_, eng, _ := s.engineFor(sc)

	res, err := gridvo.FormVOEngine(ctx, eng, rule, req.Seed)
	if err != nil {
		return nil, err
	}
	s.metrics.addEngine(res.Stats)

	resp := &FormResponse{
		Rule:             res.Rule.String(),
		GlobalReputation: res.GlobalReputation,
		Partial:          ctx.Err() != nil,
		Degraded:         res.Degraded,
		Engine:           engineStatsJSON(res.Stats),
		DurationMS:       float64(time.Since(start)) / float64(time.Millisecond),
	}
	if final := res.Final(); final != nil {
		resp.Feasible = true
		resp.Members = final.Members
		resp.MemberNames = make([]string, len(final.Members))
		for i, g := range final.Members {
			resp.MemberNames[i] = sc.GSPs[g].Name
		}
		resp.Payoff = final.Payoff
		resp.Value = final.Value
		resp.Cost = final.Cost
		resp.AvgReputation = final.AvgReputation
		if final.Assignment != nil {
			resp.Assignment = make([]int, len(final.Assignment))
			for j, local := range final.Assignment {
				resp.Assignment[j] = final.Members[local]
			}
		}
	}
	if req.IncludeIterations {
		resp.Iterations = make([]FormIteration, len(res.Iterations))
		for i := range res.Iterations {
			rec := &res.Iterations[i]
			resp.Iterations[i] = FormIteration{
				Members:       rec.Members,
				Feasible:      rec.Feasible,
				Cost:          rec.Cost,
				Payoff:        rec.Payoff,
				AvgReputation: rec.AvgReputation,
				Evicted:       rec.Evicted,
			}
		}
	}
	return resp, nil
}

// handleForm runs one VO formation (Algorithm 1) on a scenario,
// synchronously.
func (s *Server) handleForm(w http.ResponseWriter, r *http.Request) {
	var req FormRequest
	if !s.decodeJSON(w, r, &req) {
		return
	}
	sc, rule, err := buildFormRequest(&req)
	if err != nil {
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	ctx, cancel := s.solveContext(r, req.TimeoutMS)
	defer cancel()
	resp, err := s.solveForm(ctx, sc, rule, &req)
	if err != nil {
		writeError(w, http.StatusInternalServerError, err.Error())
		return
	}
	status := http.StatusOK
	if resp.Partial {
		// The budget expired mid-run: the reply still carries the best
		// incumbents found, but flags them as not proven optimal.
		status = http.StatusGatewayTimeout
	}
	writeJSON(w, status, resp)
}

// handleAssign solves one coalition assignment IP (eqs. 9-14) directly.
func (s *Server) handleAssign(w http.ResponseWriter, r *http.Request) {
	var req AssignRequest
	if !s.decodeJSON(w, r, &req) {
		return
	}
	if err := req.Validate(); err != nil {
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	opts := s.cfg.Solver
	if req.NodeBudget > 0 {
		opts.NodeBudget = req.NodeBudget
	}
	ctx, cancel := s.solveContext(r, req.TimeoutMS)
	defer cancel()
	start := time.Now()
	sol := assign.SolveCtx(ctx, req.Instance(), opts)
	s.metrics.addEngine(mechanism.EngineStats{Solves: 1, Nodes: sol.Stats.Nodes, WallTime: sol.Stats.WallTime})

	partial := sol.Stats.Interrupted() || ctx.Err() != nil
	resp := AssignResponse{
		Feasible:   sol.Feasible,
		Cost:       sol.Cost,
		Optimal:    sol.Optimal,
		LowerBound: sol.LowerBound,
		Gap:        sol.Gap(),
		Nodes:      sol.Nodes,
		Partial:    partial,
		DurationMS: float64(time.Since(start)) / float64(time.Millisecond),
	}
	if sol.Feasible {
		resp.Assign = sol.Assign
	}
	status := http.StatusOK
	if partial {
		status = http.StatusGatewayTimeout
	}
	writeJSON(w, status, resp)
}

// handleTrustDelta applies an edge-delta batch to the server's trust store
// and, when asked, re-solves the global reputation warm — from the
// eigenvector of the previous solve — instead of a cold start. This is the
// incremental path for long-lived trust state: clients stream small deltas
// and pay per-update solve costs proportional to how much the spectrum
// moved, not to n.
func (s *Server) handleTrustDelta(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	var req TrustDeltaRequest
	body, readErr := io.ReadAll(r.Body)
	if err := decodeTrustDelta(body, readErr, &req); err != nil {
		writeDecodeError(w, err)
		return
	}
	if err := req.Validate(); err != nil {
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	stats, err := s.store.ApplyDelta(req.N, req.Edges)
	if err != nil {
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	resp := TrustDeltaResponse{Stats: stats}
	if req.Solve {
		res, st, err := s.store.ResolveNormalized(func(a *matrix.CSR, dangling []int, warm []float64) (trust.SolveResult, error) {
			opts := reputation.Options{
				Epsilon:       req.Epsilon,
				MaxIter:       req.MaxIter,
				Damping:       req.Damping,
				InitialVector: warm,
			}
			scores, diag, err := reputation.GlobalMatrix(a, dangling, opts)
			if err != nil {
				return trust.SolveResult{}, err
			}
			return trust.SolveResult{
				Scores:     scores,
				Iterations: diag.Iterations,
				Converged:  diag.Converged,
				Warm:       diag.Warm,
			}, nil
		})
		if err != nil {
			writeError(w, http.StatusBadRequest, err.Error())
			return
		}
		resp.Stats = st
		resp.Solved = true
		resp.Iterations = res.Iterations
		resp.Converged = res.Converged
		resp.Warm = res.Warm
		if req.IncludeScores {
			resp.Scores = res.Scores
		}
	}
	resp.DurationMS = float64(time.Since(start)) / float64(time.Millisecond)
	writeJSON(w, http.StatusOK, resp)
}

// handleTrustStats reports the trust store's current shape and solve
// counters without mutating anything.
func (s *Server) handleTrustStats(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.store.Stats())
}

// handleHealthz reports liveness.
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, HealthResponse{Status: "ok"})
}

// handleMetrics dumps the counter snapshot.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.metrics.Snapshot(
		s.engines.Stats(),
		s.jobs.snapshot(s.cfg.JobWorkers),
		s.routes,
	))
}
