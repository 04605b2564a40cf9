package server

import (
	"fmt"
	"time"

	"gridvo/internal/assign"
	"gridvo/internal/mechanism"
	"gridvo/internal/reputation"
	"gridvo/internal/trust"
)

// ErrorResponse is the body of every non-2xx reply.
type ErrorResponse struct {
	Error string `json:"error"`
}

// ReputationRequest asks for the global reputation vector (eq. 6) of a
// trust graph, supplied in sparse edge-list form:
//
//	{"trust": {"n": 4, "edges": [{"from":0,"to":1,"weight":0.8}, ...]},
//	 "epsilon": 1e-9, "max_iter": 10000, "damping": 0}
//
// Zero values select the mechanism defaults (Algorithm 2's stopping rule,
// uniform dangling fix, no damping).
type ReputationRequest struct {
	Trust   *trust.Graph `json:"trust"`
	Epsilon float64      `json:"epsilon,omitempty"`
	MaxIter int          `json:"max_iter,omitempty"`
	Damping float64      `json:"damping,omitempty"`
}

// Validate rejects requests the power method cannot run on.
func (r *ReputationRequest) Validate() error {
	if r.Trust == nil || r.Trust.N() == 0 {
		return fmt.Errorf("request has no trust graph (want {\"trust\": {\"n\": ..., \"edges\": [...]}})")
	}
	return validateSolve(r.Epsilon, r.MaxIter, r.Damping)
}

// Options converts the request to reputation power-method options.
func (r *ReputationRequest) Options() reputation.Options {
	return reputation.Options{
		Epsilon:         r.Epsilon,
		MaxIter:         r.MaxIter,
		Damping:         r.Damping,
		DanglingUniform: true,
	}
}

// validateSolve rejects power-method parameters the solver cannot run
// with. max_iter is capped at reputation.DefaultMaxIter: the iteration
// does not watch the request deadline, and on a periodic graph it runs
// to the cap, holding the trust store's lock on /v1/trust/delta.
func validateSolve(epsilon float64, maxIter int, damping float64) error {
	if epsilon < 0 {
		return fmt.Errorf("negative epsilon %v", epsilon)
	}
	if maxIter < 0 {
		return fmt.Errorf("negative max_iter %d", maxIter)
	}
	if maxIter > reputation.DefaultMaxIter {
		return fmt.Errorf("max_iter %d above the cap %d", maxIter, reputation.DefaultMaxIter)
	}
	if damping < 0 || damping >= 1 {
		return fmt.Errorf("damping %v outside [0,1)", damping)
	}
	return nil
}

// ReputationResponse carries the global reputation vector and the power
// iteration's diagnostics.
type ReputationResponse struct {
	// Scores is the L1-normalized global reputation vector x, one entry
	// per GSP.
	Scores []float64 `json:"scores"`
	// Iterations, Delta, Converged describe how Algorithm 2 stopped.
	Iterations int     `json:"iterations"`
	Delta      float64 `json:"delta"`
	Converged  bool    `json:"converged"`
	// Dangling lists GSPs with no outgoing trust (patched uniformly).
	Dangling []int `json:"dangling,omitempty"`
}

// TrustDeltaRequest applies an edge-delta batch to the server's trust
// store — the incremental-reputation path. Edges with weight 0 delete.
// N, when positive, grows the store to at least that many GSPs before the
// batch applies (new nodes start edgeless). With solve=true the store
// re-solves the global reputation from its previous eigenvector (a warm
// start) after the batch lands.
//
//	{"n": 4, "edges": [{"from":0,"to":1,"weight":0.8}, ...],
//	 "solve": true, "include_scores": true}
type TrustDeltaRequest struct {
	N     int             `json:"n,omitempty"`
	Edges []trust.DeltaOp `json:"edges"`
	// Epsilon / MaxIter / Damping tune the re-solve as in
	// ReputationRequest; used only with solve=true.
	Epsilon float64 `json:"epsilon,omitempty"`
	MaxIter int     `json:"max_iter,omitempty"`
	Damping float64 `json:"damping,omitempty"`
	// Solve triggers a (warm) re-solve after the batch applies.
	Solve bool `json:"solve,omitempty"`
	// IncludeScores returns the full reputation vector with the reply —
	// off by default because the vector is O(n) on stores that may hold
	// millions of GSPs.
	IncludeScores bool `json:"include_scores,omitempty"`
}

// Validate rejects parameter combinations the solver cannot run with.
// Edge-level validation (index range, weight domain) happens atomically
// inside the store.
func (r *TrustDeltaRequest) Validate() error {
	if r.N < 0 {
		return fmt.Errorf("negative n %d", r.N)
	}
	if len(r.Edges) == 0 && r.N == 0 && !r.Solve {
		return fmt.Errorf("empty delta: no edges, no n, no solve")
	}
	return validateSolve(r.Epsilon, r.MaxIter, r.Damping)
}

// TrustDeltaResponse reports the store state after the batch (and the
// re-solve, when requested).
type TrustDeltaResponse struct {
	Stats trust.StoreStats `json:"stats"`
	// Solved reports that a re-solve ran; the solver fields below are
	// meaningful only when it did.
	Solved     bool `json:"solved"`
	Iterations int  `json:"iterations,omitempty"`
	Converged  bool `json:"converged,omitempty"`
	// Warm reports that the solve started from the previous eigenvector
	// rather than the uniform vector.
	Warm bool `json:"warm,omitempty"`
	// Scores is the reputation vector (include_scores only).
	Scores     []float64 `json:"scores,omitempty"`
	DurationMS float64   `json:"duration_ms"`
}

// FormRequest asks for one VO formation run on a scenario.
type FormRequest struct {
	// Scenario is the problem instance, in the same JSON schema cmd/tvof
	// reads (mechanism.ScenarioSpec).
	Scenario mechanism.ScenarioSpec `json:"scenario"`
	// Rule selects the mechanism: "tvof" (default) or "rvof".
	Rule string `json:"rule,omitempty"`
	// Seed drives tie-breaking, random eviction, and generated costs.
	Seed uint64 `json:"seed,omitempty"`
	// TimeoutMS bounds the solve wall clock for this request; 0 uses the
	// server default. On expiry the reply is 504 with partial=true.
	TimeoutMS int64 `json:"timeout_ms,omitempty"`
	// IncludeIterations returns the full eviction trace, not just the
	// selected VO.
	IncludeIterations bool `json:"include_iterations,omitempty"`
}

// FormIteration is one row of the eviction trace (IterationRecord over the
// wire).
type FormIteration struct {
	Members       []int   `json:"members"`
	Feasible      bool    `json:"feasible"`
	Cost          float64 `json:"cost"`
	Payoff        float64 `json:"payoff"`
	AvgReputation float64 `json:"avg_reputation"`
	Evicted       int     `json:"evicted"`
}

// EngineStatsJSON reports solver-engine activity for one request.
type EngineStatsJSON struct {
	Solves    int64   `json:"solves"`
	CacheHits int64   `json:"cache_hits"`
	HitRate   float64 `json:"hit_rate"`
	// WarmStarts counts solves seeded from a cached parent coalition;
	// WarmStartRate is the fraction of those whose seed survived repair.
	WarmStarts    int64   `json:"warm_starts"`
	SeedAccepted  int64   `json:"seed_accepted"`
	SeedWins      int64   `json:"seed_wins"`
	WarmStartRate float64 `json:"warm_start_rate"`
	Nodes         int64   `json:"nodes"`
	// PrunedBySymmetry / PrunedByDominance count branches the solver's
	// identical-row twin rules skipped (zero on continuous cost data).
	PrunedBySymmetry  int64   `json:"pruned_by_symmetry"`
	PrunedByDominance int64   `json:"pruned_by_dominance"`
	SolverMS          float64 `json:"solver_ms"`
	// PowerIterations / PowerIterationsSaved report the mechanism loops'
	// power-method work and the steps avoided by eigenvector warm starts.
	PowerIterations      int64 `json:"power_iterations"`
	PowerIterationsSaved int64 `json:"power_iterations_saved"`
	// DegradedSolves counts evaluations served below the exact tier of
	// the degradation ladder (truncated searches, rejected inputs).
	DegradedSolves int64 `json:"degraded_solves"`
	// Reformations counts eviction rounds whose membership was changed by
	// churn, with the individual joins and leaves behind them.
	Reformations int64 `json:"reformations,omitempty"`
	ChurnJoins   int64 `json:"churn_joins,omitempty"`
	ChurnLeaves  int64 `json:"churn_leaves,omitempty"`
}

func engineStatsJSON(s mechanism.EngineStats) EngineStatsJSON {
	return EngineStatsJSON{
		Solves:               s.Solves,
		CacheHits:            s.CacheHits,
		HitRate:              s.HitRate(),
		WarmStarts:           s.WarmStarts,
		SeedAccepted:         s.SeedAccepted,
		SeedWins:             s.SeedWins,
		WarmStartRate:        s.WarmStartRate(),
		Nodes:                s.Nodes,
		PrunedBySymmetry:     s.PrunedBySymmetry,
		PrunedByDominance:    s.PrunedByDominance,
		SolverMS:             float64(s.WallTime) / float64(time.Millisecond),
		PowerIterations:      s.PowerIterations,
		PowerIterationsSaved: s.PowerIterationsSaved,
		DegradedSolves:       s.Degraded,
		Reformations:         s.Reformations,
		ChurnJoins:           s.ChurnJoins,
		ChurnLeaves:          s.ChurnLeaves,
	}
}

// FormResponse is the outcome of a VO formation run.
type FormResponse struct {
	Rule string `json:"rule"`
	// Feasible reports whether any feasible VO was found; when false the
	// selected-VO fields are absent.
	Feasible bool `json:"feasible"`
	// Members / MemberNames identify the selected VO by global GSP index
	// and display name.
	Members     []int    `json:"members,omitempty"`
	MemberNames []string `json:"member_names,omitempty"`
	// Payoff (eq. 18), Value (eq. 15), Cost, and AvgReputation (eq. 7) of
	// the selected VO; zero when no feasible VO exists.
	Payoff        float64 `json:"payoff"`
	Value         float64 `json:"value"`
	Cost          float64 `json:"cost"`
	AvgReputation float64 `json:"avg_reputation"`
	// Assignment maps task index to the global GSP index executing it.
	Assignment []int `json:"assignment,omitempty"`
	// GlobalReputation is the grand coalition's reputation vector.
	GlobalReputation []float64 `json:"global_reputation"`
	// Iterations is the full eviction trace (include_iterations only).
	Iterations []FormIteration `json:"iterations,omitempty"`
	// Partial reports that the request deadline expired mid-run: the
	// result uses best heuristic incumbents and is not proven optimal.
	Partial bool `json:"partial"`
	// Degraded reports that some layer of the run fell below the exact
	// tier of the degradation ladder (truncated or cancelled search,
	// non-converged power iteration, rejected input): the VO returned is
	// feasible but not proven optimal. Partial implies Degraded; Degraded
	// alone (e.g. a power iteration that did not converge, with 200
	// status) means the request budget was NOT the cause.
	Degraded bool `json:"degraded"`
	// Engine reports this run's fresh solves vs cache hits.
	Engine     EngineStatsJSON `json:"engine"`
	DurationMS float64         `json:"duration_ms"`
}

// AssignRequest asks for a single coalition assignment solve — the integer
// program (9)-(14) on explicit cost/time matrices, without the mechanism
// loop around it.
type AssignRequest struct {
	// Cost[i][j] / Time[i][j] are c(T_j,G_i) and t(T_j,G_i), row-per-GSP.
	Cost [][]float64 `json:"cost"`
	Time [][]float64 `json:"time"`
	// Deadline d (constraint 11) and optional Budget P (constraint 10;
	// 0 = unconstrained).
	Deadline float64 `json:"deadline"`
	Budget   float64 `json:"budget,omitempty"`
	// NodeBudget truncates the branch-and-bound search (0 = server
	// default).
	NodeBudget int64 `json:"node_budget,omitempty"`
	// TimeoutMS bounds the solve wall clock; see FormRequest.TimeoutMS.
	TimeoutMS int64 `json:"timeout_ms,omitempty"`
}

// Instance converts the request to a solver instance.
func (r *AssignRequest) Instance() *assign.Instance {
	return &assign.Instance{Cost: r.Cost, Time: r.Time, Deadline: r.Deadline, Budget: r.Budget}
}

// Validate rejects structurally broken instances before solving.
func (r *AssignRequest) Validate() error {
	if len(r.Cost) == 0 {
		return fmt.Errorf("empty instance: no cost rows")
	}
	if len(r.Cost[0]) == 0 {
		return fmt.Errorf("empty instance: no tasks")
	}
	return r.Instance().Validate()
}

// AssignResponse is the outcome of one assignment solve.
type AssignResponse struct {
	Feasible bool `json:"feasible"`
	// Assign maps task j to the row index of the GSP executing it.
	Assign []int   `json:"assign,omitempty"`
	Cost   float64 `json:"cost,omitempty"`
	// Optimal is the branch-and-bound certificate; Gap quantifies the
	// remaining relative optimality gap when the search was truncated.
	Optimal    bool    `json:"optimal"`
	LowerBound float64 `json:"lower_bound"`
	Gap        float64 `json:"gap"`
	Nodes      int64   `json:"nodes"`
	// Partial reports that the request deadline expired mid-search.
	Partial    bool    `json:"partial"`
	DurationMS float64 `json:"duration_ms"`
}

// JobSubmitResponse is the 202 body of POST /v1/jobs: the id to poll,
// plus whether this submission coalesced onto an identical in-flight job.
type JobSubmitResponse struct {
	ID    string `json:"id"`
	State string `json:"state"`
	// Deduped reports singleflight coalescing: this submission consumed no
	// queue slot and will share the leader's solve (if it stays clean).
	Deduped bool `json:"deduped"`
	// QueueDepth is the queue occupancy at submit — a client-side
	// backpressure signal.
	QueueDepth int `json:"queue_depth"`
}

// JobStatusResponse is the body of GET /v1/jobs/{id}.
type JobStatusResponse struct {
	ID    string `json:"id"`
	State string `json:"state"`
	// Deduped marks a follower that coalesced onto another job's solve.
	Deduped bool `json:"deduped"`
	// Error is set only in state "failed".
	Error string `json:"error,omitempty"`
	// Result is present only in terminal states done|degraded; it is the
	// same FormResponse the synchronous /v1/vo/form path returns,
	// bitwise-identical for identical requests.
	Result *FormResponse `json:"result,omitempty"`
	// QueueMS / RunMS split the job's latency into time waiting for a
	// worker and time solving.
	QueueMS float64 `json:"queue_ms"`
	RunMS   float64 `json:"run_ms,omitempty"`
}

// JobsSnapshot is the async tier's block in GET /metrics.
type JobsSnapshot struct {
	// Queued / Deduped / Requeued count lifetime submissions enqueued,
	// coalesced onto an in-flight duplicate, and re-enqueued because their
	// leader failed.
	Queued   int64 `json:"jobs_queued"`
	Deduped  int64 `json:"jobs_deduped"`
	Requeued int64 `json:"jobs_requeued"`
	// QueueDepth / QueueCapacity describe current queue occupancy;
	// Workers / Running the pool size and busy workers.
	QueueDepth    int `json:"queue_depth"`
	QueueCapacity int `json:"queue_capacity"`
	Workers       int `json:"workers"`
	Running       int `json:"running"`
	// Done / Failed / Degraded count terminal outcomes; Live is the number
	// of jobs currently pollable (not yet TTL-GC'd).
	Done     int64 `json:"jobs_done"`
	Failed   int64 `json:"jobs_failed"`
	Degraded int64 `json:"jobs_degraded"`
	Live     int   `json:"jobs_live"`
}

// HealthResponse is the body of GET /healthz.
type HealthResponse struct {
	Status string `json:"status"`
}
