package mechanism

import (
	"fmt"
	"math"

	"gridvo/internal/adversary"
	"gridvo/internal/grid"
	"gridvo/internal/trust"
	"gridvo/internal/workload"
	"gridvo/internal/xrand"
)

// GSPSpec describes one provider in a ScenarioSpec: a display name and the
// aggregate speed s(G) of Section II-A.
type GSPSpec struct {
	Name        string  `json:"name"`
	SpeedGFLOPS float64 `json:"speed_gflops"`
}

// TrustGenSpec asks Build to generate the trust graph instead of shipping
// it inline: for large sparse graphs an explicit edge list would dominate
// the payload, while a generator spec is a few bytes regardless of n. The
// node count is always the spec's GSP count.
type TrustGenSpec struct {
	// Model selects the generator: "erdos-renyi" is the per-pair G(n,p)
	// sampler (requires P), "sparse-erdos-renyi" the O(nnz) geometric-gap
	// sampler (requires MeanDegree). An empty model infers one from which
	// parameter is set.
	Model string `json:"model,omitempty"`
	// P is the edge probability for the erdos-renyi model.
	P float64 `json:"p,omitempty"`
	// MeanDegree is the expected out-degree for sparse-erdos-renyi.
	MeanDegree float64 `json:"mean_degree,omitempty"`
	// EnsureTrusted, when true, post-processes the graph so every node has
	// at least one incoming edge (trust.EnsureEveryNodeTrusted).
	EnsureTrusted bool `json:"ensure_trusted,omitempty"`
}

// resolveModel returns the effective generator name or an error.
func (tg *TrustGenSpec) resolveModel() (string, error) {
	switch tg.Model {
	case "erdos-renyi":
		return tg.Model, nil
	case "sparse-erdos-renyi":
		return tg.Model, nil
	case "":
		if tg.MeanDegree > 0 && tg.P == 0 {
			return "sparse-erdos-renyi", nil
		}
		return "erdos-renyi", nil
	default:
		return "", fmt.Errorf("mechanism: unknown trust generator model %q", tg.Model)
	}
}

// Validate checks the generator parameters.
func (tg *TrustGenSpec) Validate() error {
	model, err := tg.resolveModel()
	if err != nil {
		return err
	}
	switch model {
	case "erdos-renyi":
		if tg.P < 0 || tg.P > 1 || math.IsNaN(tg.P) {
			return fmt.Errorf("mechanism: trust generator p %v outside [0,1]", tg.P)
		}
	case "sparse-erdos-renyi":
		if tg.MeanDegree < 0 || math.IsNaN(tg.MeanDegree) || math.IsInf(tg.MeanDegree, 0) {
			return fmt.Errorf("mechanism: trust generator mean degree %v invalid", tg.MeanDegree)
		}
	}
	return nil
}

// Generate materializes the trust graph over m nodes from the seed.
func (tg *TrustGenSpec) Generate(rng *xrand.RNG, m int) (*trust.Graph, error) {
	if err := tg.Validate(); err != nil {
		return nil, err
	}
	model, _ := tg.resolveModel()
	var g *trust.Graph
	if model == "sparse-erdos-renyi" {
		g = trust.SparseErdosRenyi(rng.Split("edges"), m, tg.MeanDegree)
	} else {
		g = trust.ErdosRenyi(rng.Split("edges"), m, tg.P)
	}
	if tg.EnsureTrusted {
		trust.EnsureEveryNodeTrusted(rng.Split("fix"), g)
	}
	return g, nil
}

// ScenarioSpec is the portable JSON description of a Scenario — the wire
// format shared by cmd/tvof scenario files and the gridvod HTTP API. It
// carries the user request (tasks, deadline d, payment P), the providers,
// the trust graph in sparse edge-list form (or a TrustGen recipe to
// generate it from the build seed), and optionally an explicit cost
// matrix; when Cost is omitted, Build generates a Braun-style matrix from
// the seed (the Table I procedure).
type ScenarioSpec struct {
	GSPs     []GSPSpec     `json:"gsps"`
	Tasks    []float64     `json:"tasks"`
	Deadline float64       `json:"deadline"`
	Payment  float64       `json:"payment"`
	Trust    *trust.Graph  `json:"trust,omitempty"`
	TrustGen *TrustGenSpec `json:"trust_gen,omitempty"`
	Cost     [][]float64   `json:"cost,omitempty"`
	// Adversary, when set, rewrites the built scenario's trust graph per
	// the attack spec (and, for sybil, appends the fake GSPs), drawing
	// from the build seed's "adversary" stream. A zero-Size spec is a
	// bitwise no-op. See internal/adversary.
	Adversary *adversary.Spec `json:"adversary,omitempty"`
}

// Validate checks the spec's internal consistency without building the
// scenario, so API layers can reject bad requests before any generation
// work. Build repeats the full Scenario.Validate afterwards.
func (sp *ScenarioSpec) Validate() error {
	m := len(sp.GSPs)
	if m == 0 {
		return fmt.Errorf("mechanism: scenario spec has no GSPs")
	}
	if len(sp.Tasks) == 0 {
		return fmt.Errorf("mechanism: scenario spec has no tasks")
	}
	for i, g := range sp.GSPs {
		if !(g.SpeedGFLOPS > 0) || math.IsInf(g.SpeedGFLOPS, 0) {
			return fmt.Errorf("mechanism: GSP %d (%s) has invalid speed %v", i, g.Name, g.SpeedGFLOPS)
		}
	}
	for j, w := range sp.Tasks {
		if !(w > 0) || math.IsInf(w, 0) {
			return fmt.Errorf("mechanism: task %d has invalid workload %v", j, w)
		}
	}
	switch {
	case sp.Trust == nil && sp.TrustGen == nil:
		return fmt.Errorf("mechanism: scenario spec has no trust graph (set trust or trust_gen)")
	case sp.Trust != nil && sp.TrustGen != nil:
		return fmt.Errorf("mechanism: scenario spec sets both trust and trust_gen")
	case sp.Trust != nil:
		if sp.Trust.N() != m {
			return fmt.Errorf("mechanism: trust graph over %d GSPs, spec has %d", sp.Trust.N(), m)
		}
	default:
		if err := sp.TrustGen.Validate(); err != nil {
			return err
		}
	}
	if sp.Cost != nil {
		if len(sp.Cost) != m {
			return fmt.Errorf("mechanism: cost matrix has %d rows for %d GSPs", len(sp.Cost), m)
		}
		for i, row := range sp.Cost {
			if len(row) != len(sp.Tasks) {
				return fmt.Errorf("mechanism: cost row %d has %d columns for %d tasks", i, len(row), len(sp.Tasks))
			}
			for j, c := range row {
				if c < 0 || math.IsNaN(c) || math.IsInf(c, 0) {
					return fmt.Errorf("mechanism: invalid cost %v at (%d,%d)", c, i, j)
				}
			}
		}
	}
	if !(sp.Deadline > 0) || math.IsInf(sp.Deadline, 0) {
		return fmt.Errorf("mechanism: invalid deadline %v", sp.Deadline)
	}
	if !(sp.Payment > 0) || math.IsInf(sp.Payment, 0) {
		return fmt.Errorf("mechanism: invalid payment %v", sp.Payment)
	}
	if sp.Adversary != nil {
		if err := sp.Adversary.ValidateFor(m); err != nil {
			return err
		}
	}
	return nil
}

// Build materializes the spec into a runnable Scenario: GSPs with default
// names filled in, the time matrix t(T,G) = w(T)/s(G), and — when Cost is
// omitted — a Braun-style cost matrix generated deterministically from the
// seed. The returned scenario passes Scenario.Validate.
func (sp *ScenarioSpec) Build(seed uint64) (*Scenario, error) {
	if err := sp.Validate(); err != nil {
		return nil, err
	}
	m := len(sp.GSPs)
	gsps := make([]grid.GSP, m)
	for i, g := range sp.GSPs {
		name := g.Name
		if name == "" {
			name = fmt.Sprintf("G%d", i)
		}
		gsps[i] = grid.GSP{ID: i, Name: name, SpeedGFLOPS: g.SpeedGFLOPS}
	}
	prog := &workload.Program{Name: "spec", Tasks: append([]float64(nil), sp.Tasks...)}
	cost := sp.Cost
	if cost == nil {
		cost = grid.CostMatrix(xrand.New(seed).Split("cost"), m, prog)
	}
	tg := sp.Trust
	if tg == nil {
		var err error
		tg, err = sp.TrustGen.Generate(xrand.New(seed).Split("trustgen"), m)
		if err != nil {
			return nil, err
		}
	}
	sc := &Scenario{
		Program:  prog,
		GSPs:     gsps,
		Cost:     cost,
		Time:     grid.TimeMatrix(gsps, prog),
		Deadline: sp.Deadline,
		Payment:  sp.Payment,
		Trust:    tg,
	}
	if err := sc.Validate(); err != nil {
		return nil, err
	}
	if sp.Adversary != nil {
		sc, _, err := ApplyAdversary(sc, sp.Adversary, xrand.New(seed).Split("adversary"))
		return sc, err
	}
	return sc, nil
}

// SampleSpec returns a small 4-GSP, 12-task spec generated from the seed —
// the template cmd/tvof prints with -sample and the API documentation's
// default scenario.
func SampleSpec(seed uint64) *ScenarioSpec {
	rng := xrand.New(seed)
	tg := trust.ErdosRenyi(rng.Split("trust"), 4, 0.5)
	trust.EnsureEveryNodeTrusted(rng.Split("fix"), tg)
	sp := &ScenarioSpec{
		GSPs: []GSPSpec{
			{Name: "alpha", SpeedGFLOPS: 160},
			{Name: "beta", SpeedGFLOPS: 240},
			{Name: "gamma", SpeedGFLOPS: 320},
			{Name: "delta", SpeedGFLOPS: 480},
		},
		Tasks:    make([]float64, 12),
		Deadline: 2000,
		Payment:  6000,
		Trust:    tg,
	}
	for i := range sp.Tasks {
		sp.Tasks[i] = rng.Uniform(20000, 40000)
	}
	return sp
}
