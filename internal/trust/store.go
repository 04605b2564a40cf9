package trust

import (
	"fmt"
	"math"
	"sync"
)

// DeltaOp is one edge update in a delta batch: set the direct trust that
// From assigns to To. A zero weight removes the edge.
type DeltaOp struct {
	From   int     `json:"from"`
	To     int     `json:"to"`
	Weight float64 `json:"weight"`
}

// StoreStats is a point-in-time snapshot of a Store.
type StoreStats struct {
	// N is the current node count and Edges the stored positive-weight
	// edge count; Density is Edges/(N·(N−1)).
	N       int     `json:"n"`
	Edges   int     `json:"edges"`
	Density float64 `json:"density"`
	// Version increments once per accepted delta batch; Ops counts the
	// individual edge operations applied across all batches.
	Version uint64 `json:"version"`
	Ops     uint64 `json:"ops"`
	// Solves counts reputation re-solves; WarmSolves the subset that
	// started from a previous eigenvector rather than the uniform vector.
	Solves     uint64 `json:"solves"`
	WarmSolves uint64 `json:"warm_solves"`
	// LastIterations / LastConverged describe the most recent solve (zero
	// values when none has run yet).
	LastIterations int  `json:"last_iterations"`
	LastConverged  bool `json:"last_converged"`
	// HasVector reports whether a previous eigenvector is available to
	// warm-start the next solve.
	HasVector bool `json:"has_vector"`
}

// SolveResult is what a Store solve callback reports back: the converged
// (or best-effort) reputation vector and how the iteration behaved. Warm
// reports whether the solver actually consumed the supplied warm start.
type SolveResult struct {
	Scores     []float64
	Iterations int
	Converged  bool
	Warm       bool
}

// Store is a stateful trust graph that accepts edge-delta batches and
// re-solves reputation incrementally: each solve is seeded with the
// previous converged eigenvector, so small graph perturbations converge in
// a fraction of the cold iteration count (the go-eigentrust update
// pattern). It is the substrate behind the gridvod /v1/trust/delta and
// /v1/trust/stats endpoints.
//
// The reputation solver itself is injected as a callback (the reputation
// package depends on trust, not the other way around), which also keeps
// the Store agnostic of solver options. Store is safe for concurrent use.
type Store struct {
	mu sync.Mutex
	g  *Graph
	// x is the last converged reputation vector, used to warm-start the
	// next solve; nil until a solve converges. When the graph grows, the
	// vector is padded with zeros — new nodes start with no evidence and
	// the iteration redistributes mass to them.
	x []float64

	version, ops       uint64
	solves, warmSolves uint64
	lastIterations     int
	lastConverged      bool
}

// NewStore returns a Store over an initially edgeless n-node graph.
func NewStore(n int) *Store {
	return &Store{g: NewGraph(n)}
}

// ApplyDelta validates and applies one batch of edge updates atomically:
// either every op is applied or none is. n, when larger than the current
// node count, grows the graph first (ops may then reference the new
// nodes); n == 0 keeps the current size, and n above MaxEntries is
// rejected before anything is allocated. The warm-start vector survives
// the batch — a perturbed graph's eigenvector is still an excellent
// starting point — padded with zeros for any new nodes.
func (s *Store) ApplyDelta(n int, ops []DeltaOp) (StoreStats, error) {
	if n > MaxEntries {
		return s.Stats(), fmt.Errorf("trust: delta declares %d nodes, above the limit %d", n, MaxEntries)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	size := s.g.N()
	if n > size {
		size = n
	}
	for k, op := range ops {
		if op.From < 0 || op.From >= size || op.To < 0 || op.To >= size {
			return s.statsLocked(), fmt.Errorf("trust: delta op %d edge (%d,%d) out of range [0,%d)", k, op.From, op.To, size)
		}
		if op.Weight < 0 || math.IsNaN(op.Weight) || math.IsInf(op.Weight, 0) {
			return s.statsLocked(), fmt.Errorf("trust: delta op %d has invalid weight %v", k, op.Weight)
		}
	}
	if size > s.g.N() {
		s.g.Grow(size)
		if s.x != nil {
			grown := make([]float64, size)
			copy(grown, s.x)
			s.x = grown
		}
	}
	for _, op := range ops {
		s.g.SetTrust(op.From, op.To, op.Weight)
	}
	s.version++
	s.ops += uint64(len(ops))
	return s.statsLocked(), nil
}

// Resolve runs solve against the current graph, seeding it with the
// previous eigenvector when one is available, and records the outcome. The
// callback receives the live graph and MUST treat it as read-only (the
// reputation pipeline does: Normalized materializes a fresh matrix). A
// converged result becomes the warm start for the next Resolve.
func (s *Store) Resolve(solve func(g *Graph, warm []float64) (SolveResult, error)) (SolveResult, StoreStats, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	res, err := solve(s.g, s.x)
	if err != nil {
		return res, s.statsLocked(), err
	}
	s.solves++
	if res.Warm {
		s.warmSolves++
	}
	s.lastIterations = res.Iterations
	s.lastConverged = res.Converged
	if res.Converged && len(res.Scores) == s.g.N() {
		s.x = append([]float64(nil), res.Scores...)
	}
	return res, s.statsLocked(), nil
}

// Stats returns a snapshot of the store.
func (s *Store) Stats() StoreStats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.statsLocked()
}

func (s *Store) statsLocked() StoreStats {
	return StoreStats{
		N:              s.g.N(),
		Edges:          s.g.NumEdges(),
		Density:        s.g.Density(),
		Version:        s.version,
		Ops:            s.ops,
		Solves:         s.solves,
		WarmSolves:     s.warmSolves,
		LastIterations: s.lastIterations,
		LastConverged:  s.lastConverged,
		HasVector:      s.x != nil,
	}
}
