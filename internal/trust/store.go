package trust

import (
	"fmt"
	"math"
	"slices"
	"sync"

	"gridvo/internal/matrix"
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
// The store keeps a converged Scores itself, not a copy, as the next warm
// start: once returned, neither the callback nor the caller may modify it.
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
// The Store also owns the eq. 1 matrix of its graph with the uniform
// dangling completion, in two buffers it reuses: ApplyDelta records the
// rows a batch touched, and ResolveNormalized copies every other row from
// the last matrix and re-normalizes only those. The result is bitwise the
// matrix Graph.Normalized would build.
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

	// a is the eq. 1 matrix of g as of the last ResolveNormalized (the
	// rows in touched have changed since); spare is the buffer the next
	// one writes into.
	// a is patchable while it has g's node count: growth changes every
	// dangling row's 1/n, so it forces a full build.
	a, spare normBuf
	// touched lists, each once, the rows ApplyDelta changed since a was
	// built; marked[i] reports whether i is in it. Nothing is recorded
	// while a is not patchable.
	touched []int
	marked  []bool

	version, ops       uint64
	solves, warmSolves uint64
	lastIterations     int
	lastConverged      bool
}

// normBuf holds one eq. 1 matrix with the uniform dangling completion in
// CSR form, and its dangling rows in ascending order.
type normBuf struct {
	rowPtr   []int
	colIdx   []int32
	val      []float64
	dangling []int
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
// starting point — padded with zeros for any new nodes. An applied batch
// adds each op's From to the rows the next ResolveNormalized
// re-normalizes.
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
	record := s.patchable()
	for _, op := range ops {
		s.g.SetTrust(op.From, op.To, op.Weight)
		if record && !s.marked[op.From] {
			s.marked[op.From] = true
			s.touched = append(s.touched, op.From)
		}
	}
	s.version++
	s.ops += uint64(len(ops))
	return s.statsLocked(), nil
}

// patchable reports whether the store's matrix can be brought up to date
// by re-normalizing the touched rows: it exists and has g's node count.
func (s *Store) patchable() bool {
	return len(s.a.rowPtr) == s.g.N()+1
}

// ResolveNormalized runs solve on the eq. 1 matrix of the current graph,
// with the uniform dangling completion, and records the outcome like
// Resolve. The callback gets the matrix, its dangling rows and the
// previous eigenvector (nil when there is none). All three are read-only
// and valid only inside the callback: the next call reuses their memory.
//
// The matrix is brought up to date first. When the last one has the
// graph's node count, only the rows ApplyDelta touched since are
// re-normalized and every other row is copied; otherwise, on the first
// call or after growth, it is built whole. Either way it is bitwise
// Graph.Normalized's, and a matrix above MaxEntries is refused with
// CheckEntries' error before any buffer grows.
func (s *Store) ResolveNormalized(solve func(a *matrix.CSR, dangling []int, warm []float64) (SolveResult, error)) (SolveResult, StoreStats, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.normalizeLocked(); err != nil {
		return SolveResult{}, s.statsLocked(), err
	}
	n := s.g.N()
	a := matrix.NewCSRUnchecked(n, n, s.a.rowPtr, s.a.colIdx, s.a.val)
	return s.recordLocked(solve(a, s.a.dangling, s.x))
}

// normalizeLocked brings s.a up to date with the graph: it writes the
// new matrix into the spare buffer, patched or whole, and swaps the two.
func (s *Store) normalizeLocked() error {
	n := s.g.N()
	if s.patchable() {
		if len(s.touched) == 0 {
			return nil
		}
		slices.Sort(s.touched)
		nnz := len(s.a.val)
		for _, i := range s.touched {
			nnz += rowEntries(s.g.adj[i], n) - (s.a.rowPtr[i+1] - s.a.rowPtr[i])
		}
		if err := CheckEntries(n, nnz); err != nil {
			return err
		}
		s.spare.patch(&s.a, s.g, s.touched, nnz)
	} else {
		nnz := s.g.NormalizedEntries(true)
		if err := CheckEntries(n, nnz); err != nil {
			return err
		}
		s.spare.resize(n, nnz)
		s.spare.dangling = s.g.normalizeInto(s.spare.rowPtr, s.spare.colIdx, s.spare.val, true, s.spare.dangling[:0])
	}
	s.a, s.spare = s.spare, s.a
	for _, i := range s.touched {
		s.marked[i] = false
	}
	s.touched = s.touched[:0]
	if len(s.marked) != n {
		s.marked = make([]bool, n)
	}
	return nil
}

// resize sets b's lengths to an n-row matrix of nnz entries, reallocating
// only a buffer that is too small, and then with room for some growth.
func (b *normBuf) resize(n, nnz int) {
	b.rowPtr = resized(b.rowPtr, n+1)
	b.colIdx = resized(b.colIdx, nnz)
	b.val = resized(b.val, nnz)
}

// resized returns s with length n, reallocated with 1/16 headroom when its
// capacity is short, so a matrix that gains a few entries per batch does
// not reallocate on every solve.
func resized[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n, n+n/16)
	}
	return s[:n]
}

// patch writes into b the matrix of g with nnz entries, given old, the
// matrix of g before the rows in touched (ascending, unique) changed. Each
// run of untouched rows is one copy of entries plus shifted row pointers;
// each touched row is re-normalized from the adjacency, and the dangling
// list is merged.
func (b *normBuf) patch(old *normBuf, g *Graph, touched []int, nnz int) {
	n := g.n
	b.resize(n, nnz)
	b.rowPtr[0] = 0
	b.dangling = b.dangling[:0]
	next, d := 0, 0 // first row not yet written; position in old.dangling
	for _, i := range touched {
		b.copyRows(old, next, i)
		for d < len(old.dangling) && old.dangling[d] < i {
			b.dangling = append(b.dangling, old.dangling[d])
			d++
		}
		if d < len(old.dangling) && old.dangling[d] == i {
			d++
		}
		row := g.adj[i]
		if len(row) == 0 {
			b.dangling = append(b.dangling, i)
		}
		p := b.rowPtr[i]
		k := rowEntries(row, n)
		normalizeRow(row, b.colIdx[p:p+k], b.val[p:p+k])
		b.rowPtr[i+1] = p + k
		next = i + 1
	}
	b.copyRows(old, next, n)
	b.dangling = append(b.dangling, old.dangling[d:]...)
}

// copyRows copies rows [lo, hi), unchanged since old was built, from old
// into b; b.rowPtr[lo] must already be set.
func (b *normBuf) copyRows(old *normBuf, lo, hi int) {
	if lo >= hi {
		return
	}
	src, dst, end := old.rowPtr[lo], b.rowPtr[lo], old.rowPtr[hi]
	copy(b.colIdx[dst:], old.colIdx[src:end])
	copy(b.val[dst:], old.val[src:end])
	shift := dst - src
	for r := lo + 1; r <= hi; r++ {
		b.rowPtr[r] = old.rowPtr[r] + shift
	}
}

// Resolve runs solve against the current graph, seeding it with the
// previous eigenvector when one is available, and records the outcome. The
// callback receives the live graph and MUST treat it as read-only. It
// leaves the store's matrix and its touched rows alone, so a later
// ResolveNormalized still patches every row changed since its last call.
// A converged result becomes the warm start for the next solve.
func (s *Store) Resolve(solve func(g *Graph, warm []float64) (SolveResult, error)) (SolveResult, StoreStats, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.recordLocked(solve(s.g, s.x))
}

// recordLocked books one solve's outcome: the counters, and a converged
// vector as the next warm start. A failed solve books nothing.
func (s *Store) recordLocked(res SolveResult, err error) (SolveResult, StoreStats, error) {
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
		s.x = res.Scores
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
