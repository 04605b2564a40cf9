package reputation

import (
	"context"
	"errors"
	"fmt"
	"math"

	"gridvo/internal/fault"
	"gridvo/internal/matrix"
	"gridvo/internal/trust"
)

// Options parameterize the power method. The iteration stops when
// ‖x^{q+1} − x^q‖₂ < ε — the rule in the pseudocode of Algorithm 2
// (lines 6–7).
type Options struct {
	// Epsilon is the convergence threshold ε. Zero selects DefaultEpsilon.
	Epsilon float64
	// MaxIter bounds the number of iterations; zero selects
	// DefaultMaxIter. If the bound is hit, Global returns the last
	// iterate with Diagnostics.Converged == false and a nil error —
	// mechanisms keep running with the best available scores, matching
	// how a real deployment would behave.
	MaxIter int
	// Damping, when in (0,1), mixes a uniform teleport into every step:
	// x ← (1−d)·Aᵀx + d·(1/n). The paper's method is the undamped d = 0;
	// damping is provided for ablations on sparse graphs where the
	// undamped chain is reducible and mass drains into closed subsets.
	Damping float64
	// DanglingUniform selects how eq. (1) treats GSPs without outgoing
	// trust; see trust.NormalizeOptions. The mechanism default is true.
	DanglingUniform bool
	// InitialVector, when non-nil and of matching dimension, seeds the
	// power iteration instead of the uniform vector. The mechanism loop
	// passes the previous iteration's converged vector restricted to the
	// surviving members, which starts the iteration near the new fixed
	// point and typically converges in a fraction of the cold iteration
	// count (EigenTrust-style warm starting). The vector must be
	// non-negative with positive sum; it is L1-renormalized defensively
	// and never modified or retained. Invalid or mismatched vectors fall
	// back to the uniform start.
	InitialVector []float64
	// Inject, when non-nil, is the deterministic fault injector visited
	// once per Global call (fault.PointReputation): a NonConverge plan
	// clamps MaxIter so the iteration exhausts its budget and returns the
	// last iterate with Converged == false — the graceful path MaxIter
	// exhaustion already takes, now exercisable on demand. The nil default
	// costs a single pointer check.
	Inject *fault.Injector
}

// DefaultEpsilon is the convergence threshold used when Options.Epsilon is
// zero. Reputation differences far below this never change an eviction
// decision among 16 GSPs.
const DefaultEpsilon = 1e-9

// DefaultMaxIter bounds the power iteration when Options.MaxIter is zero.
const DefaultMaxIter = 10000

// DefaultOptions returns the configuration the TVOF mechanism uses: the
// pseudocode stopping rule, uniform dangling fix, no damping.
func DefaultOptions() Options {
	return Options{DanglingUniform: true}
}

// Diagnostics report how the power iteration behaved.
type Diagnostics struct {
	Iterations int     // number of multiply steps performed
	Delta      float64 // final value of the convergence metric
	Converged  bool    // whether Delta < ε within MaxIter
	Warm       bool    // whether the iteration started from Options.InitialVector
	Dangling   []int   // GSPs with no outgoing trust (patched per options)
}

// ErrEmptyGraph is returned when reputation is requested for a graph with
// no GSPs.
var ErrEmptyGraph = errors.New("reputation: empty trust graph")

// Global computes the global reputation vector of all GSPs in g — the
// left principal eigenvector of the normalized trust matrix — using the
// power method of Algorithm 2. The returned vector is non-negative and
// L1-normalized (it sums to 1 unless the graph has no trust mass at all).
// A graph whose normalized matrix would store more than trust.MaxEntries
// entries is rejected with trust.CheckEntries' error before anything is
// allocated. Global is the graph half; GlobalMatrix does the rest, here
// without a context: it runs to convergence or Options.MaxIter.
func Global(g *trust.Graph, opts Options) ([]float64, Diagnostics, error) {
	n := g.N()
	if n == 0 {
		return nil, Diagnostics{}, ErrEmptyGraph
	}
	if err := trust.CheckEntries(n, g.NormalizedEntries(opts.DanglingUniform)); err != nil {
		return nil, Diagnostics{}, err
	}
	a, dangling := g.Normalized(trust.NormalizeOptions{DanglingUniform: opts.DanglingUniform})
	return GlobalMatrix(context.TODO(), a, dangling, opts)
}

// GlobalMatrix is the matrix half of Global: the power method of
// Algorithm 2 on a, an already normalized trust matrix whose dangling
// rows are listed in dangling (reported back in Diagnostics.Dangling). It
// is how a trust.Store's own matrix is solved; the bound on its entries
// is checked where it is built. opts.DanglingUniform is not read: the
// completion is a's. The iteration polls ctx once per step and, once ctx
// is done, returns its error and no vector.
func GlobalMatrix(ctx context.Context, a *matrix.CSR, dangling []int, opts Options) ([]float64, Diagnostics, error) {
	if a.Rows() == 0 {
		return nil, Diagnostics{}, ErrEmptyGraph
	}
	// Fault hook: a NonConverge plan clamps the iteration budget, forcing
	// the exhaustion path (last iterate, Converged == false, nil error).
	if plan := opts.Inject.Visit(fault.PointReputation); plan.Class == fault.NonConverge {
		opts.MaxIter = plan.MaxIter
	}
	x, diag, err := powerIterate(ctx, a, opts)
	diag.Dangling = dangling
	return x, diag, err
}

// PowerIterate runs the power method x^{q+1} = Aᵀ x^q on an already
// normalized matrix, renormalizing the iterate to unit L1 norm each step
// (A may be substochastic when dangling rows were kept zero; without
// renormalization the iterate would decay in magnitude while keeping the
// same direction). The matrix must be square; each step is O(nnz). It
// runs to convergence or Options.MaxIter; GlobalMatrix is the cancellable
// form.
func PowerIterate(a *matrix.CSR, opts Options) ([]float64, Diagnostics) {
	x, diag, _ := powerIterate(context.TODO(), a, opts)
	return x, diag
}

// powerIterate is PowerIterate polling ctx before every step: once ctx is
// done it returns no vector, ctx's error and the diagnostics of the steps
// taken so far.
func powerIterate(ctx context.Context, a *matrix.CSR, opts Options) ([]float64, Diagnostics, error) {
	if a.Rows() != a.Cols() {
		panic(fmt.Sprintf("reputation: PowerIterate on %dx%d matrix", a.Rows(), a.Cols()))
	}
	n := a.Rows()
	if n == 0 {
		return nil, Diagnostics{Converged: true}, nil
	}
	eps := opts.Epsilon
	if eps == 0 {
		eps = DefaultEpsilon
	}
	maxIter := opts.MaxIter
	if maxIter == 0 {
		maxIter = DefaultMaxIter
	}
	if opts.Damping < 0 || opts.Damping >= 1 {
		if opts.Damping != 0 {
			panic(fmt.Sprintf("reputation: damping %v outside [0,1)", opts.Damping))
		}
	}

	// Two iterate buffers ping-pong: each step writes Aᵀx into next, and
	// the swap makes it the new x. The buffer not returned is dropped.
	x, warm := startVector(n, opts.InitialVector)
	next := make([]float64, n)
	var diag Diagnostics
	diag.Warm = warm
	for q := 0; q < maxIter; q++ {
		if err := ctx.Err(); err != nil {
			return nil, diag, err
		}
		a.TMulVecTo(next, x)
		if opts.Damping > 0 {
			d := opts.Damping
			u := d / float64(n)
			for i := range next {
				next[i] = (1-d)*next[i] + u
			}
		}
		matrix.VecNormalizeL1(next)
		delta := matrix.VecDiffNormL2(next, x)
		x, next = next, x
		diag.Iterations = q + 1
		diag.Delta = delta
		if delta < eps {
			diag.Converged = true
			break
		}
	}
	return x, diag, nil
}

// startVector returns the power iteration's starting point: the L1
// normalization of a valid warm-start vector, else the uniform vector. A
// warm start must match the dimension and be non-negative, finite, and of
// positive sum — anything else silently falls back to the cold start so a
// stale hint can degrade performance but never correctness.
func startVector(n int, init []float64) ([]float64, bool) {
	if len(init) != n {
		return matrix.Uniform(n), false
	}
	sum := 0.0
	for _, v := range init {
		if v < 0 || math.IsNaN(v) || math.IsInf(v, 0) {
			return matrix.Uniform(n), false
		}
		sum += v
	}
	if sum <= 0 || math.IsInf(sum, 0) {
		return matrix.Uniform(n), false
	}
	x := make([]float64, n)
	for i, v := range init {
		x[i] = v / sum
	}
	return x, true
}

// AverageOf returns the average reputation of the subset idx of a full
// reputation vector — x̄ over a candidate VO using globally computed
// scores. It panics on out-of-range indices.
func AverageOf(x []float64, idx []int) float64 {
	if len(idx) == 0 {
		return 0
	}
	s := 0.0
	for _, i := range idx {
		if i < 0 || i >= len(x) {
			panic(fmt.Sprintf("reputation: AverageOf index %d out of range [0,%d)", i, len(x)))
		}
		s += x[i]
	}
	return s / float64(len(idx))
}
