package reputation

import (
	"math"
	"testing"

	"gridvo/internal/matrix"
	"gridvo/internal/trust"
	"gridvo/internal/xrand"
)

// These tests pin the CSR pipeline to a dense oracle bit for bit, not
// merely approximately: eq. 1 on a [][]float64 weight table with the same
// uniform completion, then PowerIterate's loop with Aᵀx as a dense row
// sweep. The CSR kernels must accumulate in exactly the oracle's order;
// any divergence means a normalization or multiply step changed its
// arithmetic, and determinism fingerprints would move with it.

// weightsOf returns g's direct trust as an n×n table.
func weightsOf(g *trust.Graph) [][]float64 {
	w := make([][]float64, g.N())
	for i := range w {
		w[i] = make([]float64, g.N())
		g.VisitNeighbors(i, func(j int, u float64) { w[i][j] = u })
	}
	return w
}

// denseNormalized is the oracle for eq. 1: every row divided by its sum,
// a zero row replaced by 1/n everywhere when uniform. It returns the
// normalized table and the zero rows.
func denseNormalized(w [][]float64, uniform bool) ([][]float64, []int) {
	n := len(w)
	a := make([][]float64, n)
	var dangling []int
	for i, row := range w {
		a[i] = make([]float64, n)
		s := 0.0
		for _, v := range row {
			s += v
		}
		if s == 0 {
			dangling = append(dangling, i)
			if uniform {
				for j := range a[i] {
					a[i][j] = 1 / float64(n)
				}
			}
			continue
		}
		for j, v := range row {
			a[i][j] = v / s
		}
	}
	return a, dangling
}

// denseGlobal is the oracle for Global: denseNormalized, then the power
// loop of PowerIterate on the dense table.
func denseGlobal(w [][]float64, opts Options) ([]float64, Diagnostics) {
	a, dangling := denseNormalized(w, opts.DanglingUniform)
	n := len(a)
	eps, maxIter := opts.Epsilon, opts.MaxIter
	if eps == 0 {
		eps = DefaultEpsilon
	}
	if maxIter == 0 {
		maxIter = DefaultMaxIter
	}
	x, warm := startVector(n, opts.InitialVector)
	diag := Diagnostics{Warm: warm, Dangling: dangling}
	for q := 0; q < maxIter; q++ {
		next := make([]float64, n)
		for i, row := range a {
			for j, v := range row {
				next[j] += v * x[i]
			}
		}
		if d := opts.Damping; d > 0 {
			for i := range next {
				next[i] = (1-d)*next[i] + d/float64(n)
			}
		}
		matrix.VecNormalizeL1(next)
		delta := matrix.VecDiffNormL2(next, x)
		x = next
		diag.Iterations, diag.Delta = q+1, delta
		if delta < eps {
			diag.Converged = true
			break
		}
	}
	return x, diag
}

func assertBitsEqual(t *testing.T, label string, a, b []float64) {
	t.Helper()
	if len(a) != len(b) {
		t.Fatalf("%s: length %d vs %d", label, len(a), len(b))
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			t.Fatalf("%s: index %d csr %v (%#x) != dense oracle %v (%#x)",
				label, i, a[i], math.Float64bits(a[i]), b[i], math.Float64bits(b[i]))
		}
	}
}

// assertMatchesOracle fails unless Global on g equals denseGlobal on its
// weights bit for bit, scores and diagnostics alike.
func assertMatchesOracle(t *testing.T, label string, g *trust.Graph, opts Options) {
	t.Helper()
	got, gd, err := Global(g, opts)
	if err != nil {
		t.Fatalf("%s: %v", label, err)
	}
	want, wd := denseGlobal(weightsOf(g), opts)
	assertBitsEqual(t, label, got, want)
	if gd.Iterations != wd.Iterations || gd.Converged != wd.Converged || gd.Warm != wd.Warm ||
		math.Float64bits(gd.Delta) != math.Float64bits(wd.Delta) {
		t.Fatalf("%s: diagnostics %+v, oracle %+v", label, gd, wd)
	}
	if len(gd.Dangling) != len(wd.Dangling) {
		t.Fatalf("%s: dangling %v, oracle %v", label, gd.Dangling, wd.Dangling)
	}
	for k := range gd.Dangling {
		if gd.Dangling[k] != wd.Dangling[k] {
			t.Fatalf("%s: dangling %v, oracle %v", label, gd.Dangling, wd.Dangling)
		}
	}
}

func TestGlobalFormatEquivalence(t *testing.T) {
	for _, n := range []int{3, 8, 16, 40} {
		for _, p := range []float64{0.05, 0.2, 0.5, 0.9} {
			g := trust.ErdosRenyi(xrand.New(uint64(n*100)+uint64(p*1000)), n, p)
			for _, opts := range []Options{
				DefaultOptions(),
				{DanglingUniform: false},
				{DanglingUniform: true, Damping: 0.15},
			} {
				assertMatchesOracle(t, g.String(), g, opts)
			}
		}
	}
}

func TestGlobalFormatEquivalenceWarmStart(t *testing.T) {
	g := trust.ErdosRenyi(xrand.New(42), 16, 0.1)
	// A cold solve establishes the eigenvector; a perturbed warm start
	// must then follow the oracle's trajectory exactly.
	x, _, err := Global(g, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	warm := append([]float64(nil), x...)
	warm[0] += 0.01
	opts := DefaultOptions()
	opts.InitialVector = warm
	if _, d, _ := Global(g, opts); !d.Warm {
		t.Fatalf("warm flag lost: %+v", d)
	}
	assertMatchesOracle(t, "warm", g, opts)
}

// TestCentralityFormatEquivalence covers the centralities that solve
// through the trust matrix; the degree, closeness and betweenness
// measures read the graph directly.
func TestCentralityFormatEquivalence(t *testing.T) {
	g := trust.ErdosRenyi(xrand.New(11), 14, 0.2)
	for _, tc := range []struct {
		c    Centrality
		opts Options
	}{
		{CentralityPower, DefaultOptions()},
		{CentralityPageRank, Options{DanglingUniform: true, Damping: 0.15}},
	} {
		got, err := Scores(g, tc.c)
		if err != nil {
			t.Fatalf("%v: %v", tc.c, err)
		}
		want, _ := denseGlobal(weightsOf(g), tc.opts)
		assertBitsEqual(t, tc.c.String(), got, want)
	}
}

// TestWarmBeatsColdOnSparseGraph pins the incremental-reputation premise:
// after a small perturbation, re-solving from the previous eigenvector
// takes strictly fewer iterations than a cold start.
func TestWarmBeatsColdOnSparseGraph(t *testing.T) {
	g := trust.SparseErdosRenyi(xrand.New(99), 400, 10)
	x, cold, err := Global(g, DefaultOptions())
	if err != nil || !cold.Converged {
		t.Fatalf("cold solve: %+v err=%v", cold, err)
	}
	// Perturb one edge, then warm-solve.
	g.SetTrust(1, 2, 0.5)
	opts := DefaultOptions()
	opts.InitialVector = x
	_, warm, err := Global(g, opts)
	if err != nil || !warm.Converged || !warm.Warm {
		t.Fatalf("warm solve: %+v err=%v", warm, err)
	}
	_, cold2, err := Global(g, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if warm.Iterations >= cold2.Iterations {
		t.Fatalf("warm start took %d iterations, cold %d", warm.Iterations, cold2.Iterations)
	}
}
