package reputation

import (
	"math"
	"strings"
	"testing"
	"testing/quick"

	"gridvo/internal/matrix"
	"gridvo/internal/trust"
	"gridvo/internal/xrand"
)

func ring(n int) *trust.Graph {
	g := trust.NewGraph(n)
	for i := 0; i < n; i++ {
		g.SetTrust(i, (i+1)%n, 1)
	}
	return g
}

func TestGlobalEmptyGraph(t *testing.T) {
	if _, _, err := Global(trust.NewGraph(0), DefaultOptions()); err != ErrEmptyGraph {
		t.Fatalf("err = %v, want ErrEmptyGraph", err)
	}
}

// TestGlobalRejectsOversizedMatrix: 10⁴ edgeless nodes would need 10⁸
// uniform entries, above trust.MaxEntries; Global refuses before building
// the matrix.
func TestGlobalRejectsOversizedMatrix(t *testing.T) {
	g := trust.NewGraph(10000)
	if _, _, err := Global(g, DefaultOptions()); err == nil || !strings.Contains(err.Error(), "above the limit") {
		t.Fatalf("err = %v, want the entry-limit error", err)
	}
	g.SetTrust(0, 1, 1)
	if _, _, err := Global(g, Options{}); err != nil {
		t.Fatalf("without the uniform fix the matrix holds one entry: %v", err)
	}
}

func TestGlobalSingleton(t *testing.T) {
	x, diag, err := Global(trust.NewGraph(1), DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if len(x) != 1 || math.Abs(x[0]-1) > 1e-12 {
		t.Fatalf("singleton reputation = %v, want [1]", x)
	}
	if !diag.Converged {
		t.Fatal("singleton did not converge")
	}
}

func TestGlobalRingIsUniform(t *testing.T) {
	// In a symmetric ring every GSP is structurally identical, so the
	// principal eigenvector is uniform.
	x, diag, err := Global(ring(6), DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if !diag.Converged {
		t.Fatal("ring did not converge")
	}
	for _, v := range x {
		if math.Abs(v-1.0/6) > 1e-6 {
			t.Fatalf("ring reputation = %v, want uniform", x)
		}
	}
}

func TestGlobalIsLeftEigenvector(t *testing.T) {
	// The converged vector must satisfy Aᵀx ∝ x (eq. 6).
	rng := xrand.New(3)
	for trial := 0; trial < 25; trial++ {
		g := trust.ErdosRenyi(rng.SplitN("g", trial), 10, 0.4)
		x, diag, err := Global(g, DefaultOptions())
		if err != nil {
			t.Fatal(err)
		}
		if !diag.Converged {
			continue // reducible pathological case; other tests cover it
		}
		a, _ := g.Normalized(trust.NormalizeOptions{DanglingUniform: true})
		ax := a.TMulVec(x)
		matrix.VecNormalizeL1(ax)
		if !matrix.VecEqual(ax, x, 1e-6) {
			t.Fatalf("trial %d: Aᵀx != λx:\nx  = %v\nAᵀx = %v", trial, x, ax)
		}
	}
}

func TestGlobalNonNegativeSumsToOne(t *testing.T) {
	rng := xrand.New(5)
	f := func(seed uint32) bool {
		g := trust.ErdosRenyi(xrand.New(uint64(seed)), 8+rng.IntN(8), 0.2)
		x, _, err := Global(g, DefaultOptions())
		if err != nil {
			return false
		}
		sum := 0.0
		for _, v := range x {
			if v < -1e-12 {
				return false
			}
			sum += v
		}
		return math.Abs(sum-1) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestHighlyTrustedNodeWins(t *testing.T) {
	// A star where everyone trusts node 0 strongly and others weakly:
	// node 0 must have the highest reputation.
	g := trust.NewGraph(5)
	for i := 1; i < 5; i++ {
		g.SetTrust(i, 0, 1.0)
		g.SetTrust(i, (i%4)+1, 0.1) // weak side edges among the leaves
		g.SetTrust(0, i, 0.25)
	}
	x, _, err := Global(g, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if matrix.ArgMax(x) != 0 {
		t.Fatalf("reputation = %v; node 0 should dominate", x)
	}
}

func TestUntrustedNodeScoresLowest(t *testing.T) {
	// Node 3 receives no trust at all; with dangling-uniform fix it still
	// gets a trickle from dangling rows but must rank strictly below the
	// trusted core when the core is strongly connected.
	g := ring(3) // nodes 0..2 strongly connected
	full := trust.NewGraph(4)
	for _, e := range g.Edges() {
		full.SetTrust(e.From, e.To, e.Weight)
	}
	full.SetTrust(3, 0, 1) // node 3 trusts the core, nobody trusts it
	x, _, err := Global(full, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if matrix.ArgMin(x) != 3 {
		t.Fatalf("reputation = %v; node 3 should be lowest", x)
	}
}

func TestStopRules(t *testing.T) {
	g := trust.ErdosRenyi(xrand.New(9), 12, 0.3)
	for _, rule := range []StopRule{StopNormDiff, StopAvgRelErr} {
		opts := DefaultOptions()
		opts.Stop = rule
		x, diag, err := Global(g, opts)
		if err != nil {
			t.Fatalf("%v: %v", rule, err)
		}
		if !diag.Converged {
			t.Fatalf("%v did not converge", rule)
		}
		if math.Abs(matrix.VecSum(x)-1) > 1e-9 {
			t.Fatalf("%v: not normalized", rule)
		}
	}
	if StopNormDiff.String() != "norm-diff" || StopAvgRelErr.String() != "avg-rel-err" {
		t.Fatal("StopRule.String wrong")
	}
	if StopRule(99).String() == "" {
		t.Fatal("unknown StopRule has empty String")
	}
}

func TestMaxIterRespected(t *testing.T) {
	g := trust.ErdosRenyi(xrand.New(10), 16, 0.2)
	opts := DefaultOptions()
	opts.MaxIter = 2
	opts.Epsilon = 1e-300 // unreachable
	_, diag, err := Global(g, opts)
	if err != nil {
		t.Fatal(err)
	}
	if diag.Converged || diag.Iterations != 2 {
		t.Fatalf("diag = %+v, want 2 iterations, not converged", diag)
	}
}

func TestDampingValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("damping > 1 did not panic")
		}
	}()
	opts := DefaultOptions()
	opts.Damping = 1.5
	_, _, _ = Global(ring(3), opts)
}

func TestDampingKeepsUniformOnRing(t *testing.T) {
	opts := DefaultOptions()
	opts.Damping = 0.15
	x, diag, err := Global(ring(5), opts)
	if err != nil {
		t.Fatal(err)
	}
	if !diag.Converged {
		t.Fatal("damped ring did not converge")
	}
	for _, v := range x {
		if math.Abs(v-0.2) > 1e-6 {
			t.Fatalf("damped ring reputation = %v, want uniform", x)
		}
	}
}

func TestDanglingDiagnostics(t *testing.T) {
	g := trust.NewGraph(3)
	g.SetTrust(0, 1, 1) // nodes 1 and 2 have no outgoing trust
	_, diag, err := Global(g, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if len(diag.Dangling) != 2 {
		t.Fatalf("dangling = %v, want two entries", diag.Dangling)
	}
}

func TestSubstochasticModeStillNormalized(t *testing.T) {
	g := trust.NewGraph(3)
	g.SetTrust(0, 1, 1)
	g.SetTrust(1, 0, 1)
	// Node 2 dangles; with DanglingUniform=false the matrix is
	// substochastic and the iterate must be renormalized to survive.
	opts := Options{DanglingUniform: false}
	x, _, err := Global(g, opts)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(matrix.VecSum(x)-1) > 1e-9 {
		t.Fatalf("substochastic iterate not renormalized: %v", x)
	}
}

func TestPowerIterateNonSquarePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("non-square PowerIterate did not panic")
		}
	}()
	PowerIterate(matrix.NewCSRRaw(2, 3, []int{0, 0, 0}, nil, nil), DefaultOptions())
}

func TestPowerIterateEmpty(t *testing.T) {
	x, diag := PowerIterate(matrix.NewCSRRaw(0, 0, []int{0}, nil, nil), DefaultOptions())
	if x != nil || !diag.Converged {
		t.Fatal("empty matrix should converge vacuously")
	}
}

func TestAverage(t *testing.T) {
	if Average(nil) != 0 {
		t.Fatal("Average(nil) != 0")
	}
	if got := Average([]float64{0.2, 0.4}); math.Abs(got-0.3) > 1e-12 {
		t.Fatalf("Average = %v", got)
	}
}

func TestAverageOf(t *testing.T) {
	x := []float64{0.1, 0.2, 0.3, 0.4}
	if got := AverageOf(x, []int{1, 3}); math.Abs(got-0.3) > 1e-12 {
		t.Fatalf("AverageOf = %v", got)
	}
	if AverageOf(x, nil) != 0 {
		t.Fatal("AverageOf empty != 0")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("out-of-range AverageOf did not panic")
		}
	}()
	AverageOf(x, []int{7})
}

func TestEvictionInvariance(t *testing.T) {
	// Recomputing reputation on the subgraph after evicting the lowest-
	// reputation GSP (as TVOF does) must produce a valid distribution.
	g := trust.ErdosRenyi(xrand.New(21), 16, 0.3)
	for g.N() > 1 {
		x, _, err := Global(g, DefaultOptions())
		if err != nil {
			t.Fatal(err)
		}
		lowest := matrix.ArgMin(x)
		g, _ = g.Without(lowest)
		x2, _, err := Global(g, DefaultOptions())
		if err != nil {
			t.Fatal(err)
		}
		if len(x2) != g.N() {
			t.Fatal("reputation length mismatch after eviction")
		}
		if math.Abs(matrix.VecSum(x2)-1) > 1e-9 {
			t.Fatalf("post-eviction reputation not normalized: %v", x2)
		}
	}
}

// TestWarmStartSameFixedPoint verifies a warm-started iteration converges
// to the same vector as a cold one and reports Diagnostics.Warm.
func TestWarmStartSameFixedPoint(t *testing.T) {
	rng := xrand.New(17)
	for trial := 0; trial < 25; trial++ {
		g := trust.ErdosRenyi(rng.SplitN("g", trial), 12, 0.4)
		cold, coldDiag, err := Global(g, DefaultOptions())
		if err != nil {
			t.Fatal(err)
		}
		if !coldDiag.Converged {
			continue
		}
		if coldDiag.Warm {
			t.Fatalf("trial %d: cold run flagged warm", trial)
		}
		// Start near — but not at — the fixed point, as the mechanism loop
		// does when it carries the previous iteration's vector forward.
		init := append([]float64(nil), cold...)
		for i := range init {
			init[i] *= 1 + 0.01*rng.Float64()
		}
		opts := DefaultOptions()
		opts.InitialVector = init
		warm, warmDiag, err := Global(g, opts)
		if err != nil {
			t.Fatal(err)
		}
		if !warmDiag.Warm || !warmDiag.Converged {
			t.Fatalf("trial %d: warm diagnostics off: %+v", trial, warmDiag)
		}
		if !matrix.VecEqual(warm, cold, 1e-6) {
			t.Fatalf("trial %d: warm fixed point differs:\ncold = %v\nwarm = %v", trial, cold, warm)
		}
		if warmDiag.Iterations > coldDiag.Iterations {
			t.Fatalf("trial %d: warm start took more iterations (%d) than cold (%d)",
				trial, warmDiag.Iterations, coldDiag.Iterations)
		}
	}
}

// TestWarmStartExactVectorConvergesImmediately seeds with the converged
// vector itself: one multiply step must confirm convergence.
func TestWarmStartExactVectorConvergesImmediately(t *testing.T) {
	g := ring(8)
	cold, _, err := Global(g, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	opts := DefaultOptions()
	opts.InitialVector = cold
	_, diag, err := Global(g, opts)
	if err != nil {
		t.Fatal(err)
	}
	if !diag.Converged || diag.Iterations != 1 {
		t.Fatalf("exact warm start diagnostics: %+v, want converged in 1 iteration", diag)
	}
}

// TestWarmStartInvalidFallsBackToUniform checks every malformed hint is
// ignored: the run behaves exactly like a cold start.
func TestWarmStartInvalidFallsBackToUniform(t *testing.T) {
	g := ErdosRenyiFixture()
	cold, coldDiag, err := Global(g, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	n := g.N()
	bad := map[string][]float64{
		"wrongLen": make([]float64, n-1),
		"negative": negAt(n, 2),
		"nan":      withVal(n, 1, math.NaN()),
		"inf":      withVal(n, 0, math.Inf(1)),
		"zeroSum":  make([]float64, n),
	}
	for name, init := range bad {
		opts := DefaultOptions()
		opts.InitialVector = init
		x, diag, err := Global(g, opts)
		if err != nil {
			t.Fatal(err)
		}
		if diag.Warm {
			t.Fatalf("%s: invalid hint flagged warm", name)
		}
		if diag.Iterations != coldDiag.Iterations || !matrix.VecEqual(x, cold, 0) {
			t.Fatalf("%s: invalid hint changed the run: %+v vs cold %+v", name, diag, coldDiag)
		}
	}
}

// TestWarmStartDoesNotModifyInput verifies the hint slice is left intact
// (the mechanism loop reuses its buffer across iterations).
func TestWarmStartDoesNotModifyInput(t *testing.T) {
	g := ring(5)
	init := []float64{5, 1, 1, 1, 2} // deliberately unnormalized
	orig := append([]float64(nil), init...)
	opts := DefaultOptions()
	opts.InitialVector = init
	if _, _, err := Global(g, opts); err != nil {
		t.Fatal(err)
	}
	for i := range init {
		if init[i] != orig[i] {
			t.Fatalf("InitialVector modified at %d: %v vs %v", i, init, orig)
		}
	}
}

func ErdosRenyiFixture() *trust.Graph {
	return trust.ErdosRenyi(xrand.New(99), 10, 0.5)
}

func negAt(n, i int) []float64 {
	v := uniformVec(n)
	v[i] = -0.1
	return v
}

func withVal(n, i int, x float64) []float64 {
	v := uniformVec(n)
	v[i] = x
	return v
}

func uniformVec(n int) []float64 {
	v := make([]float64, n)
	for i := range v {
		v[i] = 1 / float64(n)
	}
	return v
}
