package trust

import (
	"math"
	"reflect"
	"testing"

	"gridvo/internal/matrix"
	"gridvo/internal/xrand"
)

func TestSparseErdosRenyiDegree(t *testing.T) {
	rng := xrand.New(5)
	const m, deg = 2000, 12.0
	g := SparseErdosRenyi(rng, m, deg)
	got := float64(g.NumEdges()) / m
	if math.Abs(got-deg) > 1 {
		t.Fatalf("mean degree = %v, want ~%v", got, deg)
	}
	for v := 0; v < m; v++ {
		if g.Trust(v, v) != 0 {
			t.Fatal("sparse generator produced a self-loop")
		}
	}
	for _, e := range g.Edges() {
		if e.Weight <= 0 || e.Weight > 1 {
			t.Fatalf("edge weight %v outside (0,1]", e.Weight)
		}
	}
}

func TestSparseErdosRenyiDeterministic(t *testing.T) {
	a := SparseErdosRenyi(xrand.New(9), 500, 8)
	b := SparseErdosRenyi(xrand.New(9), 500, 8)
	ea, eb := a.Edges(), b.Edges()
	if len(ea) != len(eb) {
		t.Fatal("same seed produced different edge counts")
	}
	for i := range ea {
		if ea[i] != eb[i] {
			t.Fatal("same seed produced different edges")
		}
	}
}

func TestSparseErdosRenyiExtremes(t *testing.T) {
	if g := SparseErdosRenyi(xrand.New(1), 100, 0); g.NumEdges() != 0 {
		t.Fatal("degree 0 produced edges")
	}
	if g := SparseErdosRenyi(xrand.New(1), 1, 5); g.NumEdges() != 0 {
		t.Fatal("single node produced edges")
	}
	// meanDegree >= m-1 saturates to the complete graph.
	if g := SparseErdosRenyi(xrand.New(1), 10, 9); g.NumEdges() != 90 {
		t.Fatalf("complete graph has %d edges, want 90", g.NumEdges())
	}
}

func TestSparseErdosRenyiPanics(t *testing.T) {
	for i, f := range []func(){
		func() { SparseErdosRenyi(xrand.New(1), -1, 5) },
		func() { SparseErdosRenyi(xrand.New(1), 5, -1) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("case %d did not panic", i)
				}
			}()
			f()
		}()
	}
}

func TestSetTrustZeroDeletes(t *testing.T) {
	g := NewGraph(3)
	g.SetTrust(0, 1, 0.5)
	g.SetTrust(0, 2, 0.7)
	g.SetTrust(0, 1, 0)
	if g.NumEdges() != 1 || g.Trust(0, 1) != 0 {
		t.Fatalf("zero weight did not delete edge: edges=%d", g.NumEdges())
	}
	// Deleting a non-existent edge is a no-op.
	g.SetTrust(1, 2, 0)
	if g.NumEdges() != 1 {
		t.Fatal("no-op delete changed edge count")
	}
	// Out-of-order insertion keeps rows sorted.
	g.SetTrust(0, 0, 0.1)
	nb := g.Neighbors(0)
	if len(nb) != 2 || nb[0] != 0 || nb[1] != 2 {
		t.Fatalf("Neighbors(0) = %v, want [0 2]", nb)
	}
}

// TestNormalizedFresh pins the contract Store.Resolve relies on: every
// Normalized call builds a new matrix from the current edges, and a matrix
// already handed out is a snapshot that later mutations do not reach.
func TestNormalizedFresh(t *testing.T) {
	g := ErdosRenyi(xrand.New(3), 12, 0.3)
	opts := NormalizeOptions{DanglingUniform: true}
	a1, _ := g.Normalized(opts)
	a2, _ := g.Normalized(opts)
	if a1 == a2 {
		t.Fatal("Normalized returned the same matrix twice")
	}
	for i := 0; i < 12; i++ {
		s := 0.0
		g.VisitNeighbors(i, func(_ int, w float64) { s += w })
		for j := 0; j < 12; j++ {
			want := 1.0 / 12
			if s != 0 {
				want = g.Trust(i, j) / s
			}
			if math.Float64bits(a1.At(i, j)) != math.Float64bits(want) {
				t.Fatalf("a(%d,%d) = %v, want %v", i, j, a1.At(i, j), want)
			}
		}
	}
	old := a1.At(0, 1)
	g.ClearOutgoing(0)
	g.SetTrust(0, 1, 0.123)
	if a1.At(0, 1) != old {
		t.Fatal("a graph mutation reached a matrix already returned")
	}
	if a3, _ := g.Normalized(opts); a3.At(0, 1) != 1 {
		t.Fatalf("refreshed matrix has a(0,1) = %v, want 1", a3.At(0, 1))
	}
}

// twoPassNormalized is the reference for the one-pass CSR build: a raw
// CSR of the weights, validated by NewCSRRaw, then NormalizeRows.
func twoPassNormalized(g *Graph, uniform bool) (*matrix.CSR, []int) {
	rowPtr := make([]int, g.N()+1)
	colIdx := make([]int32, 0, g.NumEdges())
	val := make([]float64, 0, g.NumEdges())
	for i := 0; i < g.N(); i++ {
		g.VisitNeighbors(i, func(j int, w float64) {
			colIdx = append(colIdx, int32(j))
			val = append(val, w)
		})
		rowPtr[i+1] = len(val)
	}
	a := matrix.NewCSRRaw(g.N(), g.N(), rowPtr, colIdx, val)
	return a, a.NormalizeRows(uniform)
}

// TestNormalizedMatchesTwoPassReference pins the one-pass CSR
// normalization to the two-pass reference bit for bit: same row pointers,
// columns and values, same dangling list, in both dangling modes.
func TestNormalizedMatchesTwoPassReference(t *testing.T) {
	tiny := math.SmallestNonzeroFloat64
	grown := NewGraph(3)
	grown.SetTrust(0, 1, 0.5)
	grown.SetTrust(1, 2, 0.25)
	grown.Grow(6)
	grown.SetTrust(5, 0, 0.75)
	grown.SetTrust(0, 4, 0.125)
	sparse := SparseErdosRenyi(xrand.New(4), 300, 3)
	for _, i := range []int{0, 17, 299} {
		sparse.ClearOutgoing(i)
	}
	for _, tc := range []struct {
		name string
		g    *Graph
	}{
		{"n=0", NewGraph(0)},
		{"n=1 edgeless", NewGraph(1)},
		{"n=1 self-loop", graphOf(1, Edge{0, 0, 0.3})},
		{"dangling rows", graphOf(5, Edge{0, 1, 0.2}, Edge{0, 4, 0.6}, Edge{2, 0, 1}, Edge{4, 2, 0.9})},
		// Subnormal sums: 1/s overflows to +Inf, so only w/s is exact; the
		// last row's smallest entry underflows to an explicit zero.
		{"subnormal sums", graphOf(3, Edge{0, 1, tiny}, Edge{0, 2, tiny}, Edge{1, 0, 3 * tiny},
			Edge{2, 0, tiny}, Edge{2, 1, 1}, Edge{2, 2, 1})},
		{"self-loops", graphOf(4, Edge{0, 0, 0.5}, Edge{0, 3, 0.25}, Edge{1, 1, 1}, Edge{2, 1, 0.1},
			Edge{2, 2, 0.7}, Edge{3, 3, 0.4})},
		{"after Grow", grown},
		{"sparse with cleared rows", sparse},
	} {
		for _, uniform := range []bool{true, false} {
			got, gotZ := tc.g.Normalized(NormalizeOptions{DanglingUniform: uniform})
			want, wantZ := twoPassNormalized(tc.g, uniform)
			// The values are non-negative and never NaN, so DeepEqual's ==
			// on the unexported float slices is a bitwise comparison.
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("%s, uniform=%v: one-pass %v differs from the two-pass reference %v", tc.name, uniform, got, want)
			}
			if !reflect.DeepEqual(gotZ, wantZ) {
				t.Fatalf("%s, uniform=%v: dangling %v, want %v", tc.name, uniform, gotZ, wantZ)
			}
		}
	}
}

// graphOf builds an n-node graph from the given edges.
func graphOf(n int, edges ...Edge) *Graph {
	g := NewGraph(n)
	for _, e := range edges {
		g.SetTrust(e.From, e.To, e.Weight)
	}
	return g
}

func TestGrow(t *testing.T) {
	g := NewGraph(2)
	g.SetTrust(0, 1, 0.5)
	g.Grow(4)
	if g.N() != 4 || g.NumEdges() != 1 || g.Trust(0, 1) != 0.5 {
		t.Fatal("Grow lost existing state")
	}
	g.SetTrust(3, 0, 0.25)
	if g.NumEdges() != 2 {
		t.Fatal("new node cannot receive edges")
	}
	g.Grow(4) // no-op
	if g.N() != 4 {
		t.Fatal("same-size Grow changed n")
	}
	labeled := NewGraph(1)
	labeled.SetLabels([]string{"root"})
	labeled.Grow(3)
	if labeled.Label(0) != "root" || labeled.Label(2) != "G2" {
		t.Fatalf("labels after Grow: %q %q", labeled.Label(0), labeled.Label(2))
	}
	defer func() {
		if recover() == nil {
			t.Fatal("shrinking Grow did not panic")
		}
	}()
	g.Grow(3)
}

func TestStoreApplyDelta(t *testing.T) {
	s := NewStore(3)
	st, err := s.ApplyDelta(0, []DeltaOp{{From: 0, To: 1, Weight: 0.5}, {From: 1, To: 2, Weight: 0.7}})
	if err != nil {
		t.Fatal(err)
	}
	if st.N != 3 || st.Edges != 2 || st.Version != 1 || st.Ops != 2 {
		t.Fatalf("stats = %+v", st)
	}
	// Growth plus edge to a new node.
	st, err = s.ApplyDelta(5, []DeltaOp{{From: 4, To: 0, Weight: 1}})
	if err != nil {
		t.Fatal(err)
	}
	if st.N != 5 || st.Edges != 3 || st.Version != 2 {
		t.Fatalf("stats after grow = %+v", st)
	}
	// Delete via zero weight.
	st, _ = s.ApplyDelta(0, []DeltaOp{{From: 0, To: 1, Weight: 0}})
	if st.Edges != 2 {
		t.Fatalf("zero-weight op did not delete: %+v", st)
	}
}

func TestStoreApplyDeltaRejectsAtomically(t *testing.T) {
	s := NewStore(2)
	_, err := s.ApplyDelta(0, []DeltaOp{{From: 0, To: 1, Weight: 0.5}, {From: 0, To: 9, Weight: 0.5}})
	if err == nil {
		t.Fatal("out-of-range op accepted")
	}
	if st := s.Stats(); st.Edges != 0 || st.Version != 0 {
		t.Fatalf("rejected batch partially applied: %+v", st)
	}
	if _, err := s.ApplyDelta(0, []DeltaOp{{From: 0, To: 1, Weight: math.NaN()}}); err == nil {
		t.Fatal("NaN weight accepted")
	}
	if _, err := s.ApplyDelta(0, []DeltaOp{{From: 0, To: 1, Weight: -1}}); err == nil {
		t.Fatal("negative weight accepted")
	}
	if _, err := s.ApplyDelta(MaxEntries+1, nil); err == nil {
		t.Fatal("node count above MaxEntries accepted")
	}
	if st := s.Stats(); st.N != 2 {
		t.Fatalf("rejected growth changed the store: %+v", st)
	}
}

// TestNormalizedEntries pins the pre-allocation count Normalized's size
// is checked by: edges, plus n per dangling row under the uniform fix,
// saturating instead of overflowing.
func TestNormalizedEntries(t *testing.T) {
	g := graphOf(5, Edge{0, 1, 0.2}, Edge{0, 4, 0.6}, Edge{2, 0, 1}, Edge{4, 2, 0.9})
	for _, uniform := range []bool{true, false} {
		a, _ := g.Normalized(NormalizeOptions{DanglingUniform: uniform})
		if got := g.NormalizedEntries(uniform); got != a.NNZ() {
			t.Fatalf("uniform=%v: NormalizedEntries %d, Normalized stores %d", uniform, got, a.NNZ())
		}
	}
	if got := g.NormalizedEntries(true); got != 4+2*5 {
		t.Fatalf("NormalizedEntries = %d, want 14", got)
	}
	// Four dangling rows of math.MaxInt/2 entries each overflow int.
	huge := &Graph{n: math.MaxInt / 2, adj: make([][]edge, 4)}
	if got := huge.NormalizedEntries(true); got != math.MaxInt {
		t.Fatalf("NormalizedEntries = %d, want saturation at math.MaxInt", got)
	}
}

func TestStoreResolveWarm(t *testing.T) {
	s := NewStore(3)
	if _, err := s.ApplyDelta(0, []DeltaOp{{0, 1, 1}, {1, 2, 1}, {2, 0, 1}}); err != nil {
		t.Fatal(err)
	}
	calls := 0
	solve := func(g *Graph, warm []float64) (SolveResult, error) {
		calls++
		if calls == 1 && warm != nil {
			t.Fatal("first solve should be cold")
		}
		if calls == 2 && warm == nil {
			t.Fatal("second solve should receive the previous vector")
		}
		u := 1.0 / float64(g.N())
		scores := make([]float64, g.N())
		for i := range scores {
			scores[i] = u
		}
		return SolveResult{Scores: scores, Iterations: 10 - 5*calls, Converged: true, Warm: warm != nil}, nil
	}
	_, st, err := s.Resolve(solve)
	if err != nil || st.Solves != 1 || st.WarmSolves != 0 || !st.HasVector {
		t.Fatalf("first resolve: %+v err=%v", st, err)
	}
	_, st, err = s.Resolve(solve)
	if err != nil || st.Solves != 2 || st.WarmSolves != 1 || st.LastIterations != 0 {
		t.Fatalf("second resolve: %+v err=%v", st, err)
	}
}

func TestStoreWarmVectorSurvivesGrow(t *testing.T) {
	s := NewStore(2)
	s.ApplyDelta(0, []DeltaOp{{0, 1, 1}, {1, 0, 1}})
	s.Resolve(func(g *Graph, warm []float64) (SolveResult, error) {
		return SolveResult{Scores: []float64{0.5, 0.5}, Iterations: 3, Converged: true}, nil
	})
	s.ApplyDelta(4, nil)
	s.Resolve(func(g *Graph, warm []float64) (SolveResult, error) {
		if len(warm) != 4 || warm[0] != 0.5 || warm[2] != 0 {
			t.Fatalf("warm vector after grow = %v", warm)
		}
		return SolveResult{}, nil
	})
}
