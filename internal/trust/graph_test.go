package trust

import (
	"math"
	"testing"
	"testing/quick"

	"gridvo/internal/xrand"
)

func TestNewGraphEmpty(t *testing.T) {
	g := NewGraph(4)
	if g.N() != 4 || g.NumEdges() != 0 {
		t.Fatalf("N=%d edges=%d, want 4,0", g.N(), g.NumEdges())
	}
	if g.HasEdge(0, 1) {
		t.Fatal("edgeless graph claims an edge")
	}
}

func TestSetTrustAndNeighbors(t *testing.T) {
	g := NewGraph(4)
	g.SetTrust(0, 1, 0.5)
	g.SetTrust(0, 3, 0.2)
	g.SetTrust(2, 0, 1.0)
	if got := g.Trust(0, 1); got != 0.5 {
		t.Fatalf("Trust(0,1) = %v", got)
	}
	nb := g.Neighbors(0)
	if len(nb) != 2 || nb[0] != 1 || nb[1] != 3 {
		t.Fatalf("Neighbors(0) = %v, want [1 3]", nb)
	}
	in := g.InNeighbors(0)
	if len(in) != 1 || in[0] != 2 {
		t.Fatalf("InNeighbors(0) = %v, want [2]", in)
	}
	if g.OutDegree(0) != 2 || g.OutDegree(1) != 0 {
		t.Fatal("OutDegree wrong")
	}
	if g.NumEdges() != 3 {
		t.Fatalf("NumEdges = %d, want 3", g.NumEdges())
	}
}

func TestSetTrustNegativePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("negative trust did not panic")
		}
	}()
	NewGraph(2).SetTrust(0, 1, -1)
}

func TestTrustAsymmetry(t *testing.T) {
	g := NewGraph(2)
	g.SetTrust(0, 1, 0.9)
	if g.Trust(1, 0) != 0 {
		t.Fatal("trust must be asymmetric: (1,0) should be 0")
	}
}

func TestNormalizedRowsSumToOne(t *testing.T) {
	g := NewGraph(3)
	g.SetTrust(0, 1, 2)
	g.SetTrust(0, 2, 6)
	g.SetTrust(1, 0, 1)
	a, dangling := g.Normalized(NormalizeOptions{DanglingUniform: true})
	if got := a.At(0, 1); math.Abs(got-0.25) > 1e-12 {
		t.Fatalf("a_01 = %v, want 0.25", got)
	}
	if got := a.At(0, 2); math.Abs(got-0.75) > 1e-12 {
		t.Fatalf("a_02 = %v, want 0.75", got)
	}
	if len(dangling) != 1 || dangling[0] != 2 {
		t.Fatalf("dangling = %v, want [2]", dangling)
	}
	// Dangling row replaced with uniform.
	for j := 0; j < 3; j++ {
		if math.Abs(a.At(2, j)-1.0/3) > 1e-12 {
			t.Fatalf("dangling row entry (2,%d) = %v", j, a.At(2, j))
		}
	}
}

func TestNormalizedSubstochastic(t *testing.T) {
	g := NewGraph(2)
	g.SetTrust(0, 1, 1)
	a, dangling := g.Normalized(NormalizeOptions{DanglingUniform: false})
	if len(dangling) != 1 || dangling[0] != 1 {
		t.Fatalf("dangling = %v", dangling)
	}
	if a.At(1, 0) != 0 || a.At(1, 1) != 0 || a.NNZ() != 1 {
		t.Fatal("substochastic mode altered zero row")
	}
}

func TestNormalizedDoesNotMutateGraph(t *testing.T) {
	g := NewGraph(2)
	g.SetTrust(0, 1, 4)
	g.Normalized(NormalizeOptions{DanglingUniform: true})
	if g.Trust(0, 1) != 4 {
		t.Fatal("Normalized mutated the raw weights")
	}
}

func TestSubgraphDropsEvictedEdges(t *testing.T) {
	g := NewGraph(4)
	g.SetLabels([]string{"a", "b", "c", "d"})
	g.SetTrust(0, 1, 1)
	g.SetTrust(1, 2, 2)
	g.SetTrust(2, 3, 3)
	g.SetTrust(3, 0, 4)
	sub := g.Subgraph([]int{0, 1, 3})
	if sub.N() != 3 {
		t.Fatalf("sub.N = %d", sub.N())
	}
	// Kept: 0->1 (now 0->1), 3->0 (now 2->0). Dropped: anything touching 2.
	if sub.Trust(0, 1) != 1 || sub.Trust(2, 0) != 4 {
		t.Fatal("kept edges wrong")
	}
	if sub.NumEdges() != 2 {
		t.Fatalf("sub edges = %d, want 2", sub.NumEdges())
	}
	if sub.Label(2) != "d" {
		t.Fatalf("label remap wrong: %q", sub.Label(2))
	}
}

func TestWithout(t *testing.T) {
	g := NewGraph(3)
	g.SetTrust(0, 1, 1)
	g.SetTrust(1, 2, 1)
	sub, keep := g.Without(1)
	if sub.N() != 2 || len(keep) != 2 || keep[0] != 0 || keep[1] != 2 {
		t.Fatalf("Without(1): N=%d keep=%v", sub.N(), keep)
	}
	if sub.NumEdges() != 0 {
		t.Fatal("edges through evicted node survived")
	}
}

func TestWithoutPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Without(5) did not panic")
		}
	}()
	NewGraph(2).Without(5)
}

func TestCloneIndependent(t *testing.T) {
	g := NewGraph(2)
	g.SetLabels([]string{"x", "y"})
	g.SetTrust(0, 1, 1)
	c := g.Clone()
	c.SetTrust(0, 1, 9)
	if g.Trust(0, 1) != 1 {
		t.Fatal("Clone shares weights")
	}
	if c.Label(0) != "x" {
		t.Fatal("Clone lost labels")
	}
}

func TestErdosRenyiDensity(t *testing.T) {
	rng := xrand.New(1)
	const m, p = 40, 0.1
	// Average density over several graphs should approach p.
	total := 0.0
	const trials = 50
	for i := 0; i < trials; i++ {
		g := ErdosRenyi(rng.SplitN("er", i), m, p)
		total += g.Density()
		// No self-loops ever.
		for v := 0; v < m; v++ {
			if g.Trust(v, v) != 0 {
				t.Fatal("Erdős–Rényi generated a self-loop")
			}
		}
	}
	avg := total / trials
	if math.Abs(avg-p) > 0.02 {
		t.Fatalf("average density = %v, want ~%v", avg, p)
	}
}

func TestErdosRenyiWeightsPositive(t *testing.T) {
	g := ErdosRenyi(xrand.New(2), 16, 0.5)
	for _, e := range g.Edges() {
		if e.Weight <= 0 || e.Weight > 1 {
			t.Fatalf("edge weight %v outside (0,1]", e.Weight)
		}
	}
}

func TestErdosRenyiDeterministic(t *testing.T) {
	a := ErdosRenyi(xrand.New(7), 16, 0.1)
	b := ErdosRenyi(xrand.New(7), 16, 0.1)
	if a.NumEdges() != b.NumEdges() {
		t.Fatal("same seed produced different graphs")
	}
	ea, eb := a.Edges(), b.Edges()
	for i := range ea {
		if ea[i] != eb[i] {
			t.Fatal("same seed produced different edges")
		}
	}
}

func TestErdosRenyiExtremes(t *testing.T) {
	empty := ErdosRenyi(xrand.New(1), 10, 0)
	if empty.NumEdges() != 0 {
		t.Fatal("p=0 produced edges")
	}
	full := ErdosRenyi(xrand.New(1), 10, 1)
	if full.NumEdges() != 90 {
		t.Fatalf("p=1 produced %d edges, want 90", full.NumEdges())
	}
}

func TestErdosRenyiPanics(t *testing.T) {
	for i, f := range []func(){
		func() { ErdosRenyi(xrand.New(1), -1, 0.5) },
		func() { ErdosRenyi(xrand.New(1), 5, 1.5) },
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

func TestEnsureEveryNodeTrusted(t *testing.T) {
	rng := xrand.New(3)
	g := NewGraph(5)
	g.SetTrust(0, 1, 1)
	EnsureEveryNodeTrusted(rng, g)
	for j := 0; j < 5; j++ {
		if len(g.InNeighbors(j)) == 0 {
			t.Fatalf("node %d still untrusted", j)
		}
	}
	// Never introduces self-loops.
	for v := 0; v < 5; v++ {
		if g.Trust(v, v) != 0 {
			t.Fatal("EnsureEveryNodeTrusted created a self-loop")
		}
	}
}

func TestStronglyConnected(t *testing.T) {
	ring := NewGraph(3)
	ring.SetTrust(0, 1, 1)
	ring.SetTrust(1, 2, 1)
	ring.SetTrust(2, 0, 1)
	if !ring.StronglyConnected() {
		t.Fatal("ring not recognized as strongly connected")
	}
	chain := NewGraph(3)
	chain.SetTrust(0, 1, 1)
	chain.SetTrust(1, 2, 1)
	if chain.StronglyConnected() {
		t.Fatal("chain wrongly strongly connected")
	}
	if !NewGraph(0).StronglyConnected() {
		t.Fatal("empty graph should be vacuously connected")
	}
	if !NewGraph(1).StronglyConnected() {
		t.Fatal("singleton should be strongly connected")
	}
}

func TestSubgraphPreservesWeightsProperty(t *testing.T) {
	rng := xrand.New(11)
	f := func(seed uint32) bool {
		r := xrand.New(uint64(seed))
		g := ErdosRenyi(r, 10, 0.3)
		// Random subset of nodes.
		var keep []int
		for i := 0; i < 10; i++ {
			if rng.Bool(0.6) {
				keep = append(keep, i)
			}
		}
		sub := g.Subgraph(keep)
		for a, origA := range keep {
			for b, origB := range keep {
				if sub.Trust(a, b) != g.Trust(origA, origB) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestLabels(t *testing.T) {
	g := NewGraph(2)
	if g.Label(1) != "G1" {
		t.Fatalf("default label = %q", g.Label(1))
	}
	g.SetLabels([]string{"alpha", "beta"})
	if g.Label(0) != "alpha" {
		t.Fatalf("label = %q", g.Label(0))
	}
	defer func() {
		if recover() == nil {
			t.Fatal("wrong label count did not panic")
		}
	}()
	g.SetLabels([]string{"only-one"})
}

func TestDensityEdgeCases(t *testing.T) {
	if NewGraph(0).Density() != 0 || NewGraph(1).Density() != 0 {
		t.Fatal("degenerate densities not zero")
	}
}
