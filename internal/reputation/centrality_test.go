package reputation

import (
	"math"
	"testing"

	"gridvo/internal/matrix"
	"gridvo/internal/trust"
	"gridvo/internal/xrand"
)

// star returns a graph where all leaves trust the hub (node 0) and the hub
// trusts all leaves weakly.
func star(n int) *trust.Graph {
	g := trust.NewGraph(n)
	for i := 1; i < n; i++ {
		g.SetTrust(i, 0, 1)
		g.SetTrust(0, i, 0.1)
	}
	return g
}

func TestScoresEmptyGraph(t *testing.T) {
	if _, err := Scores(trust.NewGraph(0), CentralityPower); err != ErrEmptyGraph {
		t.Fatalf("err = %v", err)
	}
}

func TestScoresUnknownCentrality(t *testing.T) {
	if _, err := Scores(star(3), Centrality(99)); err == nil {
		t.Fatal("unknown centrality accepted")
	}
}

func TestAllCentralitiesNormalized(t *testing.T) {
	g := trust.ErdosRenyi(xrand.New(1), 12, 0.3)
	for _, c := range []Centrality{
		CentralityPower, CentralityInDegree, CentralityOutDegree,
		CentralityCloseness, CentralityBetweenness, CentralityPageRank,
	} {
		x, err := Scores(g, c)
		if err != nil {
			t.Fatalf("%v: %v", c, err)
		}
		if len(x) != 12 {
			t.Fatalf("%v: length %d", c, len(x))
		}
		sum := 0.0
		for _, v := range x {
			if v < -1e-12 {
				t.Fatalf("%v: negative score %v", c, v)
			}
			sum += v
		}
		if math.Abs(sum-1) > 1e-9 {
			t.Fatalf("%v: sum = %v, want 1", c, sum)
		}
	}
}

func TestCentralityStrings(t *testing.T) {
	names := map[Centrality]string{
		CentralityPower:       "power",
		CentralityInDegree:    "in-degree",
		CentralityOutDegree:   "out-degree",
		CentralityCloseness:   "closeness",
		CentralityBetweenness: "betweenness",
		CentralityPageRank:    "pagerank",
	}
	for c, want := range names {
		if c.String() != want {
			t.Fatalf("%d.String() = %q, want %q", int(c), c.String(), want)
		}
	}
	if Centrality(42).String() == "" {
		t.Fatal("unknown centrality empty string")
	}
}

func TestInDegreeHubWins(t *testing.T) {
	x, err := Scores(star(6), CentralityInDegree)
	if err != nil {
		t.Fatal(err)
	}
	if argMax(x) != 0 {
		t.Fatalf("in-degree = %v; hub should win", x)
	}
}

func TestOutDegreeHubWins(t *testing.T) {
	// The hub emits 5 edges of 0.1 = 0.5 total; each leaf emits 1.0, so
	// leaves should beat the hub on out-degree.
	x, err := Scores(star(6), CentralityOutDegree)
	if err != nil {
		t.Fatal(err)
	}
	if matrix.ArgMin(x) != 0 {
		t.Fatalf("out-degree = %v; hub should be lowest", x)
	}
}

func TestClosenessHubWins(t *testing.T) {
	x, err := Scores(star(6), CentralityCloseness)
	if err != nil {
		t.Fatal(err)
	}
	if argMax(x) != 0 {
		t.Fatalf("closeness = %v; hub should win", x)
	}
}

func TestBetweennessBridgeWins(t *testing.T) {
	// Two cliques joined only through node 2: the bridge has all the
	// betweenness.
	g := trust.NewGraph(5)
	for _, e := range [][2]int{{0, 1}, {1, 0}, {0, 2}, {1, 2}, {2, 0}, {2, 1}} {
		g.SetTrust(e[0], e[1], 1)
	}
	for _, e := range [][2]int{{3, 4}, {4, 3}, {3, 2}, {4, 2}, {2, 3}, {2, 4}} {
		g.SetTrust(e[0], e[1], 1)
	}
	x, err := Scores(g, CentralityBetweenness)
	if err != nil {
		t.Fatal(err)
	}
	if argMax(x) != 2 {
		t.Fatalf("betweenness = %v; bridge (2) should win", x)
	}
}

func TestBetweennessTinyGraphs(t *testing.T) {
	for n := 0; n <= 2; n++ {
		g := trust.NewGraph(n)
		if n == 2 {
			g.SetTrust(0, 1, 1)
		}
		if n == 0 {
			continue // empty handled by ErrEmptyGraph
		}
		x, err := Scores(g, CentralityBetweenness)
		if err != nil {
			t.Fatal(err)
		}
		// No betweenness possible: fallback to uniform.
		for _, v := range x {
			if math.Abs(v-1/float64(n)) > 1e-12 {
				t.Fatalf("n=%d betweenness = %v, want uniform", n, x)
			}
		}
	}
}

func TestEdgelessGraphUniformScores(t *testing.T) {
	g := trust.NewGraph(4)
	for _, c := range []Centrality{CentralityInDegree, CentralityCloseness, CentralityBetweenness} {
		x, err := Scores(g, c)
		if err != nil {
			t.Fatal(err)
		}
		for _, v := range x {
			if math.Abs(v-0.25) > 1e-12 {
				t.Fatalf("%v on edgeless graph = %v, want uniform", c, x)
			}
		}
	}
}

func TestPageRankRobustOnReducibleGraph(t *testing.T) {
	// A chain 0→1→2 with no return edges is reducible; PageRank must
	// still converge and rank 2 (the sink of trust) highest.
	g := trust.NewGraph(3)
	g.SetTrust(0, 1, 1)
	g.SetTrust(1, 2, 1)
	x, err := Scores(g, CentralityPageRank)
	if err != nil {
		t.Fatal(err)
	}
	if argMax(x) != 2 {
		t.Fatalf("pagerank on chain = %v; node 2 should win", x)
	}
}

func TestPowerVsPageRankAgreeOnStrongGraph(t *testing.T) {
	// On a strongly connected, aperiodic graph (seed 33 draws one) the
	// undamped power method and lightly damped PageRank should produce the
	// same ranking of the extremes.
	g := trust.ErdosRenyi(xrand.New(33), 10, 0.6)
	p, err := Scores(g, CentralityPower)
	if err != nil {
		t.Fatal(err)
	}
	pr, err := Scores(g, CentralityPageRank)
	if err != nil {
		t.Fatal(err)
	}
	if argMax(p) != argMax(pr) {
		t.Fatalf("power argmax %d != pagerank argmax %d\npower=%v\npr=%v",
			argMax(p), argMax(pr), p, pr)
	}
}
