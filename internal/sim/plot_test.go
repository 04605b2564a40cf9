package sim

import (
	"strings"
	"testing"

	"gridvo/internal/mechanism"
)

func sampleSweep() *SweepResult {
	return &SweepResult{Points: []SweepPoint{
		{
			Size:       256,
			TVOFPayoff: []float64{100, 120}, RVOFPayoff: []float64{110, 115},
			TVOFSize: []float64{4, 5}, RVOFSize: []float64{5, 6},
			TVOFRep: []float64{0.12, 0.14}, RVOFRep: []float64{0.06, 0.07},
			TVOFSec: []float64{0.5, 0.6}, RVOFSec: []float64{0.5, 0.55},
		},
		{
			Size:       1024,
			TVOFPayoff: []float64{400, 420}, RVOFPayoff: []float64{410, 415},
			TVOFSize: []float64{7, 8}, RVOFSize: []float64{8, 8},
			TVOFRep: []float64{0.11, 0.12}, RVOFRep: []float64{0.06, 0.065},
			TVOFSec: []float64{0.9, 1.0}, RVOFSec: []float64{0.95, 1.0},
		},
	}}
}

func TestSweepCharts(t *testing.T) {
	s := sampleSweep()
	charts := map[string]string{
		"fig1": Fig1Chart(s).Render(),
		"fig2": Fig2Chart(s).Render(),
		"fig3": Fig3Chart(s).Render(),
		"fig9": Fig9Chart(s).Render(),
	}
	for name, out := range charts {
		if strings.Contains(out, "(chart") || strings.Contains(out, "empty chart") {
			t.Fatalf("%s chart failed:\n%s", name, out)
		}
		for _, want := range []string{"tvof", "rvof", "256", "1024"} {
			if !strings.Contains(out, want) {
				t.Fatalf("%s chart missing %q:\n%s", name, want, out)
			}
		}
	}
	if !strings.Contains(charts["fig2"], "Fig. 2") {
		t.Fatal("fig2 chart missing title")
	}
}

func TestFig4Chart(t *testing.T) {
	r := &Fig4Result{Programs: []Fig4Program{
		{Name: "P1", PayoffBest: 100, PayoffByProduct: 100, SamePick: true},
		{Name: "P2", PayoffBest: 120, PayoffByProduct: 90, SamePick: false},
	}}
	out := Fig4Chart(r).Render()
	if !strings.Contains(out, "max-product") || !strings.Contains(out, "tvof") {
		t.Fatalf("fig4 chart malformed:\n%s", out)
	}
}

func TestTraceChart(t *testing.T) {
	tr := &TraceResult{
		Program:  "A",
		Rule:     mechanism.EvictLowestReputation,
		Sizes:    []int{16, 15, 14},
		Payoffs:  []float64{100, 120, 0},
		AvgReps:  []float64{0.0625, 0.07, 0.08},
		Feasible: []bool{true, true, false},
		Selected: 1,
	}
	out := TraceChart(tr, "Fig. 5").Render()
	if !strings.Contains(out, "Fig. 5") || !strings.Contains(out, "payoff") {
		t.Fatalf("trace chart malformed:\n%s", out)
	}
	// Degenerate all-zero payoffs must not divide by zero.
	zero := &TraceResult{
		Program: "Z", Sizes: []int{2, 1},
		Payoffs: []float64{0, 0}, AvgReps: []float64{0, 0},
		Feasible: []bool{false, false}, Selected: -1,
	}
	if strings.Contains(TraceChart(zero, "Fig. X").Render(), "NaN") {
		t.Fatal("zero trace chart produced NaN")
	}
}

func TestEvolutionTableRender(t *testing.T) {
	r := &EvolutionResult{
		Rounds: []EvolutionRound{
			{Round: 0, Members: []int{0, 1}, MeanReliability: 0.8, AvgReputation: 0.1, TrustEdges: 10, Interactions: 2},
			{Round: 1, MeanReliability: 0, AvgReputation: 0, TrustEdges: 9},
		},
	}
	out := renderTable(EvolutionTable(r, "evolution test"))
	for _, want := range []string{"evolution test", "mean_reliability", "0.8", "10"} {
		if !strings.Contains(out, want) {
			t.Fatalf("evolution table missing %q:\n%s", want, out)
		}
	}
}

func TestEvolutionComparisonTitle(t *testing.T) {
	if got := EvolutionComparisonTitle("tvof", 0); !strings.Contains(got, "undecayed") {
		t.Fatalf("title = %q", got)
	}
	if got := EvolutionComparisonTitle("tvof", 0.5); !strings.Contains(got, "0.50") {
		t.Fatalf("title = %q", got)
	}
}
