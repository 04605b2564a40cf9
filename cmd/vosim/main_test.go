package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"gridvo/internal/sim"
	"gridvo/internal/swf"
	"gridvo/internal/xrand"
)

func TestParseSizes(t *testing.T) {
	got, err := parseSizes("256, 512,1024")
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 3 || got[0] != 256 || got[1] != 512 || got[2] != 1024 {
		t.Fatalf("parseSizes = %v", got)
	}
	for _, bad := range []string{"", "abc", "256,-1", "0", "1,,2"} {
		if _, err := parseSizes(bad); err == nil {
			t.Fatalf("parseSizes(%q) accepted", bad)
		}
	}
}

func TestTraceProgramSize(t *testing.T) {
	cfg := sim.DefaultConfig(1)
	if got := traceProgramSize(cfg); got != 256 {
		t.Fatalf("default trace size = %d, want 256", got)
	}
	cfg.ProgramSizes = []int{2048, 512, 1024}
	if got := traceProgramSize(cfg); got != 512 {
		t.Fatalf("fallback trace size = %d, want smallest (512)", got)
	}
}

func runCLI(t *testing.T, args ...string) string {
	t.Helper()
	var out, errBuf bytes.Buffer
	if err := run(args, &out, &errBuf); err != nil {
		t.Fatalf("run(%v) failed: %v\nstderr: %s", args, err, errBuf.String())
	}
	return out.String()
}

func TestRunTable1(t *testing.T) {
	out := runCLI(t, "-table1")
	if !strings.Contains(out, "number of GSPs") || !strings.Contains(out, "16") {
		t.Fatalf("table1 output malformed:\n%s", out)
	}
}

func TestRunSingleFigureQuick(t *testing.T) {
	out := runCLI(t, "-quick", "-fig", "2", "-sizes", "32,64", "-reps", "2", "-nodes", "50000", "-seed", "5")
	if !strings.Contains(out, "Fig. 2") || !strings.Contains(out, "tvof_vo_size") {
		t.Fatalf("fig2 output malformed:\n%s", out)
	}
}

func TestRunFigureWithPlotAndCSV(t *testing.T) {
	out := runCLI(t, "-quick", "-fig", "2", "-sizes", "32", "-reps", "2", "-nodes", "50000", "-plot", "-seed", "6")
	if !strings.Contains(out, "legend:") {
		t.Fatalf("plot missing:\n%s", out)
	}
	csvOut := runCLI(t, "-quick", "-fig", "2", "-sizes", "32", "-reps", "2", "-nodes", "50000", "-csv", "-seed", "6")
	if !strings.Contains(csvOut, "tasks,tvof_vo_size,rvof_vo_size") {
		t.Fatalf("csv missing header:\n%s", csvOut)
	}
}

func TestRunTraceFigure(t *testing.T) {
	out := runCLI(t, "-quick", "-fig", "5", "-sizes", "32", "-reps", "1", "-nodes", "50000", "-seed", "7")
	if !strings.Contains(out, "Fig. 5") || !strings.Contains(out, "program A") {
		t.Fatalf("fig5 output malformed:\n%s", out)
	}
}

func TestRunFig4HonoursTimeout(t *testing.T) {
	// Fig. 4 runs the mechanism outside the sweep; an expired budget must
	// reach its solves, and the output must say the results degraded.
	out := runCLI(t, "-quick", "-fig", "4", "-timeout", "1ns")
	if !strings.Contains(out, "Fig. 4") || !strings.Contains(out, noteExpired) {
		t.Fatalf("fig4 under an expired budget lacks the expiry note:\n%s", out)
	}
}

func TestRunChaosAndAdversaryHonourTimeout(t *testing.T) {
	// The fault and robustness sweeps poll the budget too: an expired one
	// either completes with the expiry note or maps to the deadline error.
	for _, mode := range [][]string{{"-chaos", "7,0.3"}, {"-adversary", "sybil,4"}} {
		var stdout, stderr bytes.Buffer
		err := run(append(mode, "-sizes", "32", "-reps", "1", "-timeout", "1ns"), &stdout, &stderr)
		if !errors.Is(err, errDeadlineNoVO) && !(err == nil && strings.Contains(stdout.String(), noteExpired)) {
			t.Errorf("%s under an expired budget: err %v, stdout:\n%s", mode[0], err, stdout.String())
		}
	}
}

func TestRunParallelSweepFlag(t *testing.T) {
	out := runCLI(t, "-quick", "-fig", "3", "-sizes", "32", "-reps", "2", "-nodes", "50000", "-par", "0", "-seed", "8")
	if !strings.Contains(out, "Fig. 3") {
		t.Fatalf("parallel fig3 malformed:\n%s", out)
	}
}

func TestRunExternalTraceFile(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "t.swf")
	tr := swf.GenerateAtlas(xrand.New(1), swf.GenOptions{
		NumJobs:        800,
		GuaranteeSizes: []int{32},
		MinPerSize:     6,
	})
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := swf.Write(f, tr); err != nil {
		t.Fatal(err)
	}
	f.Close()
	out := runCLI(t, "-quick", "-fig", "2", "-sizes", "32", "-reps", "2", "-nodes", "50000", "-trace", path, "-seed", "9")
	if !strings.Contains(out, "Fig. 2") {
		t.Fatalf("trace-driven run malformed:\n%s", out)
	}
}

func TestRunErrors(t *testing.T) {
	var out, errBuf bytes.Buffer
	if err := run(nil, &out, &errBuf); err == nil {
		t.Fatal("no-op invocation accepted")
	}
	if err := run([]string{"-fig", "12"}, &out, &errBuf); err == nil {
		t.Fatal("figure 12 accepted")
	}
	if err := run([]string{"-fig", "1", "-sizes", "bogus"}, &out, &errBuf); err == nil {
		t.Fatal("bad sizes accepted")
	}
	if err := run([]string{"-fig", "1", "-trace", "/does/not/exist.swf"}, &out, &errBuf); err == nil {
		t.Fatal("missing trace file accepted")
	}
	if err := run([]string{"-badflag"}, &out, &errBuf); err == nil {
		t.Fatal("unknown flag accepted")
	}
}

// TestRunRejectsAdversaryOutsideGrid: a spec the grid cannot hold fails
// with the adversary's error in both modes that take -adversary.
func TestRunRejectsAdversaryOutsideGrid(t *testing.T) {
	for _, args := range [][]string{
		{"-adversary", "collusion,100"},
		{"-chaos", "7,0.3", "-adversary", "collusion,1"},
	} {
		var stdout, stderr bytes.Buffer
		err := run(args, &stdout, &stderr)
		if err == nil || !strings.HasPrefix(err.Error(), "adversary: collusion clique") {
			t.Errorf("%v: error %v, want the collusion spec error", args, err)
		}
		if stdout.Len() != 0 {
			t.Errorf("%v printed before failing:\n%s", args, stdout.String())
		}
	}
}

func TestParseChaosSpec(t *testing.T) {
	seed, rate, err := parseChaosSpec("7, 0.3")
	if err != nil || seed != 7 || rate != 0.3 {
		t.Fatalf("parseChaosSpec = %d, %v, %v", seed, rate, err)
	}
	for _, bad := range []string{"", "7", "7,0.3,1", "x,0.3", "7,abc", "7,-0.1", "7,1.5", "7,NaN"} {
		if _, _, err := parseChaosSpec(bad); err == nil {
			t.Fatalf("parseChaosSpec(%q) accepted", bad)
		}
	}
}

// TestRunRejectsBadRates: every rate flag argument must lie in [0,1]. NaN
// fails every comparison, so a range check written as two rejections lets
// it through, and a NaN chaos rate fires a fault at every visit. The error
// carries no "vosim:" prefix of its own: main prints that.
func TestRunRejectsBadRates(t *testing.T) {
	for _, args := range [][]string{
		{"-chaos", "7,NaN"},
		{"-chaos", "7,2"},
		{"-adversary", "churn,NaN"},
		{"-adversary", "slander,NaN"},
		{"-adversary", "slander,-1"},
	} {
		var stdout, stderr bytes.Buffer
		err := run(append(args, "-sizes", "32", "-reps", "1"), &stdout, &stderr)
		if err == nil {
			t.Errorf("%v accepted:\n%s", args, stdout.String())
			continue
		}
		if !strings.HasPrefix(err.Error(), "bad ") {
			t.Errorf("%v: error %q, want one starting \"bad \"", args, err)
		}
	}
}

func TestRunChaosMode(t *testing.T) {
	// Small explicit grid: the chaos sweep runs twice, checks the
	// mechanism invariants, and proves the fault schedule reproducible.
	out := runCLI(t, "-chaos", "3,0.3", "-sizes", "32,64", "-reps", "2", "-seed", "5")
	if !strings.Contains(out, "chaos sweep: 4 cells, 8 runs") {
		t.Fatalf("chaos output malformed:\n%s", out)
	}
	if !strings.Contains(out, "identical fingerprints") {
		t.Fatalf("chaos output missing reproducibility line:\n%s", out)
	}
	if !strings.Contains(out, "fingerprint:") || !strings.Contains(out, "faults:") {
		t.Fatalf("chaos output missing fingerprint/fault stats:\n%s", out)
	}
}

// TestChaosFingerprintPinned pins the behaviour contract: the chaos
// fingerprint folds every selection, payoff bit pattern and fault counter
// of a sweep, so any change to the trust normalization or the power
// iteration's arithmetic moves it. The dense Erdős–Rényi and the sparse
// generator paths are pinned separately, and so are sweeps whose scenarios
// a sybil ring or slanderers rewrote after their feasibility check, and one
// whose runs face a churn schedule.
func TestChaosFingerprintPinned(t *testing.T) {
	if testing.Short() {
		t.Skip("five chaos sweeps")
	}
	base := []string{"-chaos", "7,0.3", "-sizes", "32,64", "-reps", "2", "-seed", "5"}
	for _, tc := range []struct {
		name string
		args []string
		want string
	}{
		{"erdos-renyi", base, "fingerprint: d4ba4afc262b6ec5"},
		{"sparse degree 6", append(append([]string(nil), base...), "-trust-degree", "6"), "fingerprint: f5b7e07826220ef8"},
		{"sybil ring of 3", append(append([]string(nil), base...), "-adversary", "sybil,3"), "fingerprint: d9379b20174f96b9"},
		{"churn 0.25", append(append([]string(nil), base...), "-adversary", "churn,0.25"), "fingerprint: 1185cc5c5a86ad34"},
		{"slander 0.3 on sparse degree 6", []string{"-chaos", "7,0.3", "-adversary", "slander,0.3", "-trust-degree", "6", "-sizes", "32", "-reps", "2", "-seed", "5"}, "fingerprint: 238e8e621e0c1009"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if out := runCLI(t, tc.args...); !strings.Contains(out, tc.want+"\n") {
				t.Fatalf("chaos sweep %v: want %q in\n%s", tc.args, tc.want, out)
			}
		})
	}
}

// TestBenchPR8SelectionsPinned pins the other half of the behaviour
// contract: the Fig. 9 sweep recorded in BENCH_PR8.json (seed 42, sizes
// 256/1024/8192, 3 reps, default solver options) must select bitwise the
// same VOs — TVOF payoff, VO size and average reputation compared with ==
// in every cell. The whole grid runs because the synthetic trace depends
// on ProgramSizes and Repetitions: a single-size sweep selects different
// VOs.
func TestBenchPR8SelectionsPinned(t *testing.T) {
	if testing.Short() {
		t.Skip("full 3-size Fig. 9 sweep")
	}
	raw, err := os.ReadFile(filepath.Join("..", "..", "BENCH_PR8.json"))
	if err != nil {
		t.Fatal(err)
	}
	var bench struct {
		Warm struct {
			Points []struct {
				Size       int       `json:"size"`
				TVOFPayoff []float64 `json:"tvof_payoff"`
				TVOFSize   []float64 `json:"tvof_size"`
				TVOFRep    []float64 `json:"tvof_rep"`
			} `json:"points"`
		} `json:"warm"`
	}
	if err := json.Unmarshal(raw, &bench); err != nil {
		t.Fatal(err)
	}

	cfg := sim.DefaultConfig(42)
	cfg.ProgramSizes = []int{256, 1024, 8192}
	cfg.Repetitions = 3
	cfg.TraceJobs = 4000
	env, err := sim.NewEnv(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := env.SweepParallelContext(context.Background(), 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	want := bench.Warm.Points
	if len(res.Points) != len(want) {
		t.Fatalf("sweep has %d sizes, BENCH_PR8.json has %d", len(res.Points), len(want))
	}
	for i, got := range res.Points {
		w := want[i]
		if got.Size != w.Size || len(got.TVOFPayoff) != len(w.TVOFPayoff) {
			t.Fatalf("point %d: size %d with %d reps, BENCH_PR8.json has size %d with %d reps",
				i, got.Size, len(got.TVOFPayoff), w.Size, len(w.TVOFPayoff))
		}
		for r := range got.TVOFPayoff {
			if got.TVOFPayoff[r] != w.TVOFPayoff[r] || got.TVOFSize[r] != w.TVOFSize[r] || got.TVOFRep[r] != w.TVOFRep[r] {
				t.Errorf("n=%d rep=%d: payoff %v size %v reputation %v, BENCH_PR8.json has %v %v %v",
					got.Size, r, got.TVOFPayoff[r], got.TVOFSize[r], got.TVOFRep[r],
					w.TVOFPayoff[r], w.TVOFSize[r], w.TVOFRep[r])
			}
		}
	}
	t.Logf("engine nodes %d", res.Stats.Nodes)
}
