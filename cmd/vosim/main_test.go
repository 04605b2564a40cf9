package main

import (
	"bytes"
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

func TestParseChaosSpec(t *testing.T) {
	seed, rate, err := parseChaosSpec("7, 0.3")
	if err != nil || seed != 7 || rate != 0.3 {
		t.Fatalf("parseChaosSpec = %d, %v, %v", seed, rate, err)
	}
	for _, bad := range []string{"", "7", "7,0.3,1", "x,0.3", "7,abc", "7,-0.1", "7,1.5"} {
		if _, _, err := parseChaosSpec(bad); err == nil {
			t.Fatalf("parseChaosSpec(%q) accepted", bad)
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
// generator paths are pinned separately.
func TestChaosFingerprintPinned(t *testing.T) {
	if testing.Short() {
		t.Skip("two full chaos sweeps")
	}
	base := []string{"-chaos", "7,0.3", "-sizes", "32,64", "-reps", "2", "-seed", "5"}
	for _, tc := range []struct {
		name string
		args []string
		want string
	}{
		{"erdos-renyi", base, "fingerprint: d4ba4afc262b6ec5"},
		{"sparse degree 6", append(append([]string(nil), base...), "-trust-degree", "6"), "fingerprint: f5b7e07826220ef8"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if out := runCLI(t, tc.args...); !strings.Contains(out, tc.want+"\n") {
				t.Fatalf("chaos sweep %v: want %q in\n%s", tc.args, tc.want, out)
			}
		})
	}
}
