package assign

import (
	"fmt"
	"hash/fnv"
	"os"
	"strings"
	"testing"

	"gridvo/internal/xrand"
)

// trajectoryGolden holds the solver's exact behavioural fingerprint over
// TestTrajectorySnapshot's corpus.
const trajectoryGolden = "testdata/trajectory.golden"

// TestTrajectorySnapshot pins the solver's exact behaviour — selection,
// cost and bound bit patterns, node and incumbent counts — on 240 solves
// of random instances against trajectoryGolden. A change that only makes
// the solver faster must leave every line as it is. Setting
// GRIDVO_TRAJSNAP (to any value) rewrites the golden files instead, for a
// change that means to move the search.
func TestTrajectorySnapshot(t *testing.T) {
	var out []byte
	rng := xrand.New(12345)
	for trial := 0; trial < 120; trial++ {
		k := rng.UniformInt(1, 16)
		n := rng.UniformInt(k, 80)
		slack := rng.Uniform(0.2, 1.5)
		in := randomInstance(rng.SplitN("snap", trial), k, n, slack)
		for _, budget := range []int64{0, 5000} {
			sol := Solve(in, Options{NodeBudget: budget})
			h := fnv.New64a()
			for _, g := range sol.Assign {
				fmt.Fprintf(h, "%d,", g)
			}
			out = append(out, []byte(fmt.Sprintf(
				"trial=%d budget=%d feas=%v opt=%v cost=%x lb=%x nodes=%d inc=%d pb=%d ah=%x\n",
				trial, budget, sol.Feasible, sol.Optimal,
				fmt.Sprintf("%b", sol.Cost), fmt.Sprintf("%b", sol.LowerBound),
				sol.Nodes, sol.Stats.IncumbentUpdates, sol.Stats.PrunedByBound, h.Sum64()))...)
		}
	}
	compareGolden(t, trajectoryGolden, out)
}

// compareGolden fails unless out equals the golden file at path, naming
// the first line that differs. With GRIDVO_TRAJSNAP set it rewrites the
// file instead.
func compareGolden(t *testing.T, path string, out []byte) {
	t.Helper()
	if os.Getenv("GRIDVO_TRAJSNAP") != "" {
		if err := os.WriteFile(path, out, 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s", path)
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if string(want) != string(out) {
		got, wantLines := strings.Split(string(out), "\n"), strings.Split(string(want), "\n")
		for i, line := range got {
			if i >= len(wantLines) || wantLines[i] != line {
				t.Fatalf("output diverged from %s at line %d:\n got %s\nwant %s", path, i+1, line, wantLines[min(i, len(wantLines)-1)])
			}
		}
		t.Fatalf("output diverged from %s: %d lines, want %d", path, len(got), len(wantLines))
	}
}
