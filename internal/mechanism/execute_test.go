package mechanism

import (
	"context"
	"testing"

	"gridvo/internal/exec"
	"gridvo/internal/trust"
	"gridvo/internal/xrand"
)

func TestExecuteFinalReliableRun(t *testing.T) {
	sc := testScenario(31, 5, 20)
	res, err := TVOFContext(context.Background(), sc, xrand.New(1))
	if err != nil {
		t.Fatal(err)
	}
	rep, members, err := ExecuteFinal(sc, res, nil, exec.Options{}, xrand.New(2))
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Completed {
		t.Fatalf("fully reliable execution missed the deadline: makespan %v > %v",
			rep.MakespanSec, sc.Deadline)
	}
	if len(members) != res.Final().Size() {
		t.Fatal("member list length mismatch")
	}
	for i := range rep.Delivered {
		if !rep.Delivered[i] {
			t.Fatalf("reliable provider %d marked as reneged", i)
		}
	}
}

func TestExecuteFinalDeadlineConsistency(t *testing.T) {
	// The IP's deadline constraint (11) guarantees the planned schedule
	// fits: with fully reliable providers the simulated makespan must
	// never exceed the scenario deadline (execution follows the planned
	// per-GSP loads exactly).
	for seed := uint64(40); seed < 45; seed++ {
		sc := testScenario(seed, 6, 24)
		res, err := TVOFContext(context.Background(), sc, xrand.New(seed))
		if err != nil {
			t.Fatal(err)
		}
		if res.Final() == nil {
			continue
		}
		rep, _, err := ExecuteFinal(sc, res, nil, exec.Options{}, xrand.New(seed))
		if err != nil {
			t.Fatal(err)
		}
		if rep.MakespanSec > sc.Deadline+1e-6 {
			t.Fatalf("seed %d: simulated makespan %v exceeds IP deadline %v",
				seed, rep.MakespanSec, sc.Deadline)
		}
	}
}

func TestExecuteFinalErrors(t *testing.T) {
	sc := testScenario(32, 4, 12)
	if _, _, err := ExecuteFinal(sc, &Result{Selected: -1}, nil, exec.Options{}, xrand.New(1)); err == nil {
		t.Fatal("missing final VO accepted")
	}
	res, err := TVOFContext(context.Background(), sc, xrand.New(1))
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := ExecuteFinal(sc, res, []float64{0.5}, exec.Options{}, xrand.New(1)); err == nil {
		t.Fatal("wrong-length reliability accepted")
	}
	stripped := *res
	stripped.Iterations = append([]IterationRecord(nil), res.Iterations...)
	stripped.Iterations[res.Selected].Assignment = nil
	if _, _, err := ExecuteFinal(sc, &stripped, nil, exec.Options{}, xrand.New(1)); err == nil {
		t.Fatal("missing assignment accepted")
	}
}

func TestRecordOutcomes(t *testing.T) {
	hist := trust.NewHistory(5)
	members := []int{1, 3, 4}
	rep := &exec.Report{Delivered: []bool{true, false, true}}
	if err := RecordOutcomes(hist, members, rep); err != nil {
		t.Fatal(err)
	}
	// ApplyTo overwrites exactly the observed pairs, so a 0.9 prior marks
	// every pair RecordOutcomes left alone. One observation gives weight
	// 0 after a failure and 1·(1 − 0.5) after a success.
	g := trust.NewGraph(5)
	for i := 0; i < 5; i++ {
		for j := 0; j < 5; j++ {
			if i != j {
				g.SetTrust(i, j, 0.9)
			}
		}
	}
	if err := hist.ApplyTo(g); err != nil {
		t.Fatal(err)
	}
	// Every observer saw provider 3 (index 1 in members) fail.
	for _, obs := range []int{1, 4} {
		if w := g.Trust(obs, 3); w != 0 {
			t.Fatalf("observer %d trust in 3 = %v, want 0 after one failure", obs, w)
		}
	}
	if w := g.Trust(3, 1); w != 0.5 {
		t.Fatalf("observer 3 trust in 1 = %v, want 0.5 after one success", w)
	}
	// A non-member observed nothing.
	if w := g.Trust(0, 1); w != 0.9 {
		t.Fatalf("non-member 0 trust in 1 = %v, want the 0.9 prior", w)
	}
}

func TestRecordOutcomesLengthMismatch(t *testing.T) {
	hist := trust.NewHistory(3)
	if err := RecordOutcomes(hist, []int{0, 1}, &exec.Report{Delivered: []bool{true}}); err == nil {
		t.Fatal("length mismatch accepted")
	}
}
