package sim

import (
	"context"
	"math"
	"testing"

	"gridvo/internal/fault"
)

func chaosConfig(seed uint64) Config {
	cfg := QuickConfig(seed)
	cfg.ProgramSizes = []int{32, 64}
	cfg.Repetitions = 2
	cfg.NumGSPs = 6
	cfg.TrustEdgeProb = 0.35
	cfg.TraceJobs = 1500
	cfg.Solver.NodeBudget = 100_000
	return cfg
}

// TestChaosSweepInvariantsHold: a sweep under aggressive injection fires
// faults, degrades runs, and still upholds every mechanism invariant.
func TestChaosSweepInvariantsHold(t *testing.T) {
	fcfg := fault.Config{Seed: 11, Rate: 0.4, CancelNodes: 8}
	rep, err := ChaosSweep(context.Background(), chaosConfig(5), fcfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Cells != 4 || rep.Runs != 8 {
		t.Fatalf("cells=%d runs=%d, want 4/8", rep.Cells, rep.Runs)
	}
	if rep.FaultStats.Fired == 0 {
		t.Fatalf("rate-0.4 sweep fired no faults: %v", rep.FaultStats)
	}
	for _, v := range rep.Violations {
		t.Errorf("invariant violation: %s", v)
	}
	if rep.FeasibleRuns == 0 {
		t.Fatal("no run returned a feasible VO; degradation should preserve incumbents")
	}
}

// TestChaosSweepDeterministic: identical seeds produce bit-identical fault
// schedules and results.
func TestChaosSweepDeterministic(t *testing.T) {
	fcfg := fault.Config{Seed: 23, Rate: 0.5, CancelNodes: 8}
	a, err := ChaosSweep(context.Background(), chaosConfig(7), fcfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	b, err := ChaosSweep(context.Background(), chaosConfig(7), fcfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	if a.Fingerprint != b.Fingerprint {
		t.Fatalf("fingerprints diverge: %x vs %x", a.Fingerprint, b.Fingerprint)
	}
	if a.FaultStats != b.FaultStats {
		t.Fatalf("fault schedules diverge: %v vs %v", a.FaultStats, b.FaultStats)
	}
	if a.DegradedRuns != b.DegradedRuns || a.FeasibleRuns != b.FeasibleRuns {
		t.Fatalf("outcomes diverge: %+v vs %+v", a, b)
	}
}

// TestChaosSweepSeedSensitivity: different fault seeds produce different
// schedules (with overwhelming probability at rate 0.5 over hundreds of
// visits).
func TestChaosSweepSeedSensitivity(t *testing.T) {
	a, err := ChaosSweep(context.Background(), chaosConfig(7), fault.Config{Seed: 1, Rate: 0.5, CancelNodes: 8}, nil)
	if err != nil {
		t.Fatal(err)
	}
	b, err := ChaosSweep(context.Background(), chaosConfig(7), fault.Config{Seed: 2, Rate: 0.5, CancelNodes: 8}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if a.FaultStats == b.FaultStats && a.Fingerprint == b.Fingerprint {
		t.Fatalf("seeds 1 and 2 produced identical schedules and results: %v", a.FaultStats)
	}
}

// TestChaosSweepRateZeroIsClean: a zero-rate injector is a no-op — nothing
// fires, the sweep is violation-free, and its outcome does not depend on
// the fault seed. Degraded runs stay possible (the tiny near-periodic
// trust graphs can exhaust MaxIter), but they must not come from the
// injector, so a second seed reproduces them exactly.
func TestChaosSweepRateZeroIsClean(t *testing.T) {
	cfg := chaosConfig(9)
	rep, err := ChaosSweep(context.Background(), cfg, fault.Config{Seed: 3, Rate: 0}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if rep.FaultStats.Fired != 0 {
		t.Fatalf("rate-0 injector fired %d faults", rep.FaultStats.Fired)
	}
	if len(rep.Violations) != 0 {
		t.Fatalf("clean sweep reported violations: %v", rep.Violations)
	}
	other, err := ChaosSweep(context.Background(), cfg, fault.Config{Seed: 4, Rate: 0}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Fingerprint != other.Fingerprint || rep.DegradedRuns != other.DegradedRuns {
		t.Fatalf("rate-0 sweep depends on the fault seed: fingerprint %x vs %x, degraded %d vs %d",
			rep.Fingerprint, other.Fingerprint, rep.DegradedRuns, other.DegradedRuns)
	}
}

// TestChaosSweepRejectsBadRates: a fault rate outside [0, 1], NaN
// included, is an error before any run, as vosim's -chaos flag already
// makes it; a NaN or a rate above 1 would otherwise fire at every visit.
func TestChaosSweepRejectsBadRates(t *testing.T) {
	for _, rate := range []float64{math.NaN(), -0.1, 1.5} {
		rep, err := ChaosSweep(context.Background(), chaosConfig(5), fault.Config{Seed: 11, Rate: rate}, nil)
		if err == nil {
			t.Errorf("rate %v accepted: %v", rate, rep.FaultStats)
		}
	}
}

// TestChaosSweepSparseGenerator: the chaos harness accepts sparse-generated
// trust graphs (TrustMeanDegree path) and stays reproducible on them.
func TestChaosSweepSparseGenerator(t *testing.T) {
	fcfg := fault.Config{Seed: 37, Rate: 0.4, CancelNodes: 8,
		Classes: []fault.Class{fault.ZeroTrustRow}}
	cfg := chaosConfig(13)
	cfg.TrustEdgeProb = 0
	cfg.TrustMeanDegree = 2
	a, err := ChaosSweep(context.Background(), cfg, fcfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	b, err := ChaosSweep(context.Background(), cfg, fcfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	if a.Fingerprint != b.Fingerprint {
		t.Fatalf("sparse-generated sweep not reproducible: %x vs %x", a.Fingerprint, b.Fingerprint)
	}
	for _, v := range a.Violations {
		t.Errorf("invariant violation: %s", v)
	}
}
