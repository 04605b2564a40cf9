package sim

import (
	"context"
	"reflect"
	"strings"
	"testing"

	"gridvo/internal/adversary"
	"gridvo/internal/fault"
	"gridvo/internal/swf"
)

func robustConfig(seed uint64) Config {
	cfg := QuickConfig(seed)
	cfg.ProgramSizes = []int{32, 64}
	cfg.Repetitions = 2
	cfg.NumGSPs = 10
	cfg.TrustEdgeProb = 0.3
	cfg.TraceJobs = 1500
	cfg.Solver.NodeBudget = 100_000
	return cfg
}

// attacked returns robustConfig(seed) under the transform attack and churn.
func attacked(seed uint64, attack *adversary.Spec, churn *adversary.ChurnSpec) Config {
	cfg := robustConfig(seed)
	cfg.Adversary, cfg.Churn = attack, churn
	return cfg
}

// TestRobustnessZeroAttackerBitwiseIdentity pins the acceptance criterion:
// a zero-Size adversarial scenario must be bitwise identical to the honest
// baseline — selections, reputation vectors, and fingerprints all fold
// into the two sums, so equality here is equality of all of them.
func TestRobustnessZeroAttackerBitwiseIdentity(t *testing.T) {
	for _, class := range adversary.Classes {
		cfg := attacked(7, &adversary.Spec{Class: class, Rate: 0.5}, nil)
		rep, err := RobustnessSweep(context.Background(), cfg, nil)
		if err != nil {
			t.Fatalf("%s: %v", class, err)
		}
		if rep.HonestFingerprint != rep.AdversarialFingerprint {
			t.Fatalf("%s: zero-attacker fingerprints differ: honest=%016x adversarial=%016x",
				class, rep.HonestFingerprint, rep.AdversarialFingerprint)
		}
		for _, c := range rep.Cells {
			if c.ValueDelta != 0 || c.Infiltration != 0 || c.Displacement != 0 {
				t.Fatalf("%s: zero-attacker cell degraded: %+v", class, c)
			}
		}
	}
	// Same with no transform at all.
	rep, err := RobustnessSweep(context.Background(), robustConfig(7), nil)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Class != "none" || rep.HonestFingerprint != rep.AdversarialFingerprint {
		t.Fatalf("empty transform: class=%q honest=%016x adversarial=%016x",
			rep.Class, rep.HonestFingerprint, rep.AdversarialFingerprint)
	}
}

// TestRobustnessSweepDeterministic: identical seeds reproduce the sweep
// bit for bit, and a real attack moves the adversarial fingerprint away
// from the honest one.
func TestRobustnessSweepDeterministic(t *testing.T) {
	cfg := attacked(3, &adversary.Spec{Class: adversary.ClassSybil, Size: 4},
		&adversary.ChurnSpec{LeaveRate: 0.2, JoinRate: 0.1})
	r1, err := RobustnessSweep(context.Background(), cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := RobustnessSweep(context.Background(), cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	if r1.HonestFingerprint != r2.HonestFingerprint || r1.AdversarialFingerprint != r2.AdversarialFingerprint {
		t.Fatalf("sweep not reproducible: %016x/%016x vs %016x/%016x",
			r1.HonestFingerprint, r1.AdversarialFingerprint, r2.HonestFingerprint, r2.AdversarialFingerprint)
	}
	if !reflect.DeepEqual(r1.Cells, r2.Cells) {
		t.Fatalf("cells differ between identical sweeps")
	}
	if r1.HonestFingerprint == r1.AdversarialFingerprint {
		t.Fatalf("sybil ring of 4 left the run bitwise unchanged")
	}
	if r1.Class != "sybil+churn" {
		t.Fatalf("class = %q, want sybil+churn", r1.Class)
	}
}

// TestRobustnessChurnReformsWarm: churn triggers mid-formation membership
// changes and the re-formed rounds still go through the warm-start path.
func TestRobustnessChurnReformsWarm(t *testing.T) {
	cfg := attacked(5, nil, &adversary.ChurnSpec{LeaveRate: 0.35, JoinRate: 0.3})
	rep, err := RobustnessSweep(context.Background(), cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Reformations == 0 {
		t.Fatalf("leave rate 0.35 produced no re-formations")
	}
	if rep.ChurnJoins+rep.ChurnLeaves == 0 {
		t.Fatalf("re-formations with no membership moves: %+v", rep)
	}
	if rep.WarmStarts == 0 {
		t.Fatalf("re-formation rounds never warm-started an IP solve")
	}
}

// TestRobustnessMonotoneDegradation pins, at fixed seeds, that each attack
// class's degradation metric is monotone non-decreasing in attack strength
// and strictly positive at the top of the ladder — the BENCH_PR9 claim in
// test form. Everything is deterministic, so this is a golden property.
func TestRobustnessMonotoneDegradation(t *testing.T) {
	metric := func(cfg Config) float64 {
		rep, err := RobustnessSweep(context.Background(), cfg, nil)
		if err != nil {
			t.Fatal(err)
		}
		// Per-class metric: attacks that smuggle bad identities into the
		// VO (collusion cliques, sybil twins, whitewashed re-entries) are
		// measured by infiltration; attacks that push honest members out
		// (slander, churn) by displacement.
		if !cfg.Adversary.IsZero() && cfg.Adversary.Class != adversary.ClassSlander {
			return rep.MeanInfiltration
		}
		return rep.MeanDisplacement
	}
	ladders := []struct {
		name string
		runs []Config
	}{
		{"collusion", []Config{
			attacked(9, &adversary.Spec{Class: adversary.ClassCollusion, Size: 0}, nil),
			attacked(9, &adversary.Spec{Class: adversary.ClassCollusion, Size: 3}, nil),
			attacked(9, &adversary.Spec{Class: adversary.ClassCollusion, Size: 6}, nil),
		}},
		{"sybil", []Config{
			attacked(9, &adversary.Spec{Class: adversary.ClassSybil, Size: 0}, nil),
			attacked(9, &adversary.Spec{Class: adversary.ClassSybil, Size: 3}, nil),
			attacked(9, &adversary.Spec{Class: adversary.ClassSybil, Size: 6}, nil),
		}},
		{"whitewash", []Config{
			attacked(9, &adversary.Spec{Class: adversary.ClassWhitewash, Size: 0}, nil),
			attacked(9, &adversary.Spec{Class: adversary.ClassWhitewash, Size: 3}, nil),
			attacked(9, &adversary.Spec{Class: adversary.ClassWhitewash, Size: 6}, nil),
		}},
		{"slander", []Config{
			attacked(9, &adversary.Spec{Class: adversary.ClassSlander, Size: 4, Rate: 0}, nil),
			attacked(9, &adversary.Spec{Class: adversary.ClassSlander, Size: 4, Rate: 0.3}, nil),
			attacked(9, &adversary.Spec{Class: adversary.ClassSlander, Size: 4, Rate: 0.8}, nil),
		}},
		{"churn", []Config{
			attacked(9, nil, &adversary.ChurnSpec{LeaveRate: 0, JoinRate: 0.1}),
			attacked(9, nil, &adversary.ChurnSpec{LeaveRate: 0.2, JoinRate: 0.1}),
			attacked(9, nil, &adversary.ChurnSpec{LeaveRate: 0.35, JoinRate: 0.1}),
		}},
	}
	for _, lad := range ladders {
		lad := lad
		t.Run(lad.name, func(t *testing.T) {
			prev := -1.0
			var last float64
			for i, cfg := range lad.runs {
				m := metric(cfg)
				if m < prev {
					t.Fatalf("rung %d: metric %v < previous %v — degradation not monotone", i, m, prev)
				}
				prev, last = m, m
			}
			if last <= 0 {
				t.Fatalf("strongest attack shows no degradation (metric %v)", last)
			}
		})
	}
}

// TestChaosComposesWithAdversary is the satellite regression: fault
// injection on an adversarially generated grid must stay bit-reproducible,
// and the adversary must actually reach the chaos path (fingerprint moves
// versus the honest sweep).
func TestChaosComposesWithAdversary(t *testing.T) {
	fcfg := fault.Config{Seed: 11, Rate: 0.3, CancelNodes: 8}
	cfg := robustConfig(5)
	honest, err := ChaosSweep(context.Background(), cfg, fcfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Adversary = &adversary.Spec{Class: adversary.ClassCollusion, Size: 4}
	cfg.Churn = &adversary.ChurnSpec{LeaveRate: 0.2, JoinRate: 0.1}
	a1, err := ChaosSweep(context.Background(), cfg, fcfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	a2, err := ChaosSweep(context.Background(), cfg, fcfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	if a1.Fingerprint != a2.Fingerprint {
		t.Fatalf("adversarial chaos sweep not reproducible: %016x vs %016x", a1.Fingerprint, a2.Fingerprint)
	}
	if a1.Fingerprint == honest.Fingerprint {
		t.Fatalf("collusion clique never reached the chaos pipeline (fingerprint unchanged)")
	}
	for _, v := range a1.Violations {
		t.Errorf("invariant violation under adversary: %s", v)
	}
	// Zero-strength adversary: bitwise identical to the honest sweep.
	cfg.Adversary = &adversary.Spec{Class: adversary.ClassCollusion, Size: 0}
	cfg.Churn = nil
	z, err := ChaosSweep(context.Background(), cfg, fcfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	if z.Fingerprint != honest.Fingerprint {
		t.Fatalf("zero-strength adversary changed the chaos fingerprint: %016x vs %016x",
			z.Fingerprint, honest.Fingerprint)
	}
}

// TestBadTransformFailsBeforeScenarios: NewEnv checks the adversary spec
// against the configured GSP count and the churn spec before it reads the
// trace, so both sweeps fail with the spec error, not at their first
// cell. The empty trace would fail NewEnv on its own if it were read.
func TestBadTransformFailsBeforeScenarios(t *testing.T) {
	for _, tc := range []struct {
		name   string
		attack *adversary.Spec
		churn  *adversary.ChurnSpec
		want   string
	}{
		{"clique larger than the grid", &adversary.Spec{Class: adversary.ClassCollusion, Size: 100}, nil, "exceeds 10 GSPs"},
		{"clique of one", &adversary.Spec{Class: adversary.ClassCollusion, Size: 1}, nil, "at least 2 members"},
		{"churn rate above 1", nil, &adversary.ChurnSpec{LeaveRate: 1.5}, "leave rate 1.5"},
	} {
		cfg := attacked(5, tc.attack, tc.churn)
		cfg.Trace = &swf.Trace{}
		_, rerr := RobustnessSweep(context.Background(), cfg, nil)
		_, cerr := ChaosSweep(context.Background(), cfg, fault.Config{Seed: 7, Rate: 0.3}, nil)
		for _, err := range []error{rerr, cerr} {
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Errorf("%s: error %v, want one containing %q", tc.name, err, tc.want)
			}
		}
	}
}
