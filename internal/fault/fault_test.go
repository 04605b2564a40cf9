package fault

import (
	"testing"
)

// schedule drives n visits round-robin over all points and returns the
// resulting plans.
func schedule(in *Injector, n int) []Plan {
	plans := make([]Plan, 0, n)
	for i := 0; i < n; i++ {
		plans = append(plans, in.Visit(Point(i%int(NumPoints))))
	}
	return plans
}

func TestNilInjectorIsNoOp(t *testing.T) {
	var in *Injector
	if plan := in.Visit(PointSolve); plan.Fired() {
		t.Fatalf("nil injector fired: %+v", plan)
	}
	if st := in.Stats(); st.Visits != 0 || st.Fired != 0 {
		t.Fatalf("nil injector has stats: %+v", st)
	}
	if got := in.String(); got != "fault: disabled" {
		t.Fatalf("nil injector String = %q", got)
	}
}

func TestIdenticalSeedsIdenticalSchedules(t *testing.T) {
	cfg := Config{Seed: 42, Rate: 0.5}
	a := schedule(New(cfg), 4096)
	b := schedule(New(cfg), 4096)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("visit %d diverged: %+v vs %+v", i, a[i], b[i])
		}
	}
	fired := 0
	for _, p := range a {
		if p.Fired() {
			fired++
		}
	}
	if fired == 0 || fired == len(a) {
		t.Fatalf("rate 0.5 fired %d/%d times", fired, len(a))
	}
}

func TestDifferentSeedsDiverge(t *testing.T) {
	a := schedule(New(Config{Seed: 1, Rate: 0.5}), 512)
	b := schedule(New(Config{Seed: 2, Rate: 0.5}), 512)
	same := true
	for i := range a {
		if a[i] != b[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("seeds 1 and 2 produced identical schedules")
	}
}

func TestRateOneFiresEverywhere(t *testing.T) {
	in := New(Config{Seed: 7, Rate: 1})
	for i, plan := range schedule(in, 256) {
		if !plan.Fired() {
			t.Fatalf("visit %d did not fire at rate 1", i)
		}
	}
	st := in.Stats()
	if st.Visits != 256 || st.Fired != 256 {
		t.Fatalf("stats = %+v, want 256/256", st)
	}
}

func TestRateZeroNeverFires(t *testing.T) {
	in := New(Config{Seed: 7, Rate: 0})
	for i, plan := range schedule(in, 256) {
		if plan.Fired() {
			t.Fatalf("visit %d fired at rate 0", i)
		}
	}
	if st := in.Stats(); st.Visits != 256 || st.Fired != 0 {
		t.Fatalf("stats = %+v, want 256 visits 0 fired", st)
	}
}

func TestClassesMatchTheirPoints(t *testing.T) {
	in := New(Config{Seed: 3, Rate: 1})
	for i := 0; i < 512; i++ {
		p := Point(i % int(NumPoints))
		plan := in.Visit(p)
		ok := false
		for _, c := range pointClasses[p] {
			if plan.Class == c {
				ok = true
			}
		}
		if !ok {
			t.Fatalf("point %v fired foreign class %v", p, plan.Class)
		}
	}
}

func TestClassFilterRestrictsFiring(t *testing.T) {
	in := New(Config{Seed: 5, Rate: 1, Classes: []Class{Cancel}})
	// PointSolve can still fire (Cancel lives there) ...
	if plan := in.Visit(PointSolve); plan.Class != Cancel {
		t.Fatalf("PointSolve fired %v, want Cancel", plan.Class)
	}
	// ... but points whose classes are all filtered out never fire.
	for i := 0; i < 64; i++ {
		if plan := in.Visit(PointReputation); plan.Fired() {
			t.Fatalf("PointReputation fired %v with only Cancel enabled", plan.Class)
		}
	}
}

func TestPlanParameterDefaults(t *testing.T) {
	in := New(Config{Seed: 11, Rate: 1, Classes: []Class{Cancel}})
	plan := in.Visit(PointSolve)
	if plan.CancelAfterNodes != DefaultCancelNodes {
		t.Fatalf("CancelAfterNodes = %d, want default %d", plan.CancelAfterNodes, DefaultCancelNodes)
	}
	in = New(Config{Seed: 11, Rate: 1, Classes: []Class{Latency}})
	if plan := in.Visit(PointSolve); plan.Sleep != DefaultLatency {
		t.Fatalf("Sleep = %v, want default %v", plan.Sleep, DefaultLatency)
	}
	in = New(Config{Seed: 11, Rate: 1})
	if plan := in.Visit(PointReputation); plan.MaxIter != DefaultMaxIter {
		t.Fatalf("MaxIter = %d, want default %d", plan.MaxIter, DefaultMaxIter)
	}
}

func TestStatsPerClassSumsToFired(t *testing.T) {
	in := New(Config{Seed: 9, Rate: 0.7})
	schedule(in, 2048)
	st := in.Stats()
	var sum int64
	for _, c := range st.PerClass {
		sum += c
	}
	if sum != st.Fired {
		t.Fatalf("per-class sum %d != fired %d", sum, st.Fired)
	}
	if st.String() == "" {
		t.Fatal("empty Stats.String")
	}
}
