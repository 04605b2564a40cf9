package exec

import (
	"math"
	"testing"

	"gridvo/internal/xrand"
)

func reliable(speeds ...float64) []Provider {
	out := make([]Provider, len(speeds))
	for i, s := range speeds {
		out[i] = Provider{SpeedGFLOPS: s, Reliability: 1}
	}
	return out
}

func TestRunAllReliableSequentialTiming(t *testing.T) {
	// One provider, two tasks: makespan is the exact serial sum.
	tasks := []float64{100, 50}
	rep, err := Run(xrand.New(1), tasks, []int{0, 0}, reliable(10), Options{Deadline: 100})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Completed {
		t.Fatal("run did not complete")
	}
	if math.Abs(rep.MakespanSec-15) > 1e-9 {
		t.Fatalf("makespan = %v, want 15", rep.MakespanSec)
	}
	if math.Abs(rep.BusySec[0]-15) > 1e-9 {
		t.Fatalf("busy = %v, want 15", rep.BusySec[0])
	}
	if rep.TasksCompleted != 2 || !rep.Delivered[0] {
		t.Fatalf("report = %+v", rep)
	}
}

func TestRunParallelProviders(t *testing.T) {
	// Two equal providers, one task each: makespan is the max task time.
	tasks := []float64{100, 40}
	rep, err := Run(xrand.New(1), tasks, []int{0, 1}, reliable(10, 10), Options{Deadline: 50})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Completed || math.Abs(rep.MakespanSec-10) > 1e-9 {
		t.Fatalf("report = %+v", rep)
	}
	if math.Abs(rep.BusySec[0]-10) > 1e-9 || math.Abs(rep.BusySec[1]-4) > 1e-9 {
		t.Fatalf("busy seconds = %v, want [10 4]", rep.BusySec)
	}
}

func TestRunDeadlineMiss(t *testing.T) {
	rep, err := Run(xrand.New(1), []float64{100}, []int{0}, reliable(10), Options{Deadline: 5})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Completed {
		t.Fatal("missed deadline reported as completed")
	}
	if rep.TasksCompleted != 0 {
		t.Fatalf("late task counted as completed: %+v", rep)
	}
	if math.Abs(rep.MakespanSec-10) > 1e-9 {
		t.Fatalf("makespan = %v, want 10", rep.MakespanSec)
	}
}

func TestRunFailureWithReschedule(t *testing.T) {
	// Provider 1 always reneges mid-work (its two tasks span the whole
	// deadline window); the orphans must migrate to provider 0 and the
	// run still completes. A renege drawn *after* a provider's last task
	// would be moot — the promise was already honoured — so the slow
	// speed guarantees the interesting case.
	tasks := []float64{10, 10, 10, 10}
	providers := []Provider{
		{SpeedGFLOPS: 10, Reliability: 1},
		{SpeedGFLOPS: 0.02, Reliability: 0},
	}
	rep, err := Run(xrand.New(3), tasks, []int{0, 0, 1, 1}, providers, Options{Deadline: 1000})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Completed {
		t.Fatalf("reschedule failed: %+v", rep)
	}
	if rep.Delivered[1] {
		t.Fatal("reneging provider marked as delivered")
	}
	if !rep.Delivered[0] {
		t.Fatal("surviving provider marked as failed")
	}
	if rep.Rescheduled == 0 {
		t.Fatal("no rescheduling recorded")
	}
	if len(rep.FailedProviders) != 1 || rep.FailedProviders[0] != 1 {
		t.Fatalf("failed providers = %v", rep.FailedProviders)
	}
}

func TestRunAllProvidersFail(t *testing.T) {
	providers := []Provider{
		{SpeedGFLOPS: 1e-6, Reliability: 0}, // so slow the failure always lands mid-task
		{SpeedGFLOPS: 1e-6, Reliability: 0},
	}
	rep, err := Run(xrand.New(5), []float64{10, 10}, []int{0, 1}, providers, Options{Deadline: 100})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Completed {
		t.Fatal("run completed with every provider reneging")
	}
	if len(rep.FailedProviders) != 2 {
		t.Fatalf("failures = %v", rep.FailedProviders)
	}
}

func TestRunDeterministic(t *testing.T) {
	tasks := make([]float64, 40)
	assign := make([]int, 40)
	rng := xrand.New(6)
	for i := range tasks {
		tasks[i] = rng.Uniform(10, 100)
		assign[i] = i % 3
	}
	providers := []Provider{
		{SpeedGFLOPS: 5, Reliability: 0.7},
		{SpeedGFLOPS: 8, Reliability: 0.7},
		{SpeedGFLOPS: 12, Reliability: 0.7},
	}
	a, err := Run(xrand.New(7), tasks, assign, providers, Options{Deadline: 500})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(xrand.New(7), tasks, assign, providers, Options{Deadline: 500})
	if err != nil {
		t.Fatal(err)
	}
	if a.MakespanSec != b.MakespanSec || a.TasksCompleted != b.TasksCompleted ||
		a.Rescheduled != b.Rescheduled {
		t.Fatal("execution not deterministic under identical seeds")
	}
}

func TestRunValidation(t *testing.T) {
	cases := []struct {
		name string
		run  func() error
	}{
		{"zero deadline", func() error {
			_, err := Run(xrand.New(1), []float64{1}, []int{0}, reliable(1), Options{})
			return err
		}},
		{"length mismatch", func() error {
			_, err := Run(xrand.New(1), []float64{1, 2}, []int{0}, reliable(1), Options{Deadline: 1})
			return err
		}},
		{"bad provider index", func() error {
			_, err := Run(xrand.New(1), []float64{1}, []int{5}, reliable(1), Options{Deadline: 1})
			return err
		}},
		{"zero speed", func() error {
			_, err := Run(xrand.New(1), []float64{1}, []int{0}, []Provider{{}}, Options{Deadline: 1})
			return err
		}},
		{"bad reliability", func() error {
			_, err := Run(xrand.New(1), []float64{1}, []int{0},
				[]Provider{{SpeedGFLOPS: 1, Reliability: 2}}, Options{Deadline: 1})
			return err
		}},
	}
	for _, c := range cases {
		if c.run() == nil {
			t.Fatalf("%s accepted", c.name)
		}
	}
}

func TestRunEmpty(t *testing.T) {
	rep, err := Run(xrand.New(1), nil, nil, nil, Options{Deadline: 1})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Completed || rep.MakespanSec != 0 {
		t.Fatalf("empty run = %+v", rep)
	}
}

func TestBusyTimeConservation(t *testing.T) {
	// With fully reliable providers, total busy time equals the sum of
	// task durations.
	tasks := []float64{30, 50, 20, 40}
	assign := []int{0, 1, 0, 1}
	providers := reliable(10, 20)
	rep, err := Run(xrand.New(8), tasks, assign, providers, Options{Deadline: 100})
	if err != nil {
		t.Fatal(err)
	}
	want := (30.0+20.0)/10 + (50.0+40.0)/20
	got := rep.BusySec[0] + rep.BusySec[1]
	if math.Abs(got-want) > 1e-9 {
		t.Fatalf("busy total = %v, want %v", got, want)
	}
}
