package workload

import (
	"errors"
	"math"
	"testing"
	"testing/quick"

	"gridvo/internal/swf"
	"gridvo/internal/xrand"
)

func TestFromJobBasics(t *testing.T) {
	job := &swf.Job{JobNumber: 7, AllocProcs: 64, AvgCPUTime: 10000, RunTime: 11000, Status: swf.StatusCompleted}
	p, err := FromJob(xrand.New(1), job, 4.91, "A")
	if err != nil {
		t.Fatal(err)
	}
	if p.N() != 64 {
		t.Fatalf("N = %d, want 64", p.N())
	}
	if p.Name != "A" || p.SourceJob != 7 || p.BaseRuntimeSec != 11000 {
		t.Fatalf("metadata wrong: %+v", p)
	}
	wantMax := 10000 * 4.91
	if math.Abs(p.MaxGFLOP-wantMax) > 1e-9 {
		t.Fatalf("MaxGFLOP = %v, want %v", p.MaxGFLOP, wantMax)
	}
	for i, w := range p.Tasks {
		if w < 0.5*wantMax || w > wantMax {
			t.Fatalf("task %d workload %v outside [0.5,1.0]×max", i, w)
		}
	}
}

func TestFromJobErrors(t *testing.T) {
	rng := xrand.New(1)
	cases := []*swf.Job{
		{AllocProcs: 0, AvgCPUTime: 100},
		{AllocProcs: 4, AvgCPUTime: 0},
	}
	for i, j := range cases {
		if _, err := FromJob(rng, j, 4.91, "x"); err == nil {
			t.Fatalf("case %d accepted", i)
		}
	}
	if _, err := FromJob(rng, &swf.Job{AllocProcs: 4, AvgCPUTime: 10}, 0, "x"); err == nil {
		t.Fatal("zero speed accepted")
	}
}

func TestSynthetic(t *testing.T) {
	p := Synthetic(xrand.New(2), "S", 100, 500, 9000)
	if p.N() != 100 || p.BaseRuntimeSec != 9000 {
		t.Fatalf("synthetic: %+v", p)
	}
	for _, w := range p.Tasks {
		if w < 250 || w > 500 {
			t.Fatalf("workload %v outside [250,500]", w)
		}
	}
	if got := Synthetic(xrand.New(1), "E", 0, 1, 1); got.N() != 0 {
		t.Fatal("empty synthetic wrong")
	}
}

func TestSyntheticPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("negative n did not panic")
		}
	}()
	Synthetic(xrand.New(1), "x", -1, 1, 1)
}

func TestProgramAggregates(t *testing.T) {
	p := &Program{Tasks: []float64{2, 8, 5}}
	if p.TotalWork() != 15 {
		t.Fatalf("TotalWork = %v", p.TotalWork())
	}
	empty := &Program{}
	if empty.TotalWork() != 0 {
		t.Fatal("empty program aggregates not zero")
	}
}

func TestWorkloadBoundsProperty(t *testing.T) {
	rng := xrand.New(3)
	f := func(seed uint32, nRaw uint8) bool {
		n := int(nRaw)%200 + 1
		p := Synthetic(xrand.New(uint64(seed)), "q", n, 1000, 7200)
		_ = rng
		for _, w := range p.Tasks {
			if w < 500 || w > 1000 {
				return false
			}
		}
		return p.TotalWork() >= 500*float64(n) && p.TotalWork() <= 1000*float64(n)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func newTestCatalog(t *testing.T) *Catalog {
	t.Helper()
	tr := swf.GenerateAtlas(xrand.New(10), swf.GenOptions{NumJobs: 4000})
	return NewCatalog(tr, 0, 0)
}

func TestCatalogDefaults(t *testing.T) {
	c := newTestCatalog(t)
	if c.MinRunTimeSec != 7200 || c.ProcGFLOPS != 4.91 {
		t.Fatalf("defaults wrong: %+v", c)
	}
}

func TestCatalogSizesAndCounts(t *testing.T) {
	c := newTestCatalog(t)
	sizes := c.Sizes()
	if len(sizes) == 0 {
		t.Fatal("catalog has no sizes")
	}
	for i := 1; i < len(sizes); i++ {
		if sizes[i] <= sizes[i-1] {
			t.Fatal("sizes not ascending")
		}
	}
	for _, want := range []int{256, 512, 1024, 2048, 4096, 8192} {
		if c.Count(want) < 12 {
			t.Fatalf("size %d count = %d, want >= 12 (generator guarantee)", want, c.Count(want))
		}
	}
}

func TestCatalogPick(t *testing.T) {
	c := newTestCatalog(t)
	p, err := c.Pick(xrand.New(1), 256, "A")
	if err != nil {
		t.Fatal(err)
	}
	if p.N() != 256 {
		t.Fatalf("picked program has %d tasks, want 256", p.N())
	}
	if p.BaseRuntimeSec < 7200 {
		t.Fatalf("picked job runtime %v below large threshold", p.BaseRuntimeSec)
	}
	if p.SourceJob == 0 {
		t.Fatal("source job not recorded")
	}
}

func TestCatalogPickMissingSize(t *testing.T) {
	c := newTestCatalog(t)
	_, err := c.Pick(xrand.New(1), 7, "x")
	if !errors.Is(err, ErrNoMatchingJob) {
		t.Fatalf("err = %v, want ErrNoMatchingJob", err)
	}
}

func TestCatalogDeterministicPick(t *testing.T) {
	c := newTestCatalog(t)
	a, err := c.Pick(xrand.New(42), 512, "A")
	if err != nil {
		t.Fatal(err)
	}
	b, err := c.Pick(xrand.New(42), 512, "A")
	if err != nil {
		t.Fatal(err)
	}
	if a.SourceJob != b.SourceJob || a.Tasks[0] != b.Tasks[0] {
		t.Fatal("same seed produced different programs")
	}
}

func TestCatalogExcludesSmallAndFailedJobs(t *testing.T) {
	tr := &swf.Trace{Jobs: []swf.Job{
		{JobNumber: 1, AllocProcs: 16, AvgCPUTime: 8000, RunTime: 8000, Status: swf.StatusCompleted},
		{JobNumber: 2, AllocProcs: 16, AvgCPUTime: 100, RunTime: 100, Status: swf.StatusCompleted}, // too short
		{JobNumber: 3, AllocProcs: 16, AvgCPUTime: 9000, RunTime: 9000, Status: swf.StatusFailed},  // failed
		{JobNumber: 4, AllocProcs: 16, AvgCPUTime: 0, RunTime: 9000, Status: swf.StatusCompleted},  // no CPU time
	}}
	c := NewCatalog(tr, 7200, 4.91)
	if c.Count(16) != 1 {
		t.Fatalf("catalog count = %d, want 1 (only job 1 eligible)", c.Count(16))
	}
	p, err := c.Pick(xrand.New(1), 16, "only")
	if err != nil {
		t.Fatal(err)
	}
	if p.SourceJob != 1 {
		t.Fatalf("picked job %d, want 1", p.SourceJob)
	}
}
