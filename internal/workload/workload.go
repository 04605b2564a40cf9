package workload

import (
	"errors"
	"fmt"
	"sort"

	"gridvo/internal/swf"
	"gridvo/internal/xrand"
)

// Program is a bag-of-tasks application: n independent tasks with known
// workloads, to be executed by a VO before a deadline.
type Program struct {
	// Name identifies the program in experiment output ("A", "B", …).
	Name string
	// Tasks holds the workload w(T) of each task in GFLOP.
	Tasks []float64
	// MaxGFLOP is the per-task workload ceiling the tasks were drawn
	// from (runtime × per-processor GFLOPS).
	MaxGFLOP float64
	// SourceJob is the SWF job number the program was derived from
	// (0 when synthetic).
	SourceJob int
	// BaseRuntimeSec is the source job's runtime in seconds; Table I
	// derives the deadline range from it.
	BaseRuntimeSec float64
}

// N returns the number of tasks.
func (p *Program) N() int { return len(p.Tasks) }

// TotalWork returns the sum of all task workloads in GFLOP.
func (p *Program) TotalWork() float64 {
	s := 0.0
	for _, w := range p.Tasks {
		s += w
	}
	return s
}

// WorkloadBounds are the paper's per-task workload fraction limits.
const (
	// MinWorkFrac and MaxWorkFrac bound each task's workload as a
	// fraction of the job-derived maximum ([0.5, 1.0] in Section IV-A).
	MinWorkFrac = 0.5
	MaxWorkFrac = 1.0
)

// FromJob derives a program from an SWF job: n = AllocProcs tasks, each
// with workload uniform in [0.5, 1.0] × (AvgCPUTime × procGFLOPS). The
// job must have positive processors and CPU time.
func FromJob(rng *xrand.RNG, job *swf.Job, procGFLOPS float64, name string) (*Program, error) {
	if job.AllocProcs <= 0 {
		return nil, fmt.Errorf("workload: job %d has %d processors", job.JobNumber, job.AllocProcs)
	}
	if job.AvgCPUTime <= 0 {
		return nil, fmt.Errorf("workload: job %d has no CPU time", job.JobNumber)
	}
	if procGFLOPS <= 0 {
		return nil, fmt.Errorf("workload: non-positive processor speed %v", procGFLOPS)
	}
	maxGFLOP := job.AvgCPUTime * procGFLOPS
	p := &Program{
		Name:           name,
		Tasks:          make([]float64, job.AllocProcs),
		MaxGFLOP:       maxGFLOP,
		SourceJob:      job.JobNumber,
		BaseRuntimeSec: job.RunTime,
	}
	for i := range p.Tasks {
		p.Tasks[i] = rng.Uniform(MinWorkFrac*maxGFLOP, MaxWorkFrac*maxGFLOP)
	}
	return p, nil
}

// Synthetic builds a program directly from parameters, bypassing a trace —
// used by unit tests and the quickstart example.
func Synthetic(rng *xrand.RNG, name string, n int, maxGFLOP, baseRuntimeSec float64) *Program {
	if n < 0 {
		panic("workload: Synthetic with negative n")
	}
	p := &Program{
		Name:           name,
		Tasks:          make([]float64, n),
		MaxGFLOP:       maxGFLOP,
		BaseRuntimeSec: baseRuntimeSec,
	}
	for i := range p.Tasks {
		p.Tasks[i] = rng.Uniform(MinWorkFrac*maxGFLOP, MaxWorkFrac*maxGFLOP)
	}
	return p
}

// ErrNoMatchingJob is returned when a trace has no job satisfying the
// selection criteria for a requested program size.
var ErrNoMatchingJob = errors.New("workload: no job in trace matches the selection criteria")

// Catalog selects programs from a trace. It mirrors the paper's selection:
// completed jobs with runtime ≥ MinRunTimeSec whose allocation equals a
// requested size.
type Catalog struct {
	// MinRunTimeSec filters for "large" jobs; the paper uses 7200.
	MinRunTimeSec float64
	// ProcGFLOPS converts CPU seconds to GFLOP; the paper uses 4.91.
	ProcGFLOPS float64

	byProcs map[int][]swf.Job
}

// NewCatalog indexes the eligible jobs of a trace. minRunTimeSec ≤ 0
// selects the paper's 7200 s; procGFLOPS ≤ 0 selects Atlas's 4.91.
func NewCatalog(t *swf.Trace, minRunTimeSec, procGFLOPS float64) *Catalog {
	if minRunTimeSec <= 0 {
		minRunTimeSec = swf.LargeRunTimeSec
	}
	if procGFLOPS <= 0 {
		procGFLOPS = swf.AtlasProcGFLOPS
	}
	c := &Catalog{
		MinRunTimeSec: minRunTimeSec,
		ProcGFLOPS:    procGFLOPS,
		byProcs:       map[int][]swf.Job{},
	}
	eligible := t.Select(swf.And(
		swf.CompletedOnly(),
		swf.ValidForSimulation(),
		swf.MinRunTime(minRunTimeSec),
	))
	for _, j := range eligible {
		c.byProcs[j.AllocProcs] = append(c.byProcs[j.AllocProcs], j)
	}
	return c
}

// Sizes returns the distinct program sizes available, ascending.
func (c *Catalog) Sizes() []int {
	var out []int
	for p := range c.byProcs {
		out = append(out, p)
	}
	sort.Ints(out)
	return out
}

// Count returns how many eligible jobs exist with exactly n processors.
func (c *Catalog) Count(n int) int { return len(c.byProcs[n]) }

// Pick derives a program with exactly n tasks from a uniformly chosen
// eligible job of that size. It returns ErrNoMatchingJob if the trace has
// no such job.
func (c *Catalog) Pick(rng *xrand.RNG, n int, name string) (*Program, error) {
	jobs := c.byProcs[n]
	if len(jobs) == 0 {
		return nil, fmt.Errorf("%w: size %d", ErrNoMatchingJob, n)
	}
	job := jobs[rng.IntN(len(jobs))]
	return FromJob(rng, &job, c.ProcGFLOPS, name)
}
