package swf

import (
	"fmt"
	"math"

	"gridvo/internal/xrand"
)

// This file synthesizes an SWF trace with the published marginal statistics
// of the LLNL-Atlas-2006-2.1-cln log used by the paper, for environments
// where the original archive file is not available. See DESIGN.md §2 for
// the substitution argument: the mechanism only consumes the (processors,
// CPU time) pairs of large completed jobs, so matching those marginals
// reproduces the paper's workload regime.
//
// Published facts about the log reproduced here:
//   - 43,778 jobs, of which 21,915 (≈ 50.06%) completed successfully;
//   - job sizes range from 8 to 8832 processors (Atlas nodes have 8 cores,
//     so allocations are multiples of 8, favouring powers of two);
//   - ≈ 13% of the completed jobs are "large" (runtime > 7200 s);
//   - the trace spans November 2006 – June 2007 (≈ 18.4·10⁶ s);
//   - Atlas peak performance 44.24 TFLOPS over 9216 processors
//     → 4.91 GFLOPS per processor (with 1 GFLOPS = 10⁹ FLOP/s).

// Atlas system constants used across the simulation (Section IV-A).
const (
	// AtlasProcGFLOPS is the peak performance of one Atlas processor in
	// GFLOPS (44.24 TFLOPS / 9216 processors).
	AtlasProcGFLOPS = 4.91
	// AtlasProcessors is the processor count of the Atlas cluster.
	AtlasProcessors = 9216
	// LargeRunTimeSec is the paper's threshold for "large" jobs.
	LargeRunTimeSec = 7200
)

// Published marginals of the Atlas log the generator reproduces.
const (
	atlasCompletedFrac float64 = 21915.0 / 43778.0 // ≈ 0.5006
	atlasLargeFrac     float64 = 0.13              // P(runtime > 7200s | completed)
	atlasMinProcs      int     = 8
	atlasMaxProcs      int     = 8832
	atlasSpanSeconds   int64   = 18_400_000 // Nov 2006 – Jun 2007
	atlasMaxRunTimeSec float64 = 250_000    // ~2.9 days
	// atlasCPUDensity is the exponent γ of the job-size → CPU-density
	// correlation: a job's average CPU time per processor is its wall
	// runtime scaled by (procs/atlasMaxProcs)^γ. The archive publishes
	// only marginal distributions; the joint (CPU time | size) relation
	// is calibrated to γ = 0.3 so that larger programs are relatively
	// more compute-dense — the property that makes the final VO size
	// grow with the task count as in the paper's Fig. 2 (capability
	// clusters like Atlas run their big allocations as long
	// compute-dense science jobs).
	atlasCPUDensity float64 = 0.3
)

// GenOptions parameterize the synthetic Atlas trace. The zero value of any
// field selects the published Atlas value.
type GenOptions struct {
	NumJobs int // default 43778
	// GuaranteeSizes lists processor counts that must each be hit by at
	// least MinPerSize large completed jobs, so program extraction for
	// the experiment sizes never fails. Default: 256…8192 powers of two.
	GuaranteeSizes []int
	MinPerSize     int // default 12 (> the 10 programs Fig. 4 needs)
}

func (o *GenOptions) fillDefaults() {
	if o.NumJobs == 0 {
		o.NumJobs = 43778
	}
	if o.GuaranteeSizes == nil {
		o.GuaranteeSizes = []int{256, 512, 1024, 2048, 4096, 8192}
	}
	if o.MinPerSize == 0 {
		o.MinPerSize = 12
	}
}

// GenerateAtlas produces a synthetic trace with the Atlas log's marginal
// distributions. The output is deterministic in rng.
func GenerateAtlas(rng *xrand.RNG, opts GenOptions) *Trace {
	opts.fillDefaults()
	if opts.NumJobs < 0 {
		panic("swf: GenerateAtlas with negative NumJobs")
	}
	t := &Trace{
		Header: []string{
			"Version: 2.2",
			"Computer: synthetic LLNL Atlas (gridvo generator)",
			"Note: marginals match LLNL-Atlas-2006-2.1-cln; see DESIGN.md",
			fmt.Sprintf("MaxJobs: %d", opts.NumJobs),
			fmt.Sprintf("MaxNodes: %d", AtlasProcessors/8),
			fmt.Sprintf("MaxProcs: %d", AtlasProcessors),
		},
	}

	// Reserve the guaranteed large completed jobs first, then fill the
	// rest of the trace from the marginal distributions.
	type slot struct {
		procs     int
		completed bool
		large     bool
	}
	slots := make([]slot, 0, opts.NumJobs)
	guaranteed := 0
	for _, size := range opts.GuaranteeSizes {
		for k := 0; k < opts.MinPerSize; k++ {
			slots = append(slots, slot{procs: size, completed: true, large: true})
			guaranteed++
		}
	}
	if guaranteed > opts.NumJobs {
		slots = slots[:opts.NumJobs]
	}
	for len(slots) < opts.NumJobs {
		s := slot{
			procs:     sampleProcs(rng),
			completed: rng.Bool(atlasCompletedFrac),
		}
		s.large = rng.Bool(atlasLargeFrac)
		slots = append(slots, s)
	}
	// Shuffle so the guaranteed jobs are not clustered at the trace head.
	rng.Shuffle(len(slots), func(i, j int) { slots[i], slots[j] = slots[j], slots[i] })

	meanInterarrival := float64(atlasSpanSeconds) / float64(max(opts.NumJobs, 1))
	submit := int64(0)
	t.Jobs = make([]Job, 0, len(slots))
	for i, s := range slots {
		runtime := sampleRunTime(rng, s.large)
		status := StatusCompleted
		if !s.completed {
			if rng.Bool(0.7) {
				status = StatusFailed
				// Failed jobs typically die early.
				runtime *= rng.Uniform(0.01, 0.5)
			} else {
				status = StatusCancelled
				runtime = 0
			}
		}
		density := math.Pow(float64(s.procs)/float64(atlasMaxProcs), atlasCPUDensity)
		avgCPU := runtime * rng.Uniform(0.85, 1.0) * density
		j := Job{
			JobNumber:     i + 1,
			SubmitTime:    submit,
			WaitTime:      int64(rng.LogUniform(1, 36000)),
			RunTime:       round2(runtime),
			AllocProcs:    s.procs,
			AvgCPUTime:    round2(avgCPU),
			UsedMemory:    round2(rng.LogUniform(1024, 2*1024*1024)),
			ReqProcs:      s.procs,
			ReqTime:       round2(runtime * rng.Uniform(1.0, 4.0)),
			ReqMemory:     -1,
			Status:        status,
			UserID:        rng.UniformInt(1, 120),
			GroupID:       rng.UniformInt(1, 15),
			Executable:    rng.UniformInt(1, 60),
			QueueNumber:   rng.UniformInt(1, 3),
			PartitionID:   1,
			PrecedingJob:  -1,
			ThinkTimePrec: -1,
		}
		t.Jobs = append(t.Jobs, j)
		submit += int64(rng.Exponential(meanInterarrival)) + 1
	}
	return t
}

// sampleProcs draws an allocation size: mostly power-of-two ladder values
// (the dominant pattern in the Atlas log), otherwise an arbitrary multiple
// of 8 within range (Atlas nodes have 8 cores).
func sampleProcs(rng *xrand.RNG) int {
	if rng.Bool(0.7) {
		ladder := []int{8, 16, 32, 64, 128, 256, 512, 1024, 2048, 4096, 8192}
		var valid []int
		for _, v := range ladder {
			if v >= atlasMinProcs && v <= atlasMaxProcs {
				valid = append(valid, v)
			}
		}
		if len(valid) > 0 {
			// Log-uniform over ladder positions: small jobs dominate.
			idx := int(rng.Float64() * rng.Float64() * float64(len(valid)))
			if idx >= len(valid) {
				idx = len(valid) - 1
			}
			return valid[idx]
		}
	}
	nodes := rng.UniformInt((atlasMinProcs+7)/8, atlasMaxProcs/8)
	return nodes * 8
}

// sampleRunTime draws a runtime conditioned on the large/small coin:
// log-uniform within the corresponding band so both bands have heavy tails.
func sampleRunTime(rng *xrand.RNG, large bool) float64 {
	if large {
		return rng.LogUniform(LargeRunTimeSec, atlasMaxRunTimeSec)
	}
	return rng.LogUniform(10, LargeRunTimeSec-1)
}

func round2(v float64) float64 {
	return float64(int64(v*100+0.5)) / 100
}
