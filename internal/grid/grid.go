package grid

import (
	"fmt"
	"sort"

	"gridvo/internal/workload"
	"gridvo/internal/xrand"
)

// GSP is one Grid Service Provider: an autonomous organization whose
// computational resources are abstracted as a single machine with an
// aggregate speed (Section II-A).
type GSP struct {
	ID          int
	Name        string
	SpeedGFLOPS float64 // s(G): floating-point operations per second, in GFLOPS
}

// Table I constants.
const (
	// PhiB is φ_b, the maximum baseline value of the Braun cost
	// generation method.
	PhiB = 100.0
	// PhiR is φ_r, the maximum row multiplier.
	PhiR = 10.0
	// MaxCost is max_c = φ_b × φ_r, the cost-matrix ceiling used in the
	// payment formula.
	MaxCost = PhiB * PhiR
	// SpeedUnitGFLOPS is the per-processor Atlas peak (4.91 GFLOPS); GSP
	// speeds are SpeedUnitGFLOPS × [MinSpeedFactor, MaxSpeedFactor].
	SpeedUnitGFLOPS = 4.91
	MinSpeedFactor  = 16
	MaxSpeedFactor  = 128
	// DefaultNumGSPs is the paper's m = 16.
	DefaultNumGSPs = 16
)

// GenerateGSPs draws m GSPs with speeds 4.91 × U[16, 128] GFLOPS
// (Table I): each provider owns between 16 and 128 Atlas-class processors.
func GenerateGSPs(rng *xrand.RNG, m int) []GSP {
	if m < 0 {
		panic("grid: GenerateGSPs with negative m")
	}
	out := make([]GSP, m)
	for i := range out {
		out[i] = GSP{
			ID:          i,
			Name:        fmt.Sprintf("G%d", i),
			SpeedGFLOPS: SpeedUnitGFLOPS * rng.Uniform(MinSpeedFactor, MaxSpeedFactor),
		}
	}
	return out
}

// TimeMatrix computes t[i][j] = w(T_j)/s(G_i) in seconds for every GSP i
// and task j. The matrix is consistent by construction (Section IV-A): a
// GSP faster on one task is faster on all tasks, because workloads are
// fixed per task and only speeds differ.
func TimeMatrix(gsps []GSP, p *workload.Program) [][]float64 {
	t := make([][]float64, len(gsps))
	for i, g := range gsps {
		if g.SpeedGFLOPS <= 0 {
			panic(fmt.Sprintf("grid: GSP %d has non-positive speed", g.ID))
		}
		row := make([]float64, p.N())
		for j, w := range p.Tasks {
			row[j] = w / g.SpeedGFLOPS
		}
		t[i] = row
	}
	return t
}

// CostMatrix generates the m×n execution-cost matrix with the method of
// Braun et al. adapted to the paper's two structural requirements
// (Section IV-A):
//
//   - costs are *unrelated* across GSPs: a faster GSP is not necessarily
//     cheaper, and for a given task either provider may be the cheaper one;
//   - costs are *workload-monotone* within each GSP: if w(T_j) > w(T_q)
//     then c(T_j, G_i) > c(T_q, G_i) for every GSP, i.e. the task with the
//     smallest workload is the cheapest on all GSPs.
//
// The generator follows Braun: a baseline vector with entries uniform in
// [1, φ_b], then each row multiplies the baseline by per-element uniform
// row multipliers in [1, φ_r]. Monotonicity is obtained by rank-matching:
// both the baseline entries and each row's multipliers are assigned to
// tasks in workload order (larger workload → larger factor), so every
// product is increasing in workload while the actual values still differ
// freely across GSPs. All costs lie in [1, φ_b·φ_r].
func CostMatrix(rng *xrand.RNG, m int, p *workload.Program) [][]float64 {
	n := p.N()
	if m < 0 {
		panic("grid: CostMatrix with negative m")
	}
	// Rank of each task by workload (ties broken by index for
	// determinism): rank[j] = position of task j in ascending workload
	// order.
	order := make([]int, n)
	for j := range order {
		order[j] = j
	}
	sort.SliceStable(order, func(a, b int) bool { return p.Tasks[order[a]] < p.Tasks[order[b]] })
	rank := make([]int, n)
	for pos, j := range order {
		rank[j] = pos
	}

	// Baseline: n uniforms in [1, φ_b], sorted ascending, assigned by
	// workload rank.
	base := make([]float64, n)
	for i := range base {
		base[i] = rng.Uniform(1, PhiB)
	}
	sort.Float64s(base)

	c := make([][]float64, m)
	mults := make([]float64, n)
	for i := 0; i < m; i++ {
		for k := range mults {
			mults[k] = rng.Uniform(1, PhiR)
		}
		sort.Float64s(mults)
		row := make([]float64, n)
		for j := 0; j < n; j++ {
			row[j] = base[rank[j]] * mults[rank[j]]
		}
		c[i] = row
	}
	return c
}

// DeadlineRange is the Table I deadline band: d = U[0.3, 2.0] × Runtime ×
// n/1000 seconds, where Runtime is the source job's runtime. The upper
// factor keeps the deadline at most ~16× a single GSP's share so feasible
// mappings exist (Section IV-A).
const (
	MinDeadlineFactor = 0.3
	MaxDeadlineFactor = 2.0
)

// Deadline draws a deadline for program p per Table I.
func Deadline(rng *xrand.RNG, p *workload.Program) float64 {
	factor := rng.Uniform(MinDeadlineFactor, MaxDeadlineFactor)
	return factor * p.BaseRuntimeSec * float64(p.N()) / 1000
}

// PaymentRange is the Table I payment band: P = U[0.2, 0.4] × max_c × n.
const (
	MinPaymentFactor = 0.2
	MaxPaymentFactor = 0.4
)

// Payment draws the user's payment for an n-task program per Table I.
func Payment(rng *xrand.RNG, n int) float64 {
	return rng.Uniform(MinPaymentFactor, MaxPaymentFactor) * MaxCost * float64(n)
}

// SubRows returns the rows of matrix mat selected by keep, in order —
// restricting a cost or time matrix to the members of a candidate VO.
func SubRows(mat [][]float64, keep []int) [][]float64 {
	out := make([][]float64, len(keep))
	for i, k := range keep {
		if k < 0 || k >= len(mat) {
			panic(fmt.Sprintf("grid: SubRows index %d out of range [0,%d)", k, len(mat)))
		}
		out[i] = mat[k]
	}
	return out
}

// IsTimeConsistent verifies the consistency property of a time matrix: if
// GSP a is faster than GSP b on any task, it is faster on all tasks.
// Returns the first violating (gspA, gspB, task) triple, or ok = true.
func IsTimeConsistent(t [][]float64) (gspA, gspB, task int, ok bool) {
	m := len(t)
	if m == 0 {
		return 0, 0, 0, true
	}
	n := len(t[0])
	for a := 0; a < m; a++ {
		for b := a + 1; b < m; b++ {
			sign := 0
			for j := 0; j < n; j++ {
				var s int
				switch {
				case t[a][j] < t[b][j]:
					s = -1
				case t[a][j] > t[b][j]:
					s = 1
				}
				if s == 0 {
					continue
				}
				if sign == 0 {
					sign = s
				} else if sign != s {
					return a, b, j, false
				}
			}
		}
	}
	return 0, 0, 0, true
}

// IsCostWorkloadMonotone verifies the paper's cost structure: tasks with
// larger workload cost strictly more on every GSP. Returns the first
// violating (gsp, taskA, taskB) triple, or ok = true.
func IsCostWorkloadMonotone(c [][]float64, p *workload.Program) (gsp, taskA, taskB int, ok bool) {
	for i := range c {
		for a := 0; a < p.N(); a++ {
			for b := 0; b < p.N(); b++ {
				if p.Tasks[a] > p.Tasks[b] && c[i][a] <= c[i][b] {
					return i, a, b, false
				}
			}
		}
	}
	return 0, 0, 0, true
}
