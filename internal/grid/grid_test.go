package grid

import (
	"math"
	"testing"
	"testing/quick"

	"gridvo/internal/workload"
	"gridvo/internal/xrand"
)

func testProgram(n int) *workload.Program {
	return workload.Synthetic(xrand.New(100), "T", n, 50000, 9000)
}

func TestGenerateGSPs(t *testing.T) {
	gsps := GenerateGSPs(xrand.New(1), 16)
	if len(gsps) != 16 {
		t.Fatalf("len = %d", len(gsps))
	}
	for i, g := range gsps {
		if g.ID != i {
			t.Fatalf("ID[%d] = %d", i, g.ID)
		}
		lo, hi := SpeedUnitGFLOPS*MinSpeedFactor, SpeedUnitGFLOPS*MaxSpeedFactor
		if g.SpeedGFLOPS < lo || g.SpeedGFLOPS >= hi {
			t.Fatalf("speed %v outside [%v,%v)", g.SpeedGFLOPS, lo, hi)
		}
		if g.Name == "" {
			t.Fatal("GSP without a name")
		}
	}
}

func TestGenerateGSPsPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("negative m did not panic")
		}
	}()
	GenerateGSPs(xrand.New(1), -1)
}

func TestTimeMatrix(t *testing.T) {
	p := testProgram(10)
	gsps := GenerateGSPs(xrand.New(2), 4)
	tm := TimeMatrix(gsps, p)
	if len(tm) != 4 || len(tm[0]) != 10 {
		t.Fatalf("shape = %dx%d", len(tm), len(tm[0]))
	}
	for i, g := range gsps {
		for j, w := range p.Tasks {
			want := w / g.SpeedGFLOPS
			if math.Abs(tm[i][j]-want) > 1e-9 {
				t.Fatalf("t[%d][%d] = %v, want %v", i, j, tm[i][j], want)
			}
		}
	}
}

func TestTimeMatrixConsistent(t *testing.T) {
	// The paper requires the time matrix to be consistent: generated from
	// fixed workloads and per-GSP speeds, it always is.
	p := testProgram(30)
	gsps := GenerateGSPs(xrand.New(3), 8)
	tm := TimeMatrix(gsps, p)
	if a, b, j, ok := IsTimeConsistent(tm); !ok {
		t.Fatalf("time matrix inconsistent at GSPs %d,%d task %d", a, b, j)
	}
}

func TestTimeMatrixPanicsOnZeroSpeed(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("zero speed did not panic")
		}
	}()
	TimeMatrix([]GSP{{ID: 0, SpeedGFLOPS: 0}}, testProgram(2))
}

func TestIsTimeConsistentDetectsViolation(t *testing.T) {
	bad := [][]float64{
		{1, 5},
		{2, 3}, // GSP 1 slower on task 0 but faster on task 1
	}
	if _, _, _, ok := IsTimeConsistent(bad); ok {
		t.Fatal("inconsistent matrix not detected")
	}
	if _, _, _, ok := IsTimeConsistent(nil); !ok {
		t.Fatal("empty matrix should be vacuously consistent")
	}
}

func TestCostMatrixRangeAndShape(t *testing.T) {
	p := testProgram(40)
	c := CostMatrix(xrand.New(4), 16, p)
	if len(c) != 16 || len(c[0]) != 40 {
		t.Fatalf("shape = %dx%d", len(c), len(c[0]))
	}
	for i := range c {
		for j := range c[i] {
			if c[i][j] < 1 || c[i][j] > MaxCost {
				t.Fatalf("cost[%d][%d] = %v outside [1,%v]", i, j, c[i][j], MaxCost)
			}
		}
	}
}

func TestCostMatrixWorkloadMonotone(t *testing.T) {
	p := testProgram(25)
	c := CostMatrix(xrand.New(5), 8, p)
	if g, a, b, ok := IsCostWorkloadMonotone(c, p); !ok {
		t.Fatalf("cost not workload-monotone: GSP %d tasks %d,%d (w=%v,%v c=%v,%v)",
			g, a, b, p.Tasks[a], p.Tasks[b], c[g][a], c[g][b])
	}
}

func TestCostMatrixUnrelatedAcrossGSPs(t *testing.T) {
	// For at least one task, the cheapest GSP should differ from the
	// cheapest GSP of another task — costs are not a pure row scaling.
	p := testProgram(60)
	c := CostMatrix(xrand.New(6), 16, p)
	argmin := func(j int) int {
		best := 0
		for i := range c {
			if c[i][j] < c[best][j] {
				best = i
			}
		}
		return best
	}
	first := argmin(0)
	varies := false
	for j := 1; j < p.N(); j++ {
		if argmin(j) != first {
			varies = true
			break
		}
	}
	if !varies {
		t.Fatal("one GSP is cheapest for every task; costs look related")
	}
}

func TestCostMatrixMonotoneProperty(t *testing.T) {
	f := func(seed uint32, nRaw, mRaw uint8) bool {
		n := int(nRaw)%30 + 2
		m := int(mRaw)%8 + 1
		rng := xrand.New(uint64(seed))
		p := workload.Synthetic(rng.Split("prog"), "q", n, 1000, 8000)
		c := CostMatrix(rng.Split("cost"), m, p)
		_, _, _, ok := IsCostWorkloadMonotone(c, p)
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestDeadlineRange(t *testing.T) {
	p := testProgram(1000)
	rng := xrand.New(7)
	for i := 0; i < 200; i++ {
		d := Deadline(rng, p)
		lo := MinDeadlineFactor * p.BaseRuntimeSec * 1000 / 1000
		hi := MaxDeadlineFactor * p.BaseRuntimeSec * 1000 / 1000
		if d < lo || d > hi {
			t.Fatalf("deadline %v outside [%v,%v]", d, lo, hi)
		}
	}
}

func TestPaymentRange(t *testing.T) {
	rng := xrand.New(8)
	for i := 0; i < 200; i++ {
		p := Payment(rng, 256)
		lo := MinPaymentFactor * MaxCost * 256
		hi := MaxPaymentFactor * MaxCost * 256
		if p < lo || p > hi {
			t.Fatalf("payment %v outside [%v,%v]", p, lo, hi)
		}
	}
}

func TestSubRows(t *testing.T) {
	mat := [][]float64{{1, 2}, {3, 4}, {5, 6}}
	got := SubRows(mat, []int{2, 0})
	if got[0][0] != 5 || got[1][1] != 2 {
		t.Fatalf("SubRows = %v", got)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("out-of-range SubRows did not panic")
		}
	}()
	SubRows(mat, []int{9})
}

func TestCostMatrixDeterministic(t *testing.T) {
	p := testProgram(20)
	a := CostMatrix(xrand.New(11), 4, p)
	b := CostMatrix(xrand.New(11), 4, p)
	for i := range a {
		for j := range a[i] {
			if a[i][j] != b[i][j] {
				t.Fatal("cost matrix not deterministic")
			}
		}
	}
}
