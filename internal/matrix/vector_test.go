package matrix

import (
	"math"
	"testing"
	"testing/quick"

	"gridvo/internal/xrand"
)

func TestVecNormalizeL1(t *testing.T) {
	x := VecNormalizeL1([]float64{1, 3})
	if x[0] != 0.25 || x[1] != 0.75 {
		t.Fatalf("VecNormalizeL1 = %v", x)
	}
	z := VecNormalizeL1([]float64{0, 0})
	if z[0] != 0 || z[1] != 0 {
		t.Fatal("zero vector must stay zero")
	}
}

func TestVecDiffNormL2(t *testing.T) {
	d := VecDiffNormL2([]float64{1, 1}, []float64{4, 5})
	if math.Abs(d-5) > 1e-12 {
		t.Fatalf("VecDiffNormL2 = %v, want 5", d)
	}
}

func TestArgMin(t *testing.T) {
	x := []float64{3, 1, 4, 1, 5}
	if ArgMin(x) != 1 {
		t.Fatalf("ArgMin = %d, want 1 (first of ties)", ArgMin(x))
	}
	if ArgMin(nil) != -1 {
		t.Fatal("ArgMin(nil) != -1")
	}
}

func TestMinIndices(t *testing.T) {
	x := []float64{3, 1, 4, 1.0000001, 5}
	got := MinIndices(x, 1e-6)
	if len(got) != 2 || got[0] != 1 || got[1] != 3 {
		t.Fatalf("MinIndices = %v, want [1 3]", got)
	}
	if MinIndices(nil, 0) != nil {
		t.Fatal("MinIndices(nil) != nil")
	}
	exact := MinIndices([]float64{2, 2, 2}, 0)
	if len(exact) != 3 {
		t.Fatalf("MinIndices all-equal = %v, want all three", exact)
	}
}

func TestUniformVector(t *testing.T) {
	u := Uniform(4)
	for _, v := range u {
		if v != 0.25 {
			t.Fatalf("Uniform(4) = %v", u)
		}
	}
	defer func() {
		if recover() == nil {
			t.Fatal("Uniform(0) did not panic")
		}
	}()
	Uniform(0)
}

func TestNormalizeL1Property(t *testing.T) {
	rng := xrand.New(8)
	f := func(nRaw uint8) bool {
		n := int(nRaw%16) + 1
		x := make([]float64, n)
		nonzero := false
		for i := range x {
			x[i] = rng.Uniform(0, 10)
			nonzero = nonzero || x[i] != 0
		}
		VecNormalizeL1(x)
		if !nonzero {
			return true
		}
		sum := 0.0
		for _, v := range x {
			sum += v
		}
		return math.Abs(sum-1) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}
