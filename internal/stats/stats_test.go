package stats

import (
	"math"
	"testing"
)

func approx(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestMeanStd(t *testing.T) {
	if Mean(nil) != 0 || Std(nil) != 0 || Std([]float64{5}) != 0 {
		t.Fatal("degenerate Mean/Std not zero")
	}
	if !approx(Mean([]float64{1, 2, 3}), 2, 1e-15) {
		t.Fatal("Mean wrong")
	}
	if !approx(Std([]float64{1, 2, 3}), 1, 1e-15) {
		t.Fatal("Std wrong")
	}
}

func TestCI95(t *testing.T) {
	if CI95(nil) != 0 || CI95([]float64{1}) != 0 {
		t.Fatal("degenerate CI95 not zero")
	}
	xs := []float64{1, 2, 3, 4}
	want := 1.96 * Std(xs) / 2
	if !approx(CI95(xs), want, 1e-12) {
		t.Fatalf("CI95 = %v, want %v", CI95(xs), want)
	}
}
