package matrix

import (
	"fmt"
	"math"
)

// Vector helpers operate on plain []float64 slices; the reputation code
// passes probability vectors around and needs normalization, the power
// method's difference norm and argmin with deterministic tie-breaking
// (lowest index wins), which the mechanism layer then optionally
// randomizes.

// VecScale multiplies x in place by s and returns x.
func VecScale(x []float64, s float64) []float64 {
	for i := range x {
		x[i] *= s
	}
	return x
}

// VecNormalizeL1 scales x in place so its L1 norm is 1 and returns x. A
// zero vector is left unchanged (there is no direction to preserve).
func VecNormalizeL1(x []float64) []float64 {
	s := 0.0
	for _, v := range x {
		s += math.Abs(v)
	}
	if s == 0 {
		return x
	}
	return VecScale(x, 1/s)
}

// VecDiffNormL2 returns ‖x−y‖₂ without allocating. It panics on length
// mismatch. This is the δ of Algorithm 2 line 6.
func VecDiffNormL2(x, y []float64) float64 {
	if len(x) != len(y) {
		panic(fmt.Sprintf("matrix: VecDiffNormL2 length mismatch %d vs %d", len(x), len(y)))
	}
	s := 0.0
	for i, v := range x {
		d := v - y[i]
		s += d * d
	}
	return math.Sqrt(s)
}

// ArgMin returns the index of the smallest element, breaking ties toward
// the lowest index. It returns -1 for an empty vector.
func ArgMin(x []float64) int {
	if len(x) == 0 {
		return -1
	}
	best := 0
	for i, v := range x {
		if v < x[best] {
			best = i
		}
	}
	return best
}

// MinIndices returns every index whose value is within tol of the minimum.
// The mechanism uses this to collect reputation ties before random
// tie-breaking. It returns nil for an empty vector.
func MinIndices(x []float64, tol float64) []int {
	if len(x) == 0 {
		return nil
	}
	minV := x[0]
	for _, v := range x[1:] {
		if v < minV {
			minV = v
		}
	}
	var out []int
	for i, v := range x {
		if v-minV <= tol {
			out = append(out, i)
		}
	}
	return out
}

// Uniform returns the length-n vector with every entry 1/n (the power
// method's starting point, Algorithm 2 line 3). It panics if n <= 0.
func Uniform(n int) []float64 {
	if n <= 0 {
		panic("matrix: Uniform requires n > 0")
	}
	x := make([]float64, n)
	u := 1 / float64(n)
	for i := range x {
		x[i] = u
	}
	return x
}
