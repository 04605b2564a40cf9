package stats

import "math"

// Mean returns the arithmetic mean of xs, or 0 for an empty sample.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, v := range xs {
		s += v
	}
	return s / float64(len(xs))
}

// Std returns the sample standard deviation (n-1 denominator), or 0 when
// the sample has fewer than two points.
func Std(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	m := Mean(xs)
	ss := 0.0
	for _, v := range xs {
		d := v - m
		ss += d * d
	}
	return math.Sqrt(ss / float64(len(xs)-1))
}

// CI95 returns the half-width of a normal-approximation 95% confidence
// interval for the mean of xs (1.96 · s/√n). It returns 0 when the sample
// has fewer than two points. With the paper's 10 repetitions per point the
// normal approximation is the conventional choice for simulation reports.
func CI95(xs []float64) float64 {
	n := len(xs)
	if n < 2 {
		return 0
	}
	return 1.96 * Std(xs) / math.Sqrt(float64(n))
}
