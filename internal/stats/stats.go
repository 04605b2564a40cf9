package stats

import (
	"fmt"
	"math"
	"sort"
)

// Summary holds descriptive statistics of a sample.
type Summary struct {
	N      int
	Mean   float64
	Std    float64 // sample standard deviation (n-1 denominator)
	Min    float64
	Max    float64
	Median float64
	Sum    float64
}

// Summarize computes a Summary of xs. An empty sample yields the zero
// Summary (N == 0); callers should branch on N before using the moments.
func Summarize(xs []float64) Summary {
	if len(xs) == 0 {
		return Summary{}
	}
	s := Summary{N: len(xs), Min: xs[0], Max: xs[0]}
	for _, v := range xs {
		s.Sum += v
		if v < s.Min {
			s.Min = v
		}
		if v > s.Max {
			s.Max = v
		}
	}
	s.Mean = s.Sum / float64(s.N)
	if s.N > 1 {
		ss := 0.0
		for _, v := range xs {
			d := v - s.Mean
			ss += d * d
		}
		s.Std = math.Sqrt(ss / float64(s.N-1))
	}
	s.Median = Median(xs)
	return s
}

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

// Median returns the median of xs without modifying it, or 0 for an empty
// sample.
func Median(xs []float64) float64 {
	n := len(xs)
	if n == 0 {
		return 0
	}
	c := make([]float64, n)
	copy(c, xs)
	sort.Float64s(c)
	if n%2 == 1 {
		return c[n/2]
	}
	return (c[n/2-1] + c[n/2]) / 2
}

// Percentile returns the p-th percentile (p in [0,100]) using linear
// interpolation between closest ranks. It panics for p outside [0,100] and
// returns 0 for an empty sample.
func Percentile(xs []float64, p float64) float64 {
	if p < 0 || p > 100 {
		panic(fmt.Sprintf("stats: percentile %v out of [0,100]", p))
	}
	n := len(xs)
	if n == 0 {
		return 0
	}
	c := make([]float64, n)
	copy(c, xs)
	sort.Float64s(c)
	if n == 1 {
		return c[0]
	}
	rank := p / 100 * float64(n-1)
	lo := int(math.Floor(rank))
	hi := int(math.Ceil(rank))
	if lo == hi {
		return c[lo]
	}
	frac := rank - float64(lo)
	return c[lo]*(1-frac) + c[hi]*frac
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

// Histogram is a fixed-width binning of a sample.
type Histogram struct {
	Lo, Hi float64 // inclusive range covered by the bins
	Counts []int   // len == number of bins
	Width  float64 // bin width
	Under  int     // observations below Lo
	Over   int     // observations above Hi
}

// NewHistogram bins xs into bins equal-width buckets over [lo, hi].
// Observations outside the range are tallied in Under/Over rather than
// silently dropped. It panics if bins <= 0 or hi <= lo.
func NewHistogram(xs []float64, lo, hi float64, bins int) *Histogram {
	if bins <= 0 {
		panic("stats: NewHistogram requires bins > 0")
	}
	if hi <= lo {
		panic("stats: NewHistogram requires hi > lo")
	}
	h := &Histogram{Lo: lo, Hi: hi, Counts: make([]int, bins), Width: (hi - lo) / float64(bins)}
	for _, v := range xs {
		switch {
		case v < lo:
			h.Under++
		case v > hi:
			h.Over++
		default:
			b := int((v - lo) / h.Width)
			if b == bins { // v == hi lands in the last bin
				b = bins - 1
			}
			h.Counts[b]++
		}
	}
	return h
}

// Total returns the number of observations inside the histogram range.
func (h *Histogram) Total() int {
	t := 0
	for _, c := range h.Counts {
		t += c
	}
	return t
}

// Series is an ordered list of (x, sample-of-y) pairs: one point per
// parameter value (e.g. number of tasks), with y replicated over seeds.
type Series struct {
	Name string
	X    []float64
	Y    [][]float64 // Y[i] holds the replicate observations at X[i]
}

// NewSeries returns an empty named series.
func NewSeries(name string) *Series {
	return &Series{Name: name}
}

// AddPoint appends a parameter point with its replicate observations.
func (s *Series) AddPoint(x float64, ys ...float64) {
	s.X = append(s.X, x)
	s.Y = append(s.Y, append([]float64(nil), ys...))
}

// AppendY adds one more replicate observation to the point with the given
// x, creating the point if it does not exist yet.
// X values are exact grid coordinates (program sizes), not computed
// floats, so they match exactly.
func (s *Series) AppendY(x, y float64) {
	for i, xv := range s.X {
		if xv == x {
			s.Y[i] = append(s.Y[i], y)
			return
		}
	}
	s.AddPoint(x, y)
}

// Means returns the per-point means.
func (s *Series) Means() []float64 {
	out := make([]float64, len(s.X))
	for i, ys := range s.Y {
		out[i] = Mean(ys)
	}
	return out
}

// CI95s returns the per-point 95% confidence half-widths.
func (s *Series) CI95s() []float64 {
	out := make([]float64, len(s.X))
	for i, ys := range s.Y {
		out[i] = CI95(ys)
	}
	return out
}

// Len returns the number of parameter points.
func (s *Series) Len() int { return len(s.X) }
