package xrand

import (
	"math"
	"math/bits"
)

// goldenGamma is the odd constant 2^64/φ used by SplitMix64 to advance the
// internal state; using the golden ratio guarantees a full-period Weyl
// sequence with well-distributed low-order bits.
const goldenGamma = 0x9E3779B97F4A7C15

// RNG is a deterministic pseudo-random stream. The zero value is NOT ready
// for use; construct streams with New or by splitting an existing stream.
//
// RNG is not safe for concurrent use. Concurrent components must each own a
// stream obtained via Split, which is both faster and reproducible
// regardless of scheduling.
type RNG struct {
	state uint64
}

// New returns a stream seeded from seed. Two streams created with the same
// seed produce identical sequences.
func New(seed uint64) *RNG {
	return &RNG{state: mix(seed)}
}

// mix is the SplitMix64 finalizer: a bijective avalanche function on 64-bit
// words (variant 13 of Stafford's mixers, the one used by SplittableRandom).
func mix(z uint64) uint64 {
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

// Uint64 returns the next 64 pseudo-random bits.
func (r *RNG) Uint64() uint64 {
	r.state += goldenGamma
	return mix(r.state)
}

// Split derives an independent child stream from this stream and a textual
// label. Splitting consumes no randomness from the parent: the child seed is
// a hash of the parent's current state and the label, so the set of child
// streams a component receives is insensitive to how many values other
// components have drawn.
func (r *RNG) Split(label string) *RNG {
	h := r.state ^ 0x632BE59BD9B4E019
	for i := 0; i < len(label); i++ {
		h = (h ^ uint64(label[i])) * 0x100000001B3
		h = bits.RotateLeft64(h, 17)
	}
	return &RNG{state: mix(h)}
}

// SplitN derives the i-th of a family of independent child streams. It is
// the indexed analogue of Split, used when a component needs one stream per
// repetition or per entity.
func (r *RNG) SplitN(label string, i int) *RNG {
	child := r.Split(label)
	child.state = mix(child.state ^ (uint64(i)+1)*goldenGamma)
	return child
}

// IntN returns a uniform integer in [0, n). It panics if n <= 0.
//
// The implementation uses Lemire's multiply-shift rejection method, which is
// unbiased and needs no divisions in the common case.
func (r *RNG) IntN(n int) int {
	if n <= 0 {
		panic("xrand: IntN called with n <= 0")
	}
	return int(r.Uint64N(uint64(n)))
}

// Uint64N returns a uniform uint64 in [0, n). It panics if n == 0.
func (r *RNG) Uint64N(n uint64) uint64 {
	if n == 0 {
		panic("xrand: Uint64N called with n == 0")
	}
	// Lemire's method: hi part of a 128-bit product is uniform in [0,n)
	// after rejecting the small biased region of the low part.
	hi, lo := bits.Mul64(r.Uint64(), n)
	if lo < n {
		thresh := -n % n
		for lo < thresh {
			hi, lo = bits.Mul64(r.Uint64(), n)
		}
	}
	return hi
}

// Float64 returns a uniform float64 in [0, 1) with 53 bits of precision.
func (r *RNG) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Uniform returns a uniform float64 in [lo, hi). It panics if hi < lo.
func (r *RNG) Uniform(lo, hi float64) float64 {
	if hi < lo {
		panic("xrand: Uniform called with hi < lo")
	}
	return lo + (hi-lo)*r.Float64()
}

// UniformInt returns a uniform integer in [lo, hi] inclusive. It panics if
// hi < lo.
func (r *RNG) UniformInt(lo, hi int) int {
	if hi < lo {
		panic("xrand: UniformInt called with hi < lo")
	}
	return lo + r.IntN(hi-lo+1)
}

// Bool returns true with probability p (clamped to [0,1]).
func (r *RNG) Bool(p float64) bool {
	if p <= 0 {
		return false
	}
	if p >= 1 {
		return true
	}
	return r.Float64() < p
}

// LogUniform returns a float64 log-uniformly distributed in [lo, hi]; both
// bounds must be positive. Log-uniform sampling matches the heavy-tailed
// shape of job runtimes and sizes in parallel workload traces.
func (r *RNG) LogUniform(lo, hi float64) float64 {
	if lo <= 0 || hi < lo {
		panic("xrand: LogUniform requires 0 < lo <= hi")
	}
	return math.Exp(r.Uniform(math.Log(lo), math.Log(hi)))
}

// Exponential returns an exponentially distributed float64 with the given
// mean (= 1/rate). Used for inter-arrival times in the trace generator.
func (r *RNG) Exponential(mean float64) float64 {
	if mean <= 0 {
		panic("xrand: Exponential requires mean > 0")
	}
	// 1-Float64() is in (0,1], so Log never sees 0.
	return -mean * math.Log(1-r.Float64())
}

// Perm returns a pseudo-random permutation of [0, n).
func (r *RNG) Perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	r.ShuffleInts(p)
	return p
}

// ShuffleInts permutes s in place (Fisher–Yates).
func (r *RNG) ShuffleInts(s []int) {
	for i := len(s) - 1; i > 0; i-- {
		j := r.IntN(i + 1)
		s[i], s[j] = s[j], s[i]
	}
}

// Shuffle permutes n elements in place using the provided swap function,
// mirroring math/rand.Shuffle.
func (r *RNG) Shuffle(n int, swap func(i, j int)) {
	for i := n - 1; i > 0; i-- {
		j := r.IntN(i + 1)
		swap(i, j)
	}
}
