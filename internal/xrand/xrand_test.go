package xrand

import (
	"math"
	"testing"
	"testing/quick"
)

func TestNewDeterministic(t *testing.T) {
	a, b := New(42), New(42)
	for i := 0; i < 1000; i++ {
		if got, want := a.Uint64(), b.Uint64(); got != want {
			t.Fatalf("draw %d: streams diverged: %d != %d", i, got, want)
		}
	}
}

func TestDifferentSeedsDiffer(t *testing.T) {
	a, b := New(1), New(2)
	same := 0
	for i := 0; i < 1000; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 1 {
		t.Fatalf("streams with different seeds collided %d/1000 times", same)
	}
}

func TestSplitIndependentOfParentConsumption(t *testing.T) {
	// The child stream must not depend on how much the parent consumed
	// after the split point is fixed, only on the parent state at split
	// time. Here both parents are at the same state, one splits before
	// drawing, the other draws first from a *different* label stream.
	p1 := New(7)
	p2 := New(7)
	c1 := p1.Split("child")
	_ = p2.Split("other").Uint64() // unrelated consumption
	c2 := p2.Split("child")
	for i := 0; i < 100; i++ {
		if c1.Uint64() != c2.Uint64() {
			t.Fatal("Split is not a pure function of (parent state, label)")
		}
	}
}

func TestSplitLabelsIndependent(t *testing.T) {
	p := New(7)
	a := p.Split("alpha")
	b := p.Split("beta")
	same := 0
	for i := 0; i < 1000; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 1 {
		t.Fatalf("streams with different labels collided %d/1000 times", same)
	}
}

func TestSplitNDistinct(t *testing.T) {
	p := New(9)
	seen := map[uint64]int{}
	for i := 0; i < 100; i++ {
		v := p.SplitN("rep", i).Uint64()
		if j, dup := seen[v]; dup {
			t.Fatalf("SplitN(%d) and SplitN(%d) produced identical first draw", i, j)
		}
		seen[v] = i
	}
}

func TestIntNRange(t *testing.T) {
	r := New(3)
	for _, n := range []int{1, 2, 3, 7, 100, 1 << 20} {
		for i := 0; i < 200; i++ {
			v := r.IntN(n)
			if v < 0 || v >= n {
				t.Fatalf("IntN(%d) = %d out of range", n, v)
			}
		}
	}
}

func TestIntNPanicsOnNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("IntN(0) did not panic")
		}
	}()
	New(1).IntN(0)
}

func TestIntNUniformity(t *testing.T) {
	// Chi-squared check over 10 buckets; threshold is the 0.999 quantile
	// of chi2 with 9 dof (27.88) to keep the test robust.
	r := New(5)
	const n, draws = 10, 100000
	counts := make([]int, n)
	for i := 0; i < draws; i++ {
		counts[r.IntN(n)]++
	}
	expected := float64(draws) / n
	chi2 := 0.0
	for _, c := range counts {
		d := float64(c) - expected
		chi2 += d * d / expected
	}
	if chi2 > 27.88 {
		t.Fatalf("IntN uniformity chi2 = %.2f > 27.88; counts = %v", chi2, counts)
	}
}

func TestFloat64Range(t *testing.T) {
	r := New(11)
	for i := 0; i < 10000; i++ {
		v := r.Float64()
		if v < 0 || v >= 1 {
			t.Fatalf("Float64() = %v out of [0,1)", v)
		}
	}
}

func TestFloat64Mean(t *testing.T) {
	r := New(13)
	sum := 0.0
	const n = 100000
	for i := 0; i < n; i++ {
		sum += r.Float64()
	}
	mean := sum / n
	if math.Abs(mean-0.5) > 0.01 {
		t.Fatalf("Float64 mean = %v, want ~0.5", mean)
	}
}

func TestUniformRange(t *testing.T) {
	r := New(17)
	for i := 0; i < 10000; i++ {
		v := r.Uniform(-3, 12)
		if v < -3 || v >= 12 {
			t.Fatalf("Uniform(-3,12) = %v out of range", v)
		}
	}
}

func TestUniformIntInclusive(t *testing.T) {
	r := New(19)
	sawLo, sawHi := false, false
	for i := 0; i < 10000; i++ {
		v := r.UniformInt(2, 5)
		if v < 2 || v > 5 {
			t.Fatalf("UniformInt(2,5) = %d out of range", v)
		}
		sawLo = sawLo || v == 2
		sawHi = sawHi || v == 5
	}
	if !sawLo || !sawHi {
		t.Fatal("UniformInt never produced an endpoint in 10000 draws")
	}
}

func TestBoolProbabilities(t *testing.T) {
	r := New(23)
	if r.Bool(0) {
		t.Fatal("Bool(0) returned true")
	}
	if !r.Bool(1) {
		t.Fatal("Bool(1) returned false")
	}
	hits := 0
	const n = 100000
	for i := 0; i < n; i++ {
		if r.Bool(0.3) {
			hits++
		}
	}
	p := float64(hits) / n
	if math.Abs(p-0.3) > 0.01 {
		t.Fatalf("Bool(0.3) frequency = %v, want ~0.3", p)
	}
}

func TestLogUniformRangeAndShape(t *testing.T) {
	r := New(37)
	below := 0
	const n = 100000
	for i := 0; i < n; i++ {
		v := r.LogUniform(1, 10000)
		if v < 1 || v > 10000 {
			t.Fatalf("LogUniform out of range: %v", v)
		}
		if v < 100 {
			below++
		}
	}
	// log-uniform over [1,1e4]: P(v<100) = 0.5.
	p := float64(below) / n
	if math.Abs(p-0.5) > 0.01 {
		t.Fatalf("LogUniform median misplaced: P(v<100) = %v, want ~0.5", p)
	}
}

func TestExponentialMean(t *testing.T) {
	r := New(41)
	sum := 0.0
	const n = 200000
	for i := 0; i < n; i++ {
		v := r.Exponential(3)
		if v < 0 {
			t.Fatalf("Exponential returned negative value %v", v)
		}
		sum += v
	}
	mean := sum / n
	if math.Abs(mean-3) > 0.05 {
		t.Fatalf("Exponential mean = %v, want ~3", mean)
	}
}

func TestPermIsPermutation(t *testing.T) {
	r := New(43)
	for _, n := range []int{0, 1, 2, 10, 100} {
		p := r.Perm(n)
		if len(p) != n {
			t.Fatalf("Perm(%d) has length %d", n, len(p))
		}
		seen := make([]bool, n)
		for _, v := range p {
			if v < 0 || v >= n || seen[v] {
				t.Fatalf("Perm(%d) = %v is not a permutation", n, p)
			}
			seen[v] = true
		}
	}
}

func TestPermProperty(t *testing.T) {
	r := New(47)
	f := func(nRaw uint8) bool {
		n := int(nRaw%64) + 1
		p := r.Perm(n)
		sum := 0
		for _, v := range p {
			sum += v
		}
		return sum == n*(n-1)/2
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestShuffleSwapsAllPositions(t *testing.T) {
	r := New(53)
	const n = 52
	orig := make([]int, n)
	cur := make([]int, n)
	for i := range orig {
		orig[i] = i
		cur[i] = i
	}
	moved := make([]bool, n)
	for trial := 0; trial < 50; trial++ {
		copy(cur, orig)
		r.Shuffle(n, func(i, j int) { cur[i], cur[j] = cur[j], cur[i] })
		for i := range cur {
			if cur[i] != orig[i] {
				moved[i] = true
			}
		}
	}
	for i, m := range moved {
		if !m {
			t.Fatalf("position %d never moved across 50 shuffles", i)
		}
	}
}

func TestUint64NBoundary(t *testing.T) {
	r := New(61)
	for i := 0; i < 1000; i++ {
		if v := r.Uint64N(1); v != 0 {
			t.Fatalf("Uint64N(1) = %d, want 0", v)
		}
	}
}

func BenchmarkUint64(b *testing.B) {
	r := New(1)
	for i := 0; i < b.N; i++ {
		_ = r.Uint64()
	}
}

func BenchmarkIntN(b *testing.B) {
	r := New(1)
	for i := 0; i < b.N; i++ {
		_ = r.IntN(1000)
	}
}

func BenchmarkSplit(b *testing.B) {
	r := New(1)
	for i := 0; i < b.N; i++ {
		_ = r.Split("bench")
	}
}

func TestUniformPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Uniform(hi<lo) did not panic")
		}
	}()
	New(1).Uniform(2, 1)
}

func TestUniformIntPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("UniformInt(hi<lo) did not panic")
		}
	}()
	New(1).UniformInt(2, 1)
}

func TestExponentialPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Exponential(0) did not panic")
		}
	}()
	New(1).Exponential(0)
}

func TestLogUniformPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("LogUniform(0,1) did not panic")
		}
	}()
	New(1).LogUniform(0, 1)
}

func TestUint64NPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Uint64N(0) did not panic")
		}
	}()
	New(1).Uint64N(0)
}
