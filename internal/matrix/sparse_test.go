package matrix

import (
	"math"
	"strconv"
	"strings"
	"testing"

	"gridvo/internal/xrand"
)

// randomDense builds a rows×cols matrix with the given fill density and
// non-negative weights, mirroring what trust graphs feed the pipeline.
func randomDense(rng *xrand.RNG, rows, cols int, density float64) *Dense {
	m := NewDense(rows, cols)
	for i := 0; i < rows; i++ {
		for j := 0; j < cols; j++ {
			if rng.Bool(density) {
				m.Set(i, j, 1-rng.Float64())
			}
		}
	}
	return m
}

func bitsEqual(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

func TestCSRRoundTrip(t *testing.T) {
	rng := xrand.New(7)
	for _, density := range []float64{0, 0.05, 0.3, 0.9, 1} {
		d := randomDense(rng, 9, 9, density)
		c := CSRFromDense(d)
		if c.NNZ() != d.NNZ() {
			t.Fatalf("density %v: NNZ %d != %d", density, c.NNZ(), d.NNZ())
		}
		back := c.Dense()
		if !back.Equal(d, 0) {
			t.Fatalf("density %v: round trip mismatch", density)
		}
		for i := 0; i < d.Rows(); i++ {
			for j := 0; j < d.Cols(); j++ {
				if math.Float64bits(c.At(i, j)) != math.Float64bits(d.At(i, j)) {
					t.Fatalf("At(%d,%d) = %v want %v", i, j, c.At(i, j), d.At(i, j))
				}
			}
		}
	}
}

func TestCSRMulVecBitwise(t *testing.T) {
	rng := xrand.New(11)
	for trial := 0; trial < 50; trial++ {
		rows, cols := 1+rng.IntN(12), 1+rng.IntN(12)
		d := randomDense(rng, rows, cols, rng.Float64())
		c := CSRFromDense(d)
		x := make([]float64, cols)
		for i := range x {
			x[i] = rng.Float64()
		}
		if !bitsEqual(d.MulVec(x), c.MulVec(x)) {
			t.Fatalf("trial %d: MulVec differs", trial)
		}
		xt := make([]float64, rows)
		for i := range xt {
			// Mix in exact zeros to exercise the skip path on both sides.
			if rng.Bool(0.3) {
				xt[i] = 0
			} else {
				xt[i] = rng.Float64()
			}
		}
		if !bitsEqual(d.TMulVec(xt), c.TMulVec(xt)) {
			t.Fatalf("trial %d: TMulVec differs", trial)
		}
		// TMulVecTo overwrites whatever dst held.
		for _, m := range []Matrix{d, c} {
			dst := make([]float64, cols)
			for j := range dst {
				dst[j] = math.NaN()
			}
			m.TMulVecTo(dst, xt)
			if !bitsEqual(dst, d.TMulVec(xt)) {
				t.Fatalf("trial %d: %T.TMulVecTo differs from TMulVec", trial, m)
			}
		}
		if !bitsEqual(d.RowSums(), c.RowSums()) {
			t.Fatalf("trial %d: RowSums differs", trial)
		}
	}
}

func TestCSRNormalizeRowsBitwise(t *testing.T) {
	rng := xrand.New(13)
	for _, uniform := range []bool{false, true} {
		for trial := 0; trial < 40; trial++ {
			n := 1 + rng.IntN(10)
			d := randomDense(rng, n, n, rng.Float64()*0.6) // sparse enough for zero rows
			c := CSRFromDense(d)
			zd := d.NormalizeRows(uniform)
			zc := c.NormalizeRows(uniform)
			if len(zd) != len(zc) {
				t.Fatalf("zero-row lists differ: %v vs %v", zd, zc)
			}
			for i := range zd {
				if zd[i] != zc[i] {
					t.Fatalf("zero-row lists differ: %v vs %v", zd, zc)
				}
			}
			for i := 0; i < n; i++ {
				for j := 0; j < n; j++ {
					if math.Float64bits(d.At(i, j)) != math.Float64bits(c.At(i, j)) {
						t.Fatalf("uniform=%v trial %d: At(%d,%d) %v != %v",
							uniform, trial, i, j, d.At(i, j), c.At(i, j))
					}
				}
			}
			// The uniform patch must be materialized so TMulVec sees it.
			x := make([]float64, n)
			for i := range x {
				x[i] = rng.Float64()
			}
			if !bitsEqual(d.TMulVec(x), c.TMulVec(x)) {
				t.Fatalf("uniform=%v trial %d: post-normalize TMulVec differs", uniform, trial)
			}
		}
	}
}

// TestCSRNormalizeSubnormal ports the PR 4 regression: a row whose sum is
// subnormal must normalize by direct division, not reciprocal multiply.
func TestCSRNormalizeSubnormal(t *testing.T) {
	tiny := math.SmallestNonzeroFloat64
	d := FromRows([][]float64{{tiny, tiny}, {0, 1}})
	c := CSRFromDense(d)
	c.NormalizeRows(true)
	for j := 0; j < 2; j++ {
		v := c.At(0, j)
		if math.IsInf(v, 0) || math.IsNaN(v) || v < 0 || v > 1 {
			t.Fatalf("subnormal row normalized to %v at col %d", v, j)
		}
	}
	if s := c.At(0, 0) + c.At(0, 1); math.Abs(s-1) > 1e-9 {
		t.Fatalf("subnormal row sums to %v, want 1", s)
	}
}

func TestCSRNormalizeUniformMaterializes(t *testing.T) {
	c := CSRFromDense(FromRows([][]float64{{0, 0, 0}, {1, 2, 1}, {0, 0, 0}}))
	zero := c.NormalizeRows(true)
	if len(zero) != 2 || zero[0] != 0 || zero[1] != 2 {
		t.Fatalf("zero rows = %v, want [0 2]", zero)
	}
	if c.NNZ() != 3+2*3 {
		t.Fatalf("NNZ = %d after materializing uniform rows, want 9", c.NNZ())
	}
	u := 1.0 / 3
	for _, i := range []int{0, 2} {
		for j := 0; j < 3; j++ {
			if c.At(i, j) != u {
				t.Fatalf("At(%d,%d) = %v, want %v", i, j, c.At(i, j), u)
			}
		}
	}
}

func TestCSRSubmatrixBitwise(t *testing.T) {
	rng := xrand.New(17)
	for trial := 0; trial < 30; trial++ {
		n := 2 + rng.IntN(10)
		d := randomDense(rng, n, n, rng.Float64())
		c := CSRFromDense(d)
		k := 1 + rng.IntN(n)
		idx := rng.Perm(n)[:k]
		sd := d.Submatrix(idx).(*Dense)
		sc := c.Submatrix(idx).(*CSR)
		if !sc.Dense().Equal(sd, 0) {
			t.Fatalf("trial %d: Submatrix(%v) differs", trial, idx)
		}
	}
}

func TestCSRSubmatrixPanics(t *testing.T) {
	c := CSRFromDense(FromRows([][]float64{{1, 2}, {3, 4}}))
	for i, idx := range [][]int{{0, 0}, {5}, {-1}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("case %d: Submatrix(%v) did not panic", i, idx)
				}
			}()
			c.Submatrix(idx)
		}()
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("Submatrix on non-square CSR did not panic")
			}
		}()
		NewCSR(2, 3).Submatrix([]int{0})
	}()
}

func TestBuilder(t *testing.T) {
	b := NewBuilder(3, 3)
	// Out-of-order insertion with a duplicate; (2,1) = 0.5 + 0.25.
	b.Add(2, 1, 0.5)
	b.Add(0, 2, 1)
	b.Add(2, 1, 0.25)
	b.Add(1, 0, 2)
	b.Add(2, 0, 3)
	c := b.Build()
	want := FromRows([][]float64{{0, 0, 1}, {2, 0, 0}, {3, 0.75, 0}})
	if !c.Dense().Equal(want, 0) {
		t.Fatalf("Build =\n%v want\n%v", c.Dense(), want)
	}
	if c.NNZ() != 4 {
		t.Fatalf("NNZ = %d, want 4", c.NNZ())
	}
}

func TestBuilderDeterministicMerge(t *testing.T) {
	// Duplicate merge must sum in insertion order: with floats, order
	// changes bits. Two builders with identical insertion order must agree
	// bit for bit.
	vals := []float64{0.1, 0.7, 1e-17, 0.3}
	mk := func() *CSR {
		b := NewBuilder(1, 1)
		for _, v := range vals {
			b.Add(0, 0, v)
		}
		return b.Build()
	}
	if math.Float64bits(mk().At(0, 0)) != math.Float64bits(mk().At(0, 0)) {
		t.Fatal("duplicate merge is not deterministic")
	}
}

func TestBuilderPanics(t *testing.T) {
	b := NewBuilder(2, 2)
	defer func() {
		if recover() == nil {
			t.Fatal("Add out of range did not panic")
		}
	}()
	b.Add(2, 0, 1)
}

func TestRowNonZeros(t *testing.T) {
	d := FromRows([][]float64{{0, 5, 0, 7}, {0, 0, 0, 0}})
	c := CSRFromDense(d)
	for _, m := range []Matrix{d, c} {
		var cols []int
		var vals []float64
		RowNonZeros(m, 0, func(j int, v float64) {
			cols = append(cols, j)
			vals = append(vals, v)
		})
		if len(cols) != 2 || cols[0] != 1 || cols[1] != 3 || vals[0] != 5 || vals[1] != 7 {
			t.Fatalf("%T RowNonZeros = %v %v", m, cols, vals)
		}
		count := 0
		RowNonZeros(m, 1, func(int, float64) { count++ })
		if count != 0 {
			t.Fatalf("%T RowNonZeros on empty row visited %d entries", m, count)
		}
	}
}

func TestTMulVecToPanics(t *testing.T) {
	d := FromRows([][]float64{{1, 2}, {3, 4}})
	c := CSRFromDense(d)
	for _, m := range []Matrix{d, c} {
		x := []float64{1, 1}
		for name, dst := range map[string][]float64{"short dst": make([]float64, 1), "aliased dst": x} {
			func() {
				defer func() {
					if recover() == nil {
						t.Fatalf("%T.TMulVecTo with %s did not panic", m, name)
					}
				}()
				m.TMulVecTo(dst, x)
			}()
		}
	}
}

// TestCSRColumnBoundPanics pins the int32 column-index bound: every CSR
// constructor rejects more than MaxCSRCols columns, naming itself, before
// allocating anything column-sized.
func TestCSRColumnBoundPanics(t *testing.T) {
	if strconv.IntSize < 64 {
		t.Skip("int cannot exceed the int32 bound")
	}
	over := int(int64(MaxCSRCols) + 1)
	for name, build := range map[string]func(){
		"NewCSR":          func() { NewCSR(1, over) },
		"NewCSRRaw":       func() { NewCSRRaw(0, over, []int{0}, nil, nil) },
		"NewCSRUnchecked": func() { NewCSRUnchecked(0, over, []int{0}, nil, nil) },
		"NewBuilder":      func() { NewBuilder(1, over) },
		"CSRFromDense":    func() { CSRFromDense(NewDense(0, over)) },
		"Submatrix":       func() { (&CSR{rows: over, cols: over}).Submatrix([]int{0}) },
	} {
		func() {
			defer func() {
				msg, _ := recover().(string)
				if !strings.Contains(msg, name) || !strings.Contains(msg, "int32 column-index bound") {
					t.Fatalf("%s with %d columns: panic %q, want one naming %s and the int32 bound", name, over, msg, name)
				}
			}()
			build()
		}()
	}
	// The bound itself is accepted.
	if c := NewCSR(1, MaxCSRCols); c.Cols() != MaxCSRCols {
		t.Fatalf("NewCSR(1, MaxCSRCols) has %d columns", c.Cols())
	}
	NewBuilder(1, MaxCSRCols)
}

func TestCSRAtPanics(t *testing.T) {
	c := NewCSR(2, 2)
	defer func() {
		if recover() == nil {
			t.Fatal("At out of range did not panic")
		}
	}()
	c.At(0, 2)
}

// TestCSRTMulVecBandedBitwise pins the cache-blocked TMulVec path (wide
// matrices) to the reference row-sweep order bit for bit: banding may
// change memory locality, never arithmetic order.
func TestCSRTMulVecBandedBitwise(t *testing.T) {
	rows, cols := 60, tmulBandThreshold+12345
	rng := xrand.New(7)
	b := NewBuilder(rows, cols)
	for i := 0; i < rows; i++ {
		for e := 0; e < 400; e++ {
			b.Add(i, rng.IntN(cols), rng.Float64())
		}
	}
	m := b.Build()
	if m.cols < tmulBandThreshold {
		t.Fatalf("matrix too narrow to hit the banded path: %d cols", m.cols)
	}
	x := make([]float64, rows)
	for i := range x {
		x[i] = rng.Normal(0, 1)
	}
	x[3], x[17] = 0, 0 // exercise the zero-row skip inside bands
	got := m.TMulVec(x)
	// Reference: the simple row sweep, the order dense uses.
	want := make([]float64, cols)
	for i := 0; i < rows; i++ {
		xi := x[i]
		if xi == 0 {
			continue
		}
		for k := m.rowPtr[i]; k < m.rowPtr[i+1]; k++ {
			want[m.colIdx[k]] += m.val[k] * xi
		}
	}
	for j := range want {
		if math.Float64bits(got[j]) != math.Float64bits(want[j]) {
			t.Fatalf("col %d: banded %v != reference %v", j, got[j], want[j])
		}
	}
}
