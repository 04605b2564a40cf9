package matrix

import (
	"math"
	"strconv"
	"strings"
	"testing"
	"testing/quick"

	"gridvo/internal/xrand"
)

// The CSR kernels are checked against a dense oracle written on
// [][]float64 in this file: the row-major sweeps a dense matrix would run,
// visiting rows in ascending order and columns in ascending order inside
// each row. Every kernel must match the oracle bit for bit, not merely
// approximately.

// randomRows builds a rows×cols weight table with the given fill density
// and non-negative weights, mirroring what trust graphs feed the pipeline.
func randomRows(rng *xrand.RNG, rows, cols int, density float64) [][]float64 {
	out := make([][]float64, rows)
	for i := range out {
		out[i] = make([]float64, cols)
		for j := range out[i] {
			if rng.Bool(density) {
				out[i][j] = 1 - rng.Float64()
			}
		}
	}
	return out
}

// csrFromRows stores the nonzero entries of a rows×cols table as a CSR.
func csrFromRows(cols int, rows [][]float64) *CSR {
	rowPtr := make([]int, len(rows)+1)
	var colIdx []int32
	var val []float64
	for i, row := range rows {
		for j, v := range row {
			if v != 0 {
				colIdx = append(colIdx, int32(j))
				val = append(val, v)
			}
		}
		rowPtr[i+1] = len(val)
	}
	return NewCSRRaw(len(rows), cols, rowPtr, colIdx, val)
}

// tmul returns Aᵀ·x in a fresh slice.
func tmul(m *CSR, x []float64) []float64 {
	y := make([]float64, m.Cols())
	m.TMulVecTo(y, x)
	return y
}

// denseTMulVec is the oracle for TMulVecTo: y = Aᵀ·x as a row sweep.
func denseTMulVec(rows [][]float64, cols int, x []float64) []float64 {
	y := make([]float64, cols)
	for i, row := range rows {
		for j, a := range row {
			y[j] += a * x[i]
		}
	}
	return y
}

// denseNormalizeRows is the oracle for NormalizeRows: each row divided by
// its sum, zero rows replaced by 1/cols when uniform.
func denseNormalizeRows(rows [][]float64, uniform bool) []int {
	var zero []int
	for i, row := range rows {
		s := 0.0
		for _, v := range row {
			s += v
		}
		if s == 0 {
			zero = append(zero, i)
			if uniform {
				for j := range row {
					row[j] = 1 / float64(len(row))
				}
			}
			continue
		}
		for j := range row {
			row[j] /= s
		}
	}
	return zero
}

// assertMatchesRows fails unless every entry of c equals the table bit
// for bit.
func assertMatchesRows(t *testing.T, label string, c *CSR, rows [][]float64) {
	t.Helper()
	for i, row := range rows {
		for j, v := range row {
			if math.Float64bits(c.At(i, j)) != math.Float64bits(v) {
				t.Fatalf("%s: At(%d,%d) = %v, want %v", label, i, j, c.At(i, j), v)
			}
		}
	}
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
		rows := randomRows(rng, 9, 9, density)
		c := csrFromRows(9, rows)
		nnz := 0
		for _, row := range rows {
			for _, v := range row {
				if v != 0 {
					nnz++
				}
			}
		}
		if c.NNZ() != nnz || c.Rows() != 9 || c.Cols() != 9 {
			t.Fatalf("density %v: %v, want 9x9 with %d entries", density, c, nnz)
		}
		assertMatchesRows(t, "round trip", c, rows)
	}
}

func TestCSRMulVecBitwise(t *testing.T) {
	rng := xrand.New(11)
	for trial := 0; trial < 50; trial++ {
		rows, cols := 1+rng.IntN(12), 1+rng.IntN(12)
		d := randomRows(rng, rows, cols, rng.Float64())
		c := csrFromRows(cols, d)
		x := make([]float64, rows)
		for i := range x {
			// Mix in exact zeros to exercise the skip path.
			if !rng.Bool(0.3) {
				x[i] = rng.Float64()
			}
		}
		want := denseTMulVec(d, cols, x)
		if !bitsEqual(tmul(c, x), want) {
			t.Fatalf("trial %d: TMulVecTo differs from the dense row sweep", trial)
		}
		// TMulVecTo overwrites whatever dst held.
		dst := make([]float64, cols)
		for j := range dst {
			dst[j] = math.NaN()
		}
		c.TMulVecTo(dst, x)
		if !bitsEqual(dst, want) {
			t.Fatalf("trial %d: TMulVecTo differs from the dense row sweep", trial)
		}
	}
}

func TestTMulVecMatchesExplicitTranspose(t *testing.T) {
	rng := xrand.New(1)
	for trial := 0; trial < 50; trial++ {
		r, c := rng.UniformInt(1, 8), rng.UniformInt(1, 8)
		d := make([][]float64, r)
		for i := range d {
			d[i] = make([]float64, c)
			for j := range d[i] {
				d[i][j] = rng.Uniform(-5, 5)
			}
		}
		x := make([]float64, r)
		for i := range x {
			x[i] = rng.Uniform(-5, 5)
		}
		got := tmul(csrFromRows(c, d), x)
		// Column j of A is row j of Aᵀ: a dot product per output slot.
		want := make([]float64, c)
		for j := range want {
			for i := 0; i < r; i++ {
				want[j] += d[i][j] * x[i]
			}
		}
		for j := range want {
			if math.Abs(got[j]-want[j]) > 1e-12 {
				t.Fatalf("trial %d: TMulVecTo = %v, want %v", trial, got, want)
			}
		}
	}
}

func TestCSRNormalizeRowsBitwise(t *testing.T) {
	rng := xrand.New(13)
	for _, uniform := range []bool{false, true} {
		for trial := 0; trial < 40; trial++ {
			n := 1 + rng.IntN(10)
			d := randomRows(rng, n, n, rng.Float64()*0.6) // sparse enough for zero rows
			c := csrFromRows(n, d)
			zd := denseNormalizeRows(d, uniform)
			zc := c.NormalizeRows(uniform)
			if len(zd) != len(zc) {
				t.Fatalf("zero-row lists differ: %v vs %v", zd, zc)
			}
			for i := range zd {
				if zd[i] != zc[i] {
					t.Fatalf("zero-row lists differ: %v vs %v", zd, zc)
				}
			}
			assertMatchesRows(t, "uniform="+strconv.FormatBool(uniform), c, d)
			// The uniform patch must be materialized so TMulVecTo sees it.
			x := make([]float64, n)
			for i := range x {
				x[i] = rng.Float64()
			}
			if !bitsEqual(tmul(c, x), denseTMulVec(d, n, x)) {
				t.Fatalf("uniform=%v trial %d: post-normalize TMulVecTo differs", uniform, trial)
			}
		}
	}
}

func TestNormalizeRowsStochastic(t *testing.T) {
	m := csrFromRows(2, [][]float64{{2, 2}, {0, 0}, {1, 3}})
	zero := m.NormalizeRows(true)
	if len(zero) != 1 || zero[0] != 1 {
		t.Fatalf("zero rows = %v, want [1]", zero)
	}
	for i := 0; i < 3; i++ {
		if s := m.At(i, 0) + m.At(i, 1); math.Abs(s-1) > 1e-12 {
			t.Fatalf("row %d sums to %v after normalization", i, s)
		}
	}
	if m.At(1, 0) != 0.5 || m.At(1, 1) != 0.5 {
		t.Fatalf("dangling row not uniform: [%v %v]", m.At(1, 0), m.At(1, 1))
	}
}

func TestNormalizeRowsSubstochastic(t *testing.T) {
	m := csrFromRows(2, [][]float64{{2, 2}, {0, 0}})
	m.NormalizeRows(false)
	if m.At(1, 0) != 0 || m.At(1, 1) != 0 || m.NNZ() != 2 {
		t.Fatal("substochastic mode must leave zero rows zero")
	}
}

func TestNormalizeRowsProperty(t *testing.T) {
	rng := xrand.New(3)
	f := func(nRaw uint8) bool {
		n := int(nRaw%10) + 1
		d := make([][]float64, n)
		for i := range d {
			d[i] = make([]float64, n)
			for j := range d[i] {
				if rng.Bool(0.5) {
					d[i][j] = rng.Uniform(0, 10)
				}
			}
		}
		m := csrFromRows(n, d)
		m.NormalizeRows(true)
		for i := 0; i < n; i++ {
			s := 0.0
			for j := 0; j < n; j++ {
				s += m.At(i, j)
			}
			if math.Abs(s-1) > 1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestCSRNormalizeSubnormal ports the PR 4 regression: a row whose sum is
// subnormal must normalize by direct division, not reciprocal multiply.
func TestCSRNormalizeSubnormal(t *testing.T) {
	tiny := math.SmallestNonzeroFloat64
	c := csrFromRows(2, [][]float64{{tiny, tiny}, {0, 1}})
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
	c := csrFromRows(3, [][]float64{{0, 0, 0}, {1, 2, 1}, {0, 0, 0}})
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

func TestTMulVecToPanics(t *testing.T) {
	c := csrFromRows(2, [][]float64{{1, 2}, {3, 4}})
	x := []float64{1, 1}
	for name, dst := range map[string][]float64{"short dst": make([]float64, 1), "aliased dst": x} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("TMulVecTo with %s did not panic", name)
				}
			}()
			c.TMulVecTo(dst, x)
		}()
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
		"NewCSRRaw":       func() { NewCSRRaw(0, over, []int{0}, nil, nil) },
		"NewCSRUnchecked": func() { NewCSRUnchecked(0, over, []int{0}, nil, nil) },
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
	if c := NewCSRRaw(1, MaxCSRCols, []int{0, 0}, nil, nil); c.Cols() != MaxCSRCols {
		t.Fatalf("NewCSRRaw(1, MaxCSRCols) has %d columns", c.Cols())
	}
}

func TestOutOfBoundsPanics(t *testing.T) {
	c := csrFromRows(2, [][]float64{{1, 0}, {0, 1}})
	cases := []func(){
		func() { c.At(2, 0) },
		func() { c.At(0, -1) },
		func() { c.At(-1, 0) },
		func() { NewCSRRaw(-1, 2, []int{0}, nil, nil) },
		func() { NewCSRRaw(2, 2, []int{0, 1}, []int32{0}, []float64{1}) },
		func() { NewCSRRaw(1, 2, []int{0, 1}, []int32{2}, []float64{1}) },
	}
	for i, f := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("case %d did not panic", i)
				}
			}()
			f()
		}()
	}
}

func TestCSRAtPanics(t *testing.T) {
	c := NewCSRRaw(2, 2, []int{0, 0, 0}, nil, nil)
	defer func() {
		if recover() == nil {
			t.Fatal("At out of range did not panic")
		}
	}()
	c.At(0, 2)
}

func TestStringRendering(t *testing.T) {
	s := csrFromRows(2, [][]float64{{1, 2}}).String()
	if s != "matrix.CSR{1x2, nnz=2}" {
		t.Fatalf("String() = %q", s)
	}
}
