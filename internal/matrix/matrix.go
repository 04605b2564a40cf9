package matrix

import (
	"fmt"
	"math"
	"strings"
)

// Dense is a row-major dense matrix of float64 values.
type Dense struct {
	rows, cols int
	data       []float64 // len == rows*cols, row-major
}

// NewDense returns a zero-valued rows×cols matrix. It panics if either
// dimension is negative.
func NewDense(rows, cols int) *Dense {
	if rows < 0 || cols < 0 {
		panic("matrix: NewDense with negative dimension")
	}
	return &Dense{rows: rows, cols: cols, data: make([]float64, rows*cols)}
}

// FromRows builds a matrix from a slice of equally long rows. It panics if
// the rows are ragged.
func FromRows(rows [][]float64) *Dense {
	r := len(rows)
	if r == 0 {
		return NewDense(0, 0)
	}
	c := len(rows[0])
	m := NewDense(r, c)
	for i, row := range rows {
		if len(row) != c {
			panic(fmt.Sprintf("matrix: FromRows row %d has %d entries, want %d", i, len(row), c))
		}
		copy(m.data[i*c:(i+1)*c], row)
	}
	return m
}

// Rows returns the number of rows.
func (m *Dense) Rows() int { return m.rows }

// Cols returns the number of columns.
func (m *Dense) Cols() int { return m.cols }

// At returns the element at row i, column j.
func (m *Dense) At(i, j int) float64 {
	m.check(i, j)
	return m.data[i*m.cols+j]
}

// Set assigns v to the element at row i, column j.
func (m *Dense) Set(i, j int, v float64) {
	m.check(i, j)
	m.data[i*m.cols+j] = v
}

// Add adds v to the element at row i, column j.
func (m *Dense) Add(i, j int, v float64) {
	m.check(i, j)
	m.data[i*m.cols+j] += v
}

func (m *Dense) check(i, j int) {
	if i < 0 || i >= m.rows || j < 0 || j >= m.cols {
		panic(fmt.Sprintf("matrix: index (%d,%d) out of bounds for %dx%d matrix", i, j, m.rows, m.cols))
	}
}

// Row returns a copy of row i.
func (m *Dense) Row(i int) []float64 {
	if i < 0 || i >= m.rows {
		panic(fmt.Sprintf("matrix: row %d out of bounds for %dx%d matrix", i, m.rows, m.cols))
	}
	out := make([]float64, m.cols)
	copy(out, m.data[i*m.cols:(i+1)*m.cols])
	return out
}

// Col returns a copy of column j.
func (m *Dense) Col(j int) []float64 {
	if j < 0 || j >= m.cols {
		panic(fmt.Sprintf("matrix: col %d out of bounds for %dx%d matrix", j, m.rows, m.cols))
	}
	out := make([]float64, m.rows)
	for i := 0; i < m.rows; i++ {
		out[i] = m.data[i*m.cols+j]
	}
	return out
}

// Clone returns a deep copy of the matrix.
func (m *Dense) Clone() *Dense {
	out := NewDense(m.rows, m.cols)
	copy(out.data, m.data)
	return out
}

// Transpose returns a new matrix that is the transpose of m.
func (m *Dense) Transpose() *Dense {
	out := NewDense(m.cols, m.rows)
	for i := 0; i < m.rows; i++ {
		for j := 0; j < m.cols; j++ {
			out.data[j*m.rows+i] = m.data[i*m.cols+j]
		}
	}
	return out
}

// MulVec computes y = A·x for a square or rectangular A; x must have length
// Cols. The result has length Rows.
func (m *Dense) MulVec(x []float64) []float64 {
	if len(x) != m.cols {
		panic(fmt.Sprintf("matrix: MulVec with len(x)=%d, want %d", len(x), m.cols))
	}
	y := make([]float64, m.rows)
	for i := 0; i < m.rows; i++ {
		row := m.data[i*m.cols : (i+1)*m.cols]
		s := 0.0
		for j, a := range row {
			s += a * x[j]
		}
		y[i] = s
	}
	return y
}

// TMulVec computes y = Aᵀ·x without materializing the transpose into a
// freshly allocated y of length Cols; x must have length Rows. See
// TMulVecTo, the power-method kernel x^{q+1} = Aᵀ x^q (eq. 5 of the paper).
func (m *Dense) TMulVec(x []float64) []float64 {
	y := make([]float64, m.cols)
	m.TMulVecTo(y, x)
	return y
}

// TMulVecTo computes dst = Aᵀ·x, overwriting dst; dst must have length
// Cols, x length Rows, and the two must not share memory.
func (m *Dense) TMulVecTo(dst, x []float64) {
	checkTMulVecTo(m.rows, m.cols, dst, x)
	clear(dst)
	for i := 0; i < m.rows; i++ {
		xi := x[i]
		if xi == 0 {
			continue
		}
		row := m.data[i*m.cols : (i+1)*m.cols]
		for j, a := range row {
			dst[j] += a * xi
		}
	}
}

// Mul returns the matrix product A·B. It panics on dimension mismatch.
func (m *Dense) Mul(b *Dense) *Dense {
	if m.cols != b.rows {
		panic(fmt.Sprintf("matrix: Mul dimension mismatch %dx%d · %dx%d", m.rows, m.cols, b.rows, b.cols))
	}
	out := NewDense(m.rows, b.cols)
	for i := 0; i < m.rows; i++ {
		for k := 0; k < m.cols; k++ {
			a := m.data[i*m.cols+k]
			if a == 0 {
				continue
			}
			brow := b.data[k*b.cols : (k+1)*b.cols]
			orow := out.data[i*b.cols : (i+1)*b.cols]
			for j, bv := range brow {
				orow[j] += a * bv
			}
		}
	}
	return out
}

// Scale multiplies every element in place by s and returns m for chaining.
func (m *Dense) Scale(s float64) *Dense {
	for i := range m.data {
		m.data[i] *= s
	}
	return m
}

// RowSums returns the vector of per-row sums.
func (m *Dense) RowSums() []float64 {
	out := make([]float64, m.rows)
	for i := 0; i < m.rows; i++ {
		s := 0.0
		for _, v := range m.data[i*m.cols : (i+1)*m.cols] {
			s += v
		}
		out[i] = s
	}
	return out
}

// NormalizeRows scales each row in place so it sums to 1. Rows whose sum is
// zero (no outgoing trust) are replaced according to fallback: if uniform is
// true the row becomes the uniform distribution 1/cols (the standard
// stochastic-matrix "dangling node" fix); otherwise it is left all-zero,
// producing a substochastic matrix. Returns the indices of the rows that
// were zero.
func (m *Dense) NormalizeRows(uniform bool) []int {
	var zeroRows []int
	for i := 0; i < m.rows; i++ {
		row := m.data[i*m.cols : (i+1)*m.cols]
		s := 0.0
		for _, v := range row {
			s += v
		}
		if s == 0 {
			zeroRows = append(zeroRows, i)
			if uniform && m.cols > 0 {
				u := 1 / float64(m.cols)
				for j := range row {
					row[j] = u
				}
			}
			continue
		}
		// Divide directly rather than multiplying by 1/s: for subnormal
		// sums the reciprocal overflows to +Inf, turning a tiny-but-valid
		// trust row into Inf/NaN. v/s with 0 ≤ v ≤ s is always in [0,1].
		for j := range row {
			row[j] /= s
		}
	}
	return zeroRows
}

// NNZ returns the number of nonzero elements. Unlike CSR, Dense does not
// track this incrementally; the count is an O(rows·cols) scan.
func (m *Dense) NNZ() int {
	c := 0
	for _, v := range m.data {
		if v != 0 {
			c++
		}
	}
	return c
}

// Submatrix returns the matrix induced by keeping the given row/column
// indices, in the given order. It panics if idx contains an out-of-range or
// duplicate index. The receiver must be square (trust matrices always are).
// The result is always a *Dense; the Matrix return type satisfies the
// format-agnostic interface.
func (m *Dense) Submatrix(idx []int) Matrix {
	if m.rows != m.cols {
		panic("matrix: Submatrix requires a square matrix")
	}
	seen := make(map[int]bool, len(idx))
	for _, v := range idx {
		if v < 0 || v >= m.rows {
			panic(fmt.Sprintf("matrix: Submatrix index %d out of range [0,%d)", v, m.rows))
		}
		if seen[v] {
			panic(fmt.Sprintf("matrix: Submatrix duplicate index %d", v))
		}
		seen[v] = true
	}
	out := NewDense(len(idx), len(idx))
	for i, ri := range idx {
		for j, cj := range idx {
			out.data[i*len(idx)+j] = m.data[ri*m.cols+cj]
		}
	}
	return out
}

// Equal reports whether m and b have identical shape and all elements are
// within tol of each other.
func (m *Dense) Equal(b *Dense, tol float64) bool {
	if m.rows != b.rows || m.cols != b.cols {
		return false
	}
	for i, v := range m.data {
		if math.Abs(v-b.data[i]) > tol {
			return false
		}
	}
	return true
}

// String renders the matrix for debugging.
func (m *Dense) String() string {
	var sb strings.Builder
	for i := 0; i < m.rows; i++ {
		sb.WriteString("[")
		for j := 0; j < m.cols; j++ {
			if j > 0 {
				sb.WriteString(" ")
			}
			fmt.Fprintf(&sb, "%.4g", m.data[i*m.cols+j])
		}
		sb.WriteString("]\n")
	}
	return sb.String()
}

// Identity returns the n×n identity matrix.
func Identity(n int) *Dense {
	m := NewDense(n, n)
	for i := 0; i < n; i++ {
		m.data[i*n+i] = 1
	}
	return m
}
