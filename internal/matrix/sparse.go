package matrix

import (
	"fmt"
	"math"
	"math/bits"
	"sort"
	"sync"
)

// CSR is a compressed-sparse-row matrix: row i's entries live at positions
// rowPtr[i] .. rowPtr[i+1] of colIdx/val, with strictly ascending column
// indices inside each row. The ascending-column invariant is load-bearing:
// it makes every accumulation visit entries in the same order a dense
// row-major traversal would. Trust matrices hold non-negative values, so
// the skipped zero terms never change a partial sum (x + 0 == x bitwise
// for x ≥ 0), and the results are bitwise identical to that dense
// traversal, the oracle the tests pin the kernels to.
//
// Column indices are int32, so an entry costs 12 bytes (4 + 8) and the
// kernels, which are memory-bound, stream a third less than with int
// indices. Every constructor therefore rejects more than MaxCSRCols
// columns. rowPtr stays int, so the entry count is not capped.
type CSR struct {
	rows, cols int
	rowPtr     []int   // len rows+1
	colIdx     []int32 // len nnz
	val        []float64

	// tmu guards tcache, the lazily built transposed row-banded layout
	// backing TMulVec on wide matrices. The cache never changes the
	// numbers — only memory locality — and is dropped by NormalizeRows,
	// the only operation that changes the values.
	tmu    sync.Mutex
	tcache *cscBands
}

// MaxCSRCols is the largest column count a CSR can hold: column indices
// are stored as int32.
const MaxCSRCols = math.MaxInt32

// checkCSRDims panics, naming the constructor, when rows or cols is
// negative or cols exceeds MaxCSRCols.
func checkCSRDims(ctor string, rows, cols int) {
	if rows < 0 || cols < 0 {
		panic(fmt.Sprintf("matrix: %s with negative dimension", ctor))
	}
	if cols > MaxCSRCols {
		panic(fmt.Sprintf("matrix: %s with %d columns, above the int32 column-index bound %d", ctor, cols, MaxCSRCols))
	}
}

// NewCSRRaw wraps pre-built CSR slices without copying: rowPtr must have
// length rows+1, start at 0, end at len(val), and be nondecreasing; colIdx
// must be strictly ascending within each row with in-range columns; colIdx
// and val must have equal length. The caller relinquishes ownership of the
// slices. Validation is O(nnz) and panics on violation, since a malformed
// structure would silently break the bitwise-identity contract. It also
// panics if cols exceeds MaxCSRCols.
func NewCSRRaw(rows, cols int, rowPtr []int, colIdx []int32, val []float64) *CSR {
	checkCSRShape("NewCSRRaw", rows, cols, rowPtr, colIdx, val)
	for i := 0; i < rows; i++ {
		if rowPtr[i+1] < rowPtr[i] {
			panic("matrix: NewCSRRaw with decreasing rowPtr")
		}
		for k := rowPtr[i]; k < rowPtr[i+1]; k++ {
			if colIdx[k] < 0 || int(colIdx[k]) >= cols {
				panic(fmt.Sprintf("matrix: NewCSRRaw column %d out of range [0,%d)", colIdx[k], cols))
			}
			if k > rowPtr[i] && colIdx[k] <= colIdx[k-1] {
				panic(fmt.Sprintf("matrix: NewCSRRaw row %d columns not strictly ascending", i))
			}
		}
	}
	return &CSR{rows: rows, cols: cols, rowPtr: rowPtr, colIdx: colIdx, val: val}
}

// NewCSRUnchecked wraps pre-built CSR slices like NewCSRRaw but checks only
// the O(1) shape (dimensions, slice lengths, first and last row pointer),
// not the O(nnz) ordering and range of every column. The caller must
// guarantee NewCSRRaw's preconditions; a malformed structure silently
// breaks the bitwise-identity contract. It exists for callers whose own
// invariants already guarantee the structure and whose output tests pin
// against NewCSRRaw, such as trust.Graph's one-pass normalization, where a
// second O(nnz) pass over the columns would be pure overhead.
func NewCSRUnchecked(rows, cols int, rowPtr []int, colIdx []int32, val []float64) *CSR {
	checkCSRShape("NewCSRUnchecked", rows, cols, rowPtr, colIdx, val)
	return &CSR{rows: rows, cols: cols, rowPtr: rowPtr, colIdx: colIdx, val: val}
}

// checkCSRShape panics, naming the constructor, unless the dimensions are
// valid and the slice lengths and end pointers fit a rows×cols CSR.
func checkCSRShape(ctor string, rows, cols int, rowPtr []int, colIdx []int32, val []float64) {
	checkCSRDims(ctor, rows, cols)
	if len(rowPtr) != rows+1 || rowPtr[0] != 0 || rowPtr[rows] != len(val) || len(colIdx) != len(val) {
		panic(fmt.Sprintf("matrix: %s with inconsistent structure", ctor))
	}
}

// Rows returns the number of rows.
func (m *CSR) Rows() int { return m.rows }

// Cols returns the number of columns.
func (m *CSR) Cols() int { return m.cols }

// NNZ returns the number of stored entries.
func (m *CSR) NNZ() int { return len(m.val) }

// At returns the element at row i, column j (0 when no entry is stored).
func (m *CSR) At(i, j int) float64 {
	if i < 0 || i >= m.rows || j < 0 || j >= m.cols {
		panic(fmt.Sprintf("matrix: index (%d,%d) out of bounds for %dx%d matrix", i, j, m.rows, m.cols))
	}
	lo, hi := m.rowPtr[i], m.rowPtr[i+1]
	row := m.colIdx[lo:hi]
	c := int32(j)
	k := sort.Search(len(row), func(p int) bool { return row[p] >= c })
	if k < len(row) && row[k] == c {
		return m.val[lo+k]
	}
	return 0
}

// tmulBandRows is the row-band height of the cache-blocked TMulVec path:
// 1<<15 source slots = 256 KiB of x per band, sized to stay L2-resident.
// tmulBandThreshold gates the blocked path to matrices whose output
// vector overflows that budget — below it the simple row sweep is faster
// and the transposed side structure is not worth building.
const (
	tmulBandRows      = 1 << 15
	tmulBandThreshold = 1 << 17
)

// cscBands is a transposed copy of a CSR's entries grouped into row
// bands: band b holds the entries of rows [b·tmulBandRows,
// (b+1)·tmulBandRows), sorted by (column, row) and packed as
// key = column<<16 | rowOffsetWithinBand. Within a band, TMulVec reads x
// only inside the band's 256 KiB window and writes y in ascending column
// order — both cache-friendly — while every output slot y[j] still
// receives its contributions in globally ascending row order (bands
// ascend, rows ascend within a band), i.e. exactly the dense row-sweep
// order. The blocked product is therefore bitwise identical to the
// simple path for every input, not merely close.
type cscBands struct {
	bandPtr []int // band b entries occupy [bandPtr[b], bandPtr[b+1])
	key     []uint64
	val     []float64
}

// tBands returns the lazily built transposed layout, constructing it on
// first use. The per-band sort is an LSD radix over the column bytes —
// stable, so the CSR's ascending-row entry order survives per column —
// chosen over a counting sort across all columns because its 256-bucket
// passes write sequentially (a whole-column scatter would repeat the very
// cache behavior this structure exists to avoid). O(nnz · colBytes) time,
// O(nnz) extra memory.
func (m *CSR) tBands() *cscBands {
	m.tmu.Lock()
	defer m.tmu.Unlock()
	if m.tcache != nil {
		return m.tcache
	}
	nnz := len(m.val)
	nb := (m.rows + tmulBandRows - 1) / tmulBandRows
	t := &cscBands{
		bandPtr: make([]int, nb+1),
		key:     make([]uint64, nnz),
		val:     make([]float64, nnz),
	}
	// Rows are stored in ascending order, so each band's entries are
	// already contiguous in the CSR arrays.
	maxBand := 0
	for b := 0; b < nb; b++ {
		hiRow := (b + 1) * tmulBandRows
		if hiRow > m.rows {
			hiRow = m.rows
		}
		t.bandPtr[b+1] = m.rowPtr[hiRow]
		if l := t.bandPtr[b+1] - t.bandPtr[b]; l > maxBand {
			maxBand = l
		}
	}
	colBits := bits.Len(uint(m.cols - 1))
	ks := make([]uint64, maxBand)
	vs := make([]float64, maxBand)
	var count [256]int
	for b := 0; b < nb; b++ {
		lo, hi := t.bandPtr[b], t.bandPtr[b+1]
		n := hi - lo
		if n == 0 {
			continue
		}
		base := b * tmulBandRows
		hiRow := base + tmulBandRows
		if hiRow > m.rows {
			hiRow = m.rows
		}
		p := lo
		for i := base; i < hiRow; i++ {
			off := uint64(i - base)
			for k := m.rowPtr[i]; k < m.rowPtr[i+1]; k++ {
				t.key[p] = uint64(m.colIdx[k])<<16 | off
				t.val[p] = m.val[k]
				p++
			}
		}
		src, sv := t.key[lo:hi], t.val[lo:hi]
		dst, dv := ks[:n], vs[:n]
		for shift := 0; shift < colBits; shift += 8 {
			s := uint(16 + shift)
			count = [256]int{}
			for _, k := range src {
				count[(k>>s)&0xff]++
			}
			run := 0
			for c := 0; c < 256; c++ {
				cc := count[c]
				count[c] = run
				run += cc
			}
			for idx, k := range src {
				c := (k >> s) & 0xff
				dst[count[c]] = k
				dv[count[c]] = sv[idx]
				count[c]++
			}
			src, dst = dst, src
			sv, dv = dv, sv
		}
		if &src[0] != &t.key[lo] {
			copy(t.key[lo:hi], src)
			copy(t.val[lo:hi], sv)
		}
	}
	m.tcache = t
	return t
}

// invalidateT drops the transposed cache after an in-place mutation.
func (m *CSR) invalidateT() {
	m.tmu.Lock()
	m.tcache = nil
	m.tmu.Unlock()
}

// TMulVec computes y = Aᵀ·x without materializing the transpose into a
// freshly allocated y; x must have length Rows. See TMulVecTo.
func (m *CSR) TMulVec(x []float64) []float64 {
	y := make([]float64, m.cols)
	m.TMulVecTo(y, x)
	return y
}

// TMulVecTo computes dst = Aᵀ·x, overwriting dst; dst must have length
// Cols, x length Rows, and the two must not share memory. Rows are visited
// in ascending order and entries within a row in ascending column order,
// the accumulation order of a dense row sweep, so results are bitwise
// identical to it.
func (m *CSR) TMulVecTo(dst, x []float64) {
	checkTMulVecTo(m.rows, m.cols, dst, x)
	clear(dst)
	if m.cols >= tmulBandThreshold {
		t := m.tBands()
		for b := 0; b+1 < len(t.bandPtr); b++ {
			base := b * tmulBandRows
			for p := t.bandPtr[b]; p < t.bandPtr[b+1]; p++ {
				k := t.key[p]
				xi := x[base+int(k&0xffff)]
				if xi == 0 {
					continue
				}
				dst[k>>16] += t.val[p] * xi
			}
		}
		return
	}
	for i := 0; i < m.rows; i++ {
		xi := x[i]
		if xi == 0 {
			continue
		}
		// Slicing the row first lets the compiler drop the bounds checks on
		// colIdx and val; only the scattered dst[j] keeps one.
		lo, hi := m.rowPtr[i], m.rowPtr[i+1]
		cols, vals := m.colIdx[lo:hi], m.val[lo:hi]
		for k, j := range cols {
			dst[j] += vals[k] * xi
		}
	}
}

// checkTMulVecTo panics unless dst and x fit a rows×cols TMulVecTo and
// do not start at the same element (dst is cleared before x is read).
func checkTMulVecTo(rows, cols int, dst, x []float64) {
	if len(x) != rows {
		panic(fmt.Sprintf("matrix: TMulVec with len(x)=%d, want %d", len(x), rows))
	}
	if len(dst) != cols {
		panic(fmt.Sprintf("matrix: TMulVecTo with len(dst)=%d, want %d", len(dst), cols))
	}
	if len(dst) > 0 && len(x) > 0 && &dst[0] == &x[0] {
		panic("matrix: TMulVecTo with dst aliasing x")
	}
}

// NormalizeRows scales each row in place so it sums to 1 and returns the
// indices of the rows whose sum was zero. When uniform is true, zero rows
// are MATERIALIZED as explicit full rows of 1/cols entries — the structure
// is rebuilt so the patched rows participate in every later traversal at
// their natural position, keeping TMulVec bitwise identical to the dense
// dangling fix. Dangling rows are rare in trust graphs (a GSP with no
// outgoing trust), so the extra cols entries per patched row are cheap.
//
// Nonzero rows divide by the sum directly rather
// than multiplying by its reciprocal: for subnormal sums 1/s overflows to
// +Inf, while v/s with 0 ≤ v ≤ s is always in [0,1].
func (m *CSR) NormalizeRows(uniform bool) []int {
	m.invalidateT() // values change in place; drop the transposed cache
	var zeroRows []int
	for i := 0; i < m.rows; i++ {
		s := 0.0
		for k := m.rowPtr[i]; k < m.rowPtr[i+1]; k++ {
			s += m.val[k]
		}
		if s == 0 {
			zeroRows = append(zeroRows, i)
			continue
		}
		for k := m.rowPtr[i]; k < m.rowPtr[i+1]; k++ {
			m.val[k] /= s
		}
	}
	if !uniform || len(zeroRows) == 0 || m.cols == 0 {
		return zeroRows
	}
	// Rebuild with the zero rows patched to explicit uniform rows. A row
	// with a zero sum can still hold entries (explicit zeros, or values
	// cancelling to zero never occur here since weights are non-negative);
	// those entries are replaced wholesale, mirroring the dense overwrite.
	u := 1 / float64(m.cols)
	zeroSet := make(map[int]bool, len(zeroRows))
	kept := 0
	for _, i := range zeroRows {
		zeroSet[i] = true
	}
	for i := 0; i < m.rows; i++ {
		if !zeroSet[i] {
			kept += m.rowPtr[i+1] - m.rowPtr[i]
		}
	}
	nnz := kept + len(zeroRows)*m.cols
	rowPtr := make([]int, m.rows+1)
	colIdx := make([]int32, 0, nnz)
	val := make([]float64, 0, nnz)
	for i := 0; i < m.rows; i++ {
		if zeroSet[i] {
			for j := 0; j < m.cols; j++ {
				colIdx = append(colIdx, int32(j))
				val = append(val, u)
			}
		} else {
			colIdx = append(colIdx, m.colIdx[m.rowPtr[i]:m.rowPtr[i+1]]...)
			val = append(val, m.val[m.rowPtr[i]:m.rowPtr[i+1]]...)
		}
		rowPtr[i+1] = len(colIdx)
	}
	m.rowPtr, m.colIdx, m.val = rowPtr, colIdx, val
	return zeroRows
}

// String renders the matrix for debugging.
func (m *CSR) String() string {
	return fmt.Sprintf("matrix.CSR{%dx%d, nnz=%d}", m.rows, m.cols, len(m.val))
}
