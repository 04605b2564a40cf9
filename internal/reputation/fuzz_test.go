package reputation

import (
	"encoding/binary"
	"math"
	"reflect"
	"testing"

	"gridvo/internal/matrix"
	"gridvo/internal/trust"
)

// FuzzTrustNormalize feeds arbitrary bit patterns — including NaN, ±Inf,
// negatives, and zero rows — through the trust-matrix boundary. Invalid
// weights are the input validators' to reject (SetTrust panics on them);
// every valid weight table must normalize to a row-stochastic matrix
// (eq. 1) and yield a finite, L1-normalized global reputation vector
// (eq. 6). No input may produce NaN, the CSR pipeline must match the
// dense oracle bit for bit, and trust's one-pass CSR normalization must
// match the two-pass reference bit for bit.
func FuzzTrustNormalize(f *testing.F) {
	f.Add(uint8(3), []byte{})
	f.Add(uint8(1), []byte{0, 0, 0, 0, 0, 0, 0, 0})
	// One NaN weight and one negative weight as seed corpus.
	nan := make([]byte, 8)
	binary.LittleEndian.PutUint64(nan, math.Float64bits(math.NaN()))
	f.Add(uint8(2), nan)
	neg := make([]byte, 8)
	binary.LittleEndian.PutUint64(neg, math.Float64bits(-1.5))
	f.Add(uint8(2), neg)
	// A healthy ring.
	f.Add(uint8(3), weightBytes(0, 0.8, 0, 0, 0, 0.6, 0.4, 0, 0))
	// A dense 4-node table with one dangling row: rows whose weights do
	// not divide exactly, columns that sum several products.
	f.Add(uint8(4), weightBytes(0, 0.3, 0.7, 0.11, 0.9, 0, 0.2, 0.45, 0, 0, 0, 0, 0.6, 0.13, 0.29, 0))

	f.Fuzz(func(t *testing.T, nRaw uint8, data []byte) {
		n := int(nRaw%8) + 1 // 1..8 GSPs keeps every iteration cheap
		w := make([][]float64, n)
		for i := range w {
			w[i] = make([]float64, n)
			for j := range w[i] {
				if idx := (i*n + j) * 8; idx+8 <= len(data) {
					w[i][j] = math.Float64frombits(binary.LittleEndian.Uint64(data[idx : idx+8]))
				}
			}
		}
		g := trust.NewGraph(n)
		for i, row := range w {
			for j, v := range row {
				if v < 0 || math.IsNaN(v) || math.IsInf(v, 0) {
					return // not a trust weight; the validators reject it
				}
				g.SetTrust(i, j, v)
			}
		}
		a, dangling := g.Normalized(trust.NormalizeOptions{DanglingUniform: true})
		for i := 0; i < n; i++ {
			sum := 0.0
			for j := 0; j < n; j++ {
				v := a.At(i, j)
				if math.IsNaN(v) || math.IsInf(v, 0) || v < 0 {
					t.Fatalf("normalized entry (%d,%d) = %v from accepted matrix", i, j, v)
				}
				sum += v
			}
			if math.Abs(sum-1) > 1e-9 {
				t.Fatalf("row %d sums to %v, want 1 (dangling=%v)", i, sum, dangling)
			}
		}

		opts := Options{MaxIter: 500, DanglingUniform: true}
		scores, _, err := Global(g, opts)
		if err != nil {
			t.Fatal(err)
		}
		l1 := 0.0
		for i, x := range scores {
			if math.IsNaN(x) || math.IsInf(x, 0) || x < 0 {
				t.Fatalf("score[%d] = %v from accepted matrix", i, x)
			}
			l1 += x
		}
		if math.Abs(l1-1) > 1e-6 {
			t.Fatalf("global reputation not L1-normalized: sum %v", l1)
		}

		// Oracle parity: the normalized CSR equals eq. 1 on the dense
		// table entry for entry, and the full solve equals the dense power
		// loop bit for bit.
		want, wantZ := denseNormalized(w, true)
		if !reflect.DeepEqual(dangling, wantZ) {
			t.Fatalf("dangling %v, oracle %v", dangling, wantZ)
		}
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				if math.Float64bits(a.At(i, j)) != math.Float64bits(want[i][j]) {
					t.Fatalf("normalized (%d,%d): csr %v != dense oracle %v", i, j, a.At(i, j), want[i][j])
				}
			}
		}
		assertMatchesOracle(t, "fuzz", g, opts)

		// The one-pass CSR build matches the two-pass reference bit for
		// bit in both dangling modes, also after growth adds empty rows.
		grown := g.Clone()
		grown.Grow(n + int(nRaw/8)%3)
		for _, g := range []*trust.Graph{g, grown} {
			for _, uniform := range []bool{true, false} {
				got, gotZ := g.Normalized(trust.NormalizeOptions{DanglingUniform: uniform})
				want, wantZ := twoPassNormalized(g, uniform)
				if !reflect.DeepEqual(got, want) || !reflect.DeepEqual(gotZ, wantZ) {
					t.Fatalf("n=%d uniform=%v: one-pass %v (dangling %v) differs from two-pass %v (dangling %v)",
						g.N(), uniform, got, gotZ, want, wantZ)
				}
			}
		}
	})
}

// weightBytes encodes weights as the little-endian float64 stream the
// fuzz target decodes row by row.
func weightBytes(ws ...float64) []byte {
	out := make([]byte, 0, 8*len(ws))
	for _, v := range ws {
		out = binary.LittleEndian.AppendUint64(out, math.Float64bits(v))
	}
	return out
}

// twoPassNormalized is the reference for trust's one-pass CSR
// normalization: a raw CSR of the weights, validated by NewCSRRaw, then
// NormalizeRows. The values are non-negative and never NaN, so comparing
// the results with reflect.DeepEqual compares them bit for bit.
func twoPassNormalized(g *trust.Graph, uniform bool) (*matrix.CSR, []int) {
	rowPtr := make([]int, g.N()+1)
	colIdx := make([]int32, 0, g.NumEdges())
	val := make([]float64, 0, g.NumEdges())
	for i := 0; i < g.N(); i++ {
		g.VisitNeighbors(i, func(j int, w float64) {
			colIdx = append(colIdx, int32(j))
			val = append(val, w)
		})
		rowPtr[i+1] = len(val)
	}
	a := matrix.NewCSRRaw(g.N(), g.N(), rowPtr, colIdx, val)
	return a, a.NormalizeRows(uniform)
}
