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
// negatives, and zero rows — through the trust-matrix boundary. The
// contract under fuzzing: trust.FromMatrix either rejects the matrix with
// an explicit error or accepts it, and an accepted matrix normalizes to a
// row-stochastic matrix (eq. 1) and yields a finite, L1-normalized global
// reputation vector (eq. 6). No input may panic or produce NaN, and
// trust's one-pass CSR normalization must match the two-pass reference
// bit for bit.
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
	ring := make([]byte, 0, 9*8)
	for _, v := range []float64{0, 0.8, 0, 0, 0, 0.6, 0.4, 0, 0} {
		var b [8]byte
		binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
		ring = append(ring, b[:]...)
	}
	f.Add(uint8(3), ring)

	f.Fuzz(func(t *testing.T, nRaw uint8, data []byte) {
		n := int(nRaw%8) + 1 // 1..8 GSPs keeps every iteration cheap
		w := matrix.NewDense(n, n)
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				idx := (i*n + j) * 8
				var v float64
				if idx+8 <= len(data) {
					v = math.Float64frombits(binary.LittleEndian.Uint64(data[idx : idx+8]))
				}
				w.Set(i, j, v)
			}
		}

		g, err := trust.FromMatrix(w)
		if err != nil {
			return // explicit rejection is the correct outcome for bad bits
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

		scores, _, err := Global(g, Options{MaxIter: 500, DanglingUniform: true})
		if err != nil {
			return // explicit rejection is acceptable; silent NaN is not
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

		// Format parity: normalizing the same weights through the CSR path
		// must agree with the dense path entry for entry, and the full
		// solve must agree bit for bit. Graph construction already dropped
		// explicit zeros, so both representations hold identical nonzeros.
		gd, gc := g.Clone(), g.Clone()
		gd.SetFormat(trust.FormatDense)
		gc.SetFormat(trust.FormatCSR)
		ad, zd := gd.Normalized(trust.NormalizeOptions{DanglingUniform: true})
		ac, zc := gc.Normalized(trust.NormalizeOptions{DanglingUniform: true})
		if len(zd) != len(zc) {
			t.Fatalf("dangling lists differ: %v vs %v", zd, zc)
		}
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				if math.Float64bits(ad.At(i, j)) != math.Float64bits(ac.At(i, j)) {
					t.Fatalf("normalized (%d,%d): dense %v != csr %v", i, j, ad.At(i, j), ac.At(i, j))
				}
			}
		}
		// The one-pass CSR build matches the two-pass reference bit for
		// bit in both dangling modes, also after growth adds empty rows.
		grown := gc.Clone()
		grown.Grow(n + int(nRaw/8)%3)
		for _, g := range []*trust.Graph{gc, grown} {
			for _, uniform := range []bool{true, false} {
				got, gotZ := g.Normalized(trust.NormalizeOptions{DanglingUniform: uniform})
				want, wantZ := twoPassNormalized(g, uniform)
				if !reflect.DeepEqual(got, want) || !reflect.DeepEqual(gotZ, wantZ) {
					t.Fatalf("n=%d uniform=%v: one-pass %v (dangling %v) differs from two-pass %v (dangling %v)",
						g.N(), uniform, got, gotZ, want, wantZ)
				}
			}
		}

		sd, dd, errD := Global(gd, Options{MaxIter: 500, DanglingUniform: true})
		sc, dc, errC := Global(gc, Options{MaxIter: 500, DanglingUniform: true})
		if (errD == nil) != (errC == nil) {
			t.Fatalf("format-dependent error: dense=%v csr=%v", errD, errC)
		}
		if errD == nil {
			if dd.Iterations != dc.Iterations || dd.Converged != dc.Converged ||
				math.Float64bits(dd.Delta) != math.Float64bits(dc.Delta) {
				t.Fatalf("diagnostics differ: dense %+v csr %+v", dd, dc)
			}
			for i := range sd {
				if math.Float64bits(sd[i]) != math.Float64bits(sc[i]) {
					t.Fatalf("score[%d]: dense %v != csr %v", i, sd[i], sc[i])
				}
			}
		}
	})
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
