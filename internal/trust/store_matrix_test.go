package trust

import (
	"math"
	"reflect"
	"slices"
	"strings"
	"sync"
	"testing"

	"gridvo/internal/matrix"
	"gridvo/internal/xrand"
)

// storeModel drives a Store through a command stream and checks, at every
// solve, that the store's patched matrix is bitwise the one
// Graph.Normalized builds from scratch. The property test feeds it random
// commands and FuzzStoreNormalized arbitrary ones.
type storeModel struct {
	t       *testing.T
	s       *Store
	pending []DeltaOp
	// Counts of what the stream exercised, for the property test's
	// coverage check.
	solves, patched, grown, rejected, dangled int
}

// maxModelNodes bounds the model's graph so every command stays cheap.
const maxModelNodes = 24

// modelWeights are the weights commands pick from: a subnormal, exact
// and inexact fractions, weights above 1, and one large enough that a
// few of them overflow the row sum to +Inf.
var modelWeights = [8]float64{math.SmallestNonzeroFloat64, 0.1, 0.25, 1, 1.0 / 3, 2.5, 7, 1e308}

func newStoreModel(t *testing.T, n int) *storeModel {
	return &storeModel{t: t, s: NewStore(n)}
}

// step runs one command. cmd selects it; a, b and w are its operands.
func (m *storeModel) step(cmd, a, b, w byte) {
	s := m.s
	n := s.g.N()
	switch cmd % 8 {
	case 0, 1, 2: // insert or re-weight an edge
		m.pending = append(m.pending, DeltaOp{From: int(a) % n, To: int(b) % n, Weight: modelWeights[w%8]})
	case 3: // delete an existing edge of row a
		i := int(a) % n
		if row := s.g.adj[i]; len(row) > 0 {
			m.pending = append(m.pending, DeltaOp{From: i, To: row[int(b)%len(row)].to})
		}
	case 4: // clear row a, which leaves it dangling
		i := int(a) % n
		for _, e := range s.g.adj[i] {
			m.pending = append(m.pending, DeltaOp{From: i, To: e.to})
		}
	case 5: // apply the pending batch, sometimes growing n with it
		size := 0
		if a%4 == 0 && n < maxModelNodes {
			size = min(n+int(b)%3+1, maxModelNodes)
		}
		m.apply(size)
	case 6: // a batch rejected by its last op changes nothing
		before, touched := s.Stats(), slices.Clone(s.touched)
		bad := DeltaOp{From: int(a) % n, To: n + int(b)%3}
		if w%2 == 0 {
			bad = DeltaOp{From: int(a) % n, To: int(b) % n, Weight: math.NaN()}
		}
		if _, err := s.ApplyDelta(0, append(m.pending, bad)); err == nil {
			m.t.Fatalf("batch ending in %+v accepted", bad)
		}
		if after := s.Stats(); after != before || !slices.Equal(s.touched, touched) {
			m.t.Fatalf("rejected batch changed the store: stats %+v -> %+v, touched %v -> %v", before, after, touched, s.touched)
		}
		m.pending = m.pending[:0]
		m.rejected++
	case 7: // apply, sometimes solve on the graph first, then check
		m.apply(0)
		if a%2 == 0 {
			touched := slices.Clone(s.touched)
			if _, _, err := s.Resolve(func(g *Graph, warm []float64) (SolveResult, error) {
				return SolveResult{Iterations: 1}, nil
			}); err != nil {
				m.t.Fatal(err)
			}
			if !slices.Equal(s.touched, touched) {
				m.t.Fatalf("Resolve changed the touched rows: %v -> %v", touched, s.touched)
			}
		}
		m.check()
	}
}

// apply sends the pending batch, growing the store to size when it is
// above the current node count.
func (m *storeModel) apply(size int) {
	if size > m.s.g.N() {
		m.grown++
	}
	if _, err := m.s.ApplyDelta(size, m.pending); err != nil {
		m.t.Fatal(err)
	}
	m.pending = m.pending[:0]
}

// check solves through ResolveNormalized and compares the matrix and its
// dangling rows with Graph.Normalized's, bit for bit.
func (m *storeModel) check() {
	s := m.s
	if len(s.touched) > 0 && s.patchable() {
		m.patched++
	}
	_, _, err := s.ResolveNormalized(func(got *matrix.CSR, dangling []int, warm []float64) (SolveResult, error) {
		want, wantDangling := s.g.Normalized(NormalizeOptions{DanglingUniform: true})
		if !m.sameMatrix(got, want) {
			m.t.Fatalf("store matrix %v differs from Normalized %v on %v", got, want, s.g.Edges())
		}
		if !slices.Equal(dangling, wantDangling) {
			m.t.Fatalf("dangling rows %v, want %v", dangling, wantDangling)
		}
		if len(dangling) > 0 {
			m.dangled++
		}
		return SolveResult{Iterations: 1}, nil
	})
	if err != nil {
		m.t.Fatal(err)
	}
	m.solves++
}

// sameMatrix reports whether got, the store's matrix, and want have the
// same row pointers, columns and value bits. DeepEqual compares the
// unexported slices; the walk over the store's entries then compares the
// bits of each value, which == alone would not (it equates +0 and -0).
func (m *storeModel) sameMatrix(got, want *matrix.CSR) bool {
	if !reflect.DeepEqual(got, want) {
		return false
	}
	a := m.s.a
	for i := 0; i+1 < len(a.rowPtr); i++ {
		for k := a.rowPtr[i]; k < a.rowPtr[i+1]; k++ {
			if math.Float64bits(a.val[k]) != math.Float64bits(want.At(i, int(a.colIdx[k]))) {
				return false
			}
		}
	}
	return true
}

// TestStoreNormalizedMatchesNormalized is the oracle for the store's
// patched matrix: random command streams mix inserts, deletions,
// re-weightings, growth, rows going dangling and back, empty and
// rejected batches, and Resolve calls, applying one or more batches
// between solves, and after each the matrix must be bitwise
// Graph.Normalized's.
func TestStoreNormalizedMatchesNormalized(t *testing.T) {
	var total storeModel
	for seed := uint64(1); seed <= 40; seed++ {
		rng := xrand.New(seed)
		m := newStoreModel(t, 1+rng.IntN(8))
		for k := 0; k < 400; k++ {
			m.step(byte(rng.IntN(256)), byte(rng.IntN(256)), byte(rng.IntN(256)), byte(rng.IntN(256)))
		}
		m.step(7, 1, 0, 0)
		total.solves += m.solves
		total.patched += m.patched
		total.grown += m.grown
		total.rejected += m.rejected
		total.dangled += m.dangled
	}
	t.Logf("%d solves, %d patched, %d growths, %d rejected, %d dangling", total.solves, total.patched, total.grown, total.rejected, total.dangled)
	if total.patched == 0 || total.grown == 0 || total.rejected == 0 || total.dangled == 0 || total.patched == total.solves {
		t.Fatalf("the streams missed a case: %d solves, %d patched, %d growths, %d rejected batches, %d with dangling rows",
			total.solves, total.patched, total.grown, total.rejected, total.dangled)
	}
}

// FuzzStoreNormalized runs the same oracle on arbitrary command streams:
// four bytes per command, the first byte of the input sizing the store.
func FuzzStoreNormalized(f *testing.F) {
	f.Add([]byte{3, 0, 0, 1, 2, 7, 0, 0, 0, 0, 1, 2, 3, 7, 1, 0, 0})
	f.Add([]byte{2, 0, 0, 1, 1, 4, 0, 0, 0, 7, 0, 0, 0, 5, 0, 2, 0, 7, 1, 0, 0})
	f.Add([]byte{4, 0, 0, 1, 7, 0, 1, 2, 7, 6, 1, 1, 0, 7, 0, 0, 0, 3, 0, 0, 0, 7, 1, 0, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		m := newStoreModel(t, 1+int(data[0])%8)
		for data = data[1:]; len(data) >= 4; data = data[4:] {
			m.step(data[0], data[1], data[2], data[3])
		}
		m.step(7, 1, 0, 0)
	})
}

// TestStoreNormalizedRefusesOversizedMatrix: both the first build and a
// patch that would turn enough rows dangling to pass MaxEntries are
// refused with CheckEntries' error before a buffer grows, and the store
// patches correctly once the rows regain edges.
func TestStoreNormalizedRefusesOversizedMatrix(t *testing.T) {
	solve := func(a *matrix.CSR, dangling []int, warm []float64) (SolveResult, error) {
		return SolveResult{}, nil
	}
	if _, _, err := NewStore(100000).ResolveNormalized(solve); err == nil || !strings.Contains(err.Error(), "above the limit") {
		t.Fatalf("edgeless 1e5-node store solved: err=%v", err)
	}

	// Cutting a 9000-node ring leaves 9000 dangling rows of 9000 entries,
	// 8.1e7 > 2^26 in all.
	const n = 9000
	ring := make([]DeltaOp, n)
	cut := make([]DeltaOp, n)
	for i := range ring {
		ring[i] = DeltaOp{From: i, To: (i + 1) % n, Weight: 1}
		cut[i] = DeltaOp{From: i, To: (i + 1) % n}
	}
	m := newStoreModel(t, n)
	m.pending = ring
	m.step(7, 1, 0, 0)
	if _, err := m.s.ApplyDelta(0, cut); err != nil {
		t.Fatal(err)
	}
	_, _, err := m.s.ResolveNormalized(solve)
	if err == nil || !strings.Contains(err.Error(), "above the limit") {
		t.Fatalf("patch to %d entries accepted: err=%v", n*n, err)
	}
	if c := cap(m.s.a.val) + cap(m.s.spare.val); c > 2*n {
		t.Fatalf("the refused patch grew the buffers to %d entries", c)
	}
	m.pending = ring
	m.step(7, 1, 0, 0)
	if m.patched != 1 {
		t.Fatalf("%d patched solves, want the one after the refusal", m.patched)
	}
}

// TestStoreConcurrentDeltasAndSolves: batches, matrix solves, graph
// solves and stats from several goroutines at once share the store's
// buffers only under its lock (run it with -race), and the matrix still
// equals Normalized's afterwards.
func TestStoreConcurrentDeltasAndSolves(t *testing.T) {
	const n, workers, rounds = 64, 4, 50
	m := newStoreModel(t, n)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(rng *xrand.RNG) {
			defer wg.Done()
			for k := 0; k < rounds; k++ {
				ops := make([]DeltaOp, 8)
				for i := range ops {
					ops[i] = DeltaOp{From: rng.IntN(n), To: rng.IntN(n), Weight: modelWeights[rng.IntN(4)]}
				}
				if _, err := m.s.ApplyDelta(0, ops); err != nil {
					t.Error(err)
					return
				}
				_, _, err := m.s.ResolveNormalized(func(a *matrix.CSR, dangling []int, warm []float64) (SolveResult, error) {
					x := make([]float64, n)
					for i := 0; i < n; i++ {
						for j := 0; j < n; j++ {
							x[j] += a.At(i, j)
						}
					}
					return SolveResult{Scores: x, Iterations: 1, Converged: true, Warm: warm != nil}, nil
				})
				if err != nil {
					t.Error(err)
					return
				}
				m.s.Resolve(func(g *Graph, warm []float64) (SolveResult, error) { return SolveResult{}, nil })
				m.s.Stats()
			}
		}(xrand.New(uint64(w + 1)))
	}
	wg.Wait()
	m.step(7, 1, 0, 0)
	if st := m.s.Stats(); st.Solves != 2*workers*rounds+1 || st.Version != workers*rounds+1 {
		t.Fatalf("stats after the concurrent run: %+v", st)
	}
}

// BenchmarkNormalized64k and BenchmarkStoreNormalizedPatch64k compare the
// two ways to the eq. 1 matrix of a 65,536-node, mean-degree-20 graph
// after a 256-edge batch: a fresh build, and the store's patch of the
// touched rows into its spare buffer. The batch is applied outside the
// timer.
func BenchmarkNormalized64k(b *testing.B) {
	g := SparseErdosRenyi(xrand.New(42), 65536, 20)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchSink, _ = g.Normalized(NormalizeOptions{DanglingUniform: true})
	}
}

// benchSink keeps the compiler from dropping a benchmarked build.
var benchSink *matrix.CSR

func BenchmarkStoreNormalizedPatch64k(b *testing.B) {
	const n = 65536
	rng := xrand.New(42)
	s := NewStore(n)
	s.g = SparseErdosRenyi(rng.Split("graph"), n, 20)
	noop := func(a *matrix.CSR, dangling []int, warm []float64) (SolveResult, error) { return SolveResult{}, nil }
	brng := rng.Split("batches")
	batch := func() []DeltaOp {
		ops := make([]DeltaOp, 256)
		for k := range ops {
			ops[k] = DeltaOp{From: brng.IntN(n), To: brng.IntN(n), Weight: 1 - brng.Float64()}
		}
		return ops
	}
	for i := 0; i < 2; i++ { // the first build, then the spare buffer's
		if _, err := s.ApplyDelta(0, batch()); err != nil {
			b.Fatal(err)
		}
		s.ResolveNormalized(noop)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		if _, err := s.ApplyDelta(0, batch()); err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		s.ResolveNormalized(noop)
	}
}
