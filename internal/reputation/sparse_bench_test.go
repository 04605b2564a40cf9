package reputation

import (
	"runtime"
	"strconv"
	"testing"

	"gridvo/internal/matrix"
	"gridvo/internal/trust"
	"gridvo/internal/xrand"
)

// These benchmarks track the sparse-substrate scaling claim (DESIGN §13):
// a power-method solve on a mean-degree-20 Erdős–Rényi graph is O(nnz)
// per iteration and a million nodes converge in about two seconds. Every
// size runs the same row-sweep TMulVecTo. BenchmarkGlobalCSR1M holds its
// 20 M-edge graph and allocates about 260 MB per solve, so the CI bench
// smoke leaves it out.

func benchGlobalCSR(b *testing.B, n int) {
	g := trust.SparseErdosRenyi(xrand.New(42), n, 20)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, diag, err := Global(g, DefaultOptions()); err != nil || !diag.Converged {
			b.Fatalf("solve failed: %+v err=%v", diag, err)
		}
	}
}

func BenchmarkGlobalCSR64k(b *testing.B)  { benchGlobalCSR(b, 65536) }
func BenchmarkGlobalCSR256k(b *testing.B) { benchGlobalCSR(b, 262144) }
func BenchmarkGlobalCSR1M(b *testing.B)   { benchGlobalCSR(b, 1_000_000) }

// BenchmarkStoreDeltaResolve64k is the in-tree twin of perfbench's
// trust-delta workload: each op applies one 256-edge delta batch to a
// 65,536-node, mean-degree-20 trust.Store and re-solves warm through
// ResolveNormalized and GlobalMatrix, the calls gridvod's
// POST /v1/trust/delta makes with solve:true. Batches are drawn outside
// the timer. BenchmarkStoreDeltaResolve256k is the same op on a store
// four times as wide, a size no perfbench workload serves.
func BenchmarkStoreDeltaResolve64k(b *testing.B)  { benchStoreDeltaResolve(b, 65536) }
func BenchmarkStoreDeltaResolve256k(b *testing.B) { benchStoreDeltaResolve(b, 262144) }

func benchStoreDeltaResolve(b *testing.B, n int) {
	st, g, brng := seededStore(b, n)
	iters := 0
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		ops := deltaBatch(brng, g, 256)
		b.StartTimer()
		iters += applyAndSolve(b, st, ops)
	}
	b.ReportMetric(float64(iters)/float64(b.N), "iters/op")
}

// seededStore returns a trust.Store holding an n-node, mean-degree-20
// sparse graph with no dangling row after its cold solve, the generated
// graph the batches are drawn against, and the batch stream.
func seededStore(tb testing.TB, n int) (*trust.Store, *trust.Graph, *xrand.RNG) {
	rng := xrand.New(42)
	g := trust.SparseErdosRenyi(rng.Split("graph"), n, 20)
	// A row with no out-edge is dangling: the uniform completion stores it
	// as n entries. Giving every row an edge keeps the matrix at the
	// graph's edge count (the seed-42 graphs already have no empty row).
	for i := 0; i < n; i++ {
		if len(g.Neighbors(i)) == 0 {
			g.SetTrust(i, (i+1)%n, 1)
		}
	}
	edges := g.Edges()
	seed := make([]trust.DeltaOp, len(edges))
	for k, e := range edges {
		seed[k] = trust.DeltaOp{From: e.From, To: e.To, Weight: e.Weight}
	}
	st := trust.NewStore(0)
	if _, err := st.ApplyDelta(n, seed); err != nil {
		tb.Fatal(err)
	}
	if res, _, err := st.ResolveNormalized(storeSolve); err != nil || !res.Converged {
		tb.Fatalf("cold solve: converged=%v err=%v", res.Converged, err)
	}
	return st, g, rng.Split("batches")
}

// storeSolve is the Store callback gridvod's trust-delta handler passes,
// with the default options.
func storeSolve(a *matrix.CSR, dangling []int, warm []float64) (trust.SolveResult, error) {
	x, d, err := GlobalMatrix(a, dangling, Options{InitialVector: warm})
	return trust.SolveResult{Scores: x, Iterations: d.Iterations, Converged: d.Converged, Warm: d.Warm}, err
}

// applyAndSolve applies one batch to st and re-solves it warm, failing tb
// unless the solve converged from the previous vector; it returns the
// iteration count.
func applyAndSolve(tb testing.TB, st *trust.Store, ops []trust.DeltaOp) int {
	if _, err := st.ApplyDelta(0, ops); err != nil {
		tb.Fatal(err)
	}
	res, _, err := st.ResolveNormalized(storeSolve)
	if err != nil || !res.Converged || !res.Warm {
		tb.Fatalf("warm solve: converged=%v warm=%v err=%v", res.Converged, res.Warm, err)
	}
	return res.Iterations
}

// deltaBatch draws size edge updates against g: a third deletions and a
// third re-weightings of existing edges, a third new random edges.
func deltaBatch(rng *xrand.RNG, g *trust.Graph, size int) []trust.DeltaOp {
	n := g.N()
	ops := make([]trust.DeltaOp, 0, size)
	for len(ops) < size {
		i := rng.IntN(n)
		kind := rng.IntN(3)
		if nb := g.Neighbors(i); kind < 2 && len(nb) > 0 {
			w := 0.0
			if kind == 1 {
				w = 1 - rng.Float64()
			}
			ops = append(ops, trust.DeltaOp{From: i, To: nb[rng.IntN(len(nb))], Weight: w})
			continue
		}
		j := rng.IntN(n - 1)
		if j >= i {
			j++
		}
		ops = append(ops, trust.DeltaOp{From: i, To: j, Weight: 1 - rng.Float64()})
	}
	return ops
}

// TestStoreSteadyStateSolveAllocatesNoMatrix: once a fixed-size store has
// patched its matrix, an apply plus warm re-solve allocates the iterate
// vectors and no matrix. Rebuilding the 64k store's matrix per solve
// allocated 17.9 MB; its two buffers are reused instead. The 2¹⁷-node
// input is the narrowest at which TMulVecTo once built a 16 B-per-entry
// transposed copy of the matrix on every solve.
func TestStoreSteadyStateSolveAllocatesNoMatrix(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; alloc accounting is meaningless")
	}
	for _, n := range []int{65536, 1 << 17} {
		t.Run(strconv.Itoa(n), func(t *testing.T) {
			st, g, brng := seededStore(t, n)
			const steps = 4
			batches := make([][]trust.DeltaOp, steps+1)
			for i := range batches {
				batches[i] = deltaBatch(brng, g, 256)
			}
			applyAndSolve(t, st, batches[0]) // the first patched solve sizes the spare buffer
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			for _, ops := range batches[1:] {
				applyAndSolve(t, st, ops)
			}
			runtime.ReadMemStats(&after)
			per := (after.TotalAlloc - before.TotalAlloc) / steps
			t.Logf("%d bytes per apply and solve", per)
			if limit := uint64(6 * 8 * n); per > limit {
				t.Fatalf("a steady-state apply and solve allocates %d bytes, want under %d (six iterate vectors)", per, limit)
			}
		})
	}
}
