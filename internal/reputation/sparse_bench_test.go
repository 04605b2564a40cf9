package reputation

import (
	"testing"

	"gridvo/internal/trust"
	"gridvo/internal/xrand"
)

// These benchmarks track the sparse-substrate scaling claim (DESIGN §13):
// a power-method solve on a mean-degree-20 Erdős–Rényi graph is O(nnz)
// per iteration and a million nodes converge in single-digit seconds.
// cmd/benchjson -sparse runs the full measured sweep; these are the quick
// in-tree checks.

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

// BenchmarkStoreDeltaResolve64k is the in-tree twin of perfbench's
// trust-delta workload: each op applies one 256-edge delta batch to a
// 65,536-node, mean-degree-20 trust.Store and re-solves warm, as gridvod's
// POST /v1/trust/delta does with solve:true. Batches are drawn outside the
// timer.
func BenchmarkStoreDeltaResolve64k(b *testing.B) {
	const n, degree, batch = 65536, 20, 256
	rng := xrand.New(42)
	g := trust.SparseErdosRenyi(rng.Split("graph"), n, degree)
	edges := g.Edges()
	seed := make([]trust.DeltaOp, len(edges))
	for k, e := range edges {
		seed[k] = trust.DeltaOp{From: e.From, To: e.To, Weight: e.Weight}
	}
	st := trust.NewStore(0)
	if _, err := st.ApplyDelta(n, seed); err != nil {
		b.Fatal(err)
	}
	solve := func(g *trust.Graph, warm []float64) (trust.SolveResult, error) {
		x, d, err := Global(g, Options{DanglingUniform: true, InitialVector: warm})
		return trust.SolveResult{Scores: x, Iterations: d.Iterations, Converged: d.Converged, Warm: d.Warm}, err
	}
	if res, _, err := st.Resolve(solve); err != nil || !res.Converged {
		b.Fatalf("cold solve: converged=%v err=%v", res.Converged, err)
	}
	brng := rng.Split("batches")
	iters := 0
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		ops := deltaBatch(brng, g, batch)
		b.StartTimer()
		if _, err := st.ApplyDelta(0, ops); err != nil {
			b.Fatal(err)
		}
		res, _, err := st.Resolve(solve)
		if err != nil || !res.Converged || !res.Warm {
			b.Fatalf("warm solve: converged=%v warm=%v err=%v", res.Converged, res.Warm, err)
		}
		iters += res.Iterations
	}
	b.ReportMetric(float64(iters)/float64(b.N), "iters/op")
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
