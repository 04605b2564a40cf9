package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"runtime"
	"time"

	"gridvo/internal/reputation"
	"gridvo/internal/server"
	"gridvo/internal/trust"
	"gridvo/internal/xrand"
)

// seedChunk is how many edges one seeding request carries; it keeps each
// body well under gridvod's default 8 MiB limit.
const seedChunk = 65536

// trustSetup is one set-up of the trust-delta workload.
type trustSetup struct {
	g *gridvod
	// mirror is the benchmark's own copy of the store's graph.
	mirror  *trust.Graph
	batches [][]trust.DeltaOp
	bodies  [][]byte
	// replay is an in-process store seeded like the server's (traced
	// runs only).
	replay *trust.Store
}

// genBatch draws one delta batch against the initial graph: a third
// deletions and a third re-weightings of existing edges, a third new
// random edges.
func genBatch(rng *xrand.RNG, g *trust.Graph, size int) []trust.DeltaOp {
	n := g.N()
	ops := make([]trust.DeltaOp, 0, size)
	for len(ops) < size {
		i := rng.IntN(n)
		kind := rng.IntN(3)
		nb := g.Neighbors(i)
		if kind < 2 && len(nb) > 0 {
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

// postDelta sends one delta request and decodes the reply.
func postDelta(ctx context.Context, c *client, body []byte) (outcome, *server.TrustDeltaResponse) {
	status, data, err := c.do(ctx, http.MethodPost, "/v1/trust/delta", body)
	if o := classifyHTTP(status, err); o != outcomeOK {
		return o, nil
	}
	var resp server.TrustDeltaResponse
	if err := json.Unmarshal(data, &resp); err != nil {
		return outcomeServerError, nil
	}
	return outcomeOK, &resp
}

// setupTrust generates the graph and the delta batches, boots gridvod,
// seeds its store through POST /v1/trust/delta and runs the cold solve.
func setupTrust(ctx context.Context, rc *runConfig, batches int) (*trustSetup, error) {
	sp := rc.spec
	root := xrand.New(rc.seed).Split("trust-delta")
	st := &trustSetup{mirror: trust.SparseErdosRenyi(root.Split("graph"), sp.Nodes, sp.MeanDegree)}
	brng := root.Split("batches")
	for i := 0; i < batches; i++ {
		ops := genBatch(brng, st.mirror, sp.Batch)
		body, err := json.Marshal(server.TrustDeltaRequest{Edges: ops, Solve: true})
		if err != nil {
			return nil, err
		}
		st.batches = append(st.batches, ops)
		st.bodies = append(st.bodies, body)
	}

	edges := st.mirror.Edges()
	ops := make([]trust.DeltaOp, len(edges))
	for k, e := range edges {
		ops[k] = trust.DeltaOp{From: e.From, To: e.To, Weight: e.Weight}
	}
	g, err := bootGridvod(server.Config{})
	if err != nil {
		return nil, err
	}
	st.g = g
	c := newClient(g.base, 1)
	defer c.close()
	for lo := 0; lo < len(ops) || lo == 0; lo += seedChunk {
		req := server.TrustDeltaRequest{N: sp.Nodes, Edges: ops[lo:min(lo+seedChunk, len(ops))]}
		body, err := json.Marshal(req)
		if err != nil {
			return st, err
		}
		if o, _ := postDelta(ctx, c, body); o != outcomeOK {
			return st, fmt.Errorf("seeding the trust store: %v", o)
		}
	}
	o, resp := postDelta(ctx, c, []byte(`{"solve":true}`))
	if o != outcomeOK || !resp.Solved || !resp.Converged {
		return st, fmt.Errorf("cold solve of the seeded store failed: %v", o)
	}
	if rc.trace {
		st.replay = trust.NewStore(0)
		if _, err := st.replay.ApplyDelta(sp.Nodes, ops); err != nil {
			return st, err
		}
		if _, _, err := st.replay.Resolve(func(g *trust.Graph, warm []float64) (trust.SolveResult, error) {
			x, d, err := reputation.Global(g, reputation.Options{DanglingUniform: true, InitialVector: warm})
			return trust.SolveResult{Scores: x, Iterations: d.Iterations, Converged: d.Converged, Warm: d.Warm}, err
		}); err != nil {
			return st, err
		}
	}
	return st, nil
}

// deltaPhase sends batches [lo, hi) back to back from one publisher and
// checks every reply: solved, converged, and warm.
func deltaPhase(ctx context.Context, c *client, rep *report, st *trustSetup, lo, hi int, tr *tracer) ([]opRecord, []*server.TrustDeltaResponse, []int64) {
	replies := make([]*server.TrustDeltaResponse, hi-lo)
	spans := make([]int64, hi-lo)
	recs := closedLoop(ctx, hi-lo, func(ctx context.Context, i int) outcome {
		if tr != nil {
			spans[i] = tr.begin("driver.request", 0, int64(lo+i+1))
			defer tr.end(spans[i])
		}
		o, resp := postDelta(ctx, c, st.bodies[lo+i])
		if o != outcomeOK {
			return o
		}
		replies[i] = resp
		if !resp.Solved || !resp.Converged || !resp.Warm {
			rep.checkf("delta %d: solved=%v converged=%v warm=%v", lo+i, resp.Solved, resp.Converged, resp.Warm)
			return outcomeCheck
		}
		return outcomeOK
	})
	return recs, replies, spans
}

// finalCheck applies every sent batch to the mirror graph and compares
// the store's scores with a cold reputation.Global on the mirror.
func finalCheck(ctx context.Context, c *client, rep *report, st *trustSetup, sent int) error {
	for _, ops := range st.batches[:sent] {
		for _, op := range ops {
			st.mirror.SetTrust(op.From, op.To, op.Weight)
		}
	}
	o, resp := postDelta(ctx, c, []byte(`{"solve":true,"include_scores":true}`))
	if o != outcomeOK {
		return fmt.Errorf("final solve: %v", o)
	}
	want, diag, err := reputation.Global(st.mirror, reputation.Options{DanglingUniform: true})
	if err != nil {
		return err
	}
	if resp.Stats.Edges != st.mirror.NumEdges() {
		rep.checkf("store has %d edges, mirror %d", resp.Stats.Edges, st.mirror.NumEdges())
	}
	if len(resp.Scores) != len(want) || !diag.Converged {
		rep.checkf("final scores: %d entries (want %d), cold solve converged=%v", len(resp.Scores), len(want), diag.Converged)
		return nil
	}
	l1 := 0.0
	for i := range want {
		l1 += math.Abs(resp.Scores[i] - want[i])
	}
	if l1 > 1e-6 {
		rep.checkf("store scores differ from a cold solve on the mirror graph: L1 distance %.3g", l1)
	}
	rep.notef("final store scores vs cold solve on the mirror: L1 distance %.3g (%d cold iterations)", l1, diag.Iterations)
	return nil
}

// runTrustDelta is the trust-delta workload.
func runTrustDelta(rc *runConfig, rep *report) error {
	ctx := context.Background()
	sp := rc.spec
	k := max(int(sp.RequestsPerSecond*rc.seconds.Seconds()), 2)
	var st *trustSetup
	setups := make([]float64, 0, rc.setupRounds)
	for i := 0; i < rc.setupRounds; i++ {
		if st != nil {
			if err := st.g.stop(); err != nil {
				return err
			}
			st = nil
			runtime.GC()
		}
		var err error
		d := timed(func() { st, err = setupTrust(ctx, rc, k) })
		if err != nil {
			if st != nil && st.g != nil {
				_ = st.g.stop()
			}
			return err
		}
		setups = append(setups, d.Seconds())
	}
	c := newClient(st.g.base, 1)
	defer c.close()
	limit := time.Duration(sp.LatencyLimitMS * float64(time.Millisecond))

	var runErr error
	if !rc.trace {
		rep.set("setup_s", median(setups))
		recs, _, _ := deltaPhase(ctx, c, rep, st, 0, k, nil)
		ls := summarize(recs, limit)
		ls.setEndToEnd(rep, ls.wall)
		runErr = finalCheck(ctx, c, rep, st, k)
		if runErr == nil {
			runErr = setPeakRSS(rep)
		}
	} else {
		runErr = traceTrust(ctx, c, rc, rep, st, k, limit)
	}
	if err := st.g.stop(); runErr == nil {
		runErr = err
	}
	return runErr
}

// traceTrust is the traced trust-delta run: a traced half, replayed layer
// by layer in process, then an untraced half for the overhead.
func traceTrust(ctx context.Context, c *client, rc *runConfig, rep *report, st *trustSetup, k int, limit time.Duration) error {
	half := k / 2
	tr := newTracer()
	trecs, replies, spans := deltaPhase(ctx, c, rep, st, 0, half, tr)
	precs, _, _ := deltaPhase(ctx, c, rep, st, half, k, nil)
	if err := finalCheck(ctx, c, rep, st, k); err != nil {
		return err
	}
	ts, ps := summarize(trecs, limit), summarize(precs, limit)
	if ps.p50 > 0 {
		rep.set("trace.overhead_frac", ts.p50/ps.p50-1)
	}
	ts.setDriver(rep)

	var apply, norm, power, decode, encode, overhead, iters []float64
	var allocs, powerNS, nnzIters float64
	var mem runtime.MemStats
	for i := 0; i < half; i++ {
		root := tr.begin("driver.replay", 0, int64(i+1))
		var req server.TrustDeltaRequest
		var err error
		id := tr.begin("server.decode", root, int64(i+1))
		err = json.Unmarshal(st.bodies[i], &req)
		tr.end(id)
		if err != nil {
			return err
		}
		decode = append(decode, tr.spanMS(id)*1e3)

		runtime.ReadMemStats(&mem)
		before := mem.TotalAlloc
		id = tr.begin("trust.apply", root, int64(i+1))
		_, err = st.replay.ApplyDelta(req.N, req.Edges)
		tr.end(id)
		if err != nil {
			return err
		}
		apply = append(apply, tr.spanMS(id))
		var nID, pID int64
		var nnz int
		res, _, err := st.replay.Resolve(func(g *trust.Graph, warm []float64) (trust.SolveResult, error) {
			nID = tr.begin("trust.normalize", root, int64(i+1))
			a, _ := g.Normalized(trust.NormalizeOptions{DanglingUniform: true})
			tr.end(nID)
			nnz = g.NumEdges()
			pID = tr.begin("reputation.power", root, int64(i+1))
			x, d := reputation.PowerIterate(a, reputation.Options{DanglingUniform: true, InitialVector: warm})
			tr.end(pID)
			return trust.SolveResult{Scores: x, Iterations: d.Iterations, Converged: d.Converged, Warm: d.Warm}, nil
		})
		if err != nil {
			return err
		}
		runtime.ReadMemStats(&mem)
		allocs += float64(mem.TotalAlloc - before)
		norm = append(norm, tr.spanMS(nID))
		power = append(power, tr.spanMS(pID))
		iters = append(iters, float64(res.Iterations))
		powerNS += tr.spanMS(pID) * 1e6
		nnzIters += float64(nnz) * float64(res.Iterations)

		if r := replies[i]; r != nil {
			if r.Iterations != res.Iterations {
				rep.checkf("delta %d: server took %d iterations, in-process replay %d", i, r.Iterations, res.Iterations)
			}
			id = tr.begin("server.encode", root, int64(i+1))
			enc := json.NewEncoder(io.Discard)
			enc.SetIndent("", "  ")
			err = enc.Encode(r)
			tr.end(id)
			if err != nil {
				return err
			}
			encode = append(encode, tr.spanMS(id)*1e3)
		}
		tr.end(root)
		if trecs[i].outcome == outcomeOK {
			overhead = append(overhead, ms(trecs[i].service())-apply[i]-norm[i]-power[i])
			tr.graft(root, spans[i])
		}
	}
	n := float64(max(half, 1))
	rep.set("trust.apply_ms", mean(apply))
	rep.set("trust.normalize_ms", mean(norm))
	rep.set("trust.alloc_bytes_per_op", allocs/n)
	rep.set("reputation.power_ms", mean(power))
	rep.set("reputation.warm_iters", mean(iters))
	if nnzIters > 0 {
		rep.set("reputation.ns_per_nnz_iter", powerNS/nnzIters)
	}
	rep.set("server.decode_us", median(decode))
	rep.set("server.encode_us", median(encode))
	rep.set("server.overhead_ms", median(overhead))
	tr.report(rep, "driver.request")
	return finishTrace(tr, rep, rc.name, rc.seed)
}
