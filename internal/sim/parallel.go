package sim

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"gridvo/internal/mechanism"
)

// SweepParallelContext runs TVOF and RVOF over every (program size,
// repetition) cell of the config on a pool of workers; workers == 1 is the
// serial sweep and workers <= 0 selects GOMAXPROCS. Results are
// bit-identical for every worker count because all randomness flows
// through labeled RNG splits keyed by (size, rep) — xrand.Split is a pure
// function of the parent state and label, never a mutation — so
// scheduling order cannot reorder any stream.
//
// progress, when non-nil, receives a line per completed cell; with more
// than one worker it is invoked from worker goroutines and must be safe
// for concurrent use. All workers share ctx, so a timeout degrades every
// in-flight solve to its heuristic incumbent and the sweep still returns
// a complete grid. Engine stats are summed per cell; counter sums commute,
// so the solve, cache-hit, and node aggregates are the same for every
// worker count (WallTime, being measured, varies run to run).
//
// After the first failed cell no further cells are dispatched, and the
// error returned is that of the earliest failed (size, rep) cell: cells
// are dispatched in that order, so every cell before a failed one has
// run.
func (e *Env) SweepParallelContext(ctx context.Context, workers int, progress func(string)) (*SweepResult, error) {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	type cell struct {
		sizeIdx, rep int
	}
	type cellResult struct {
		// One replicate of every SweepPoint metric.
		tvofPayoff, rvofPayoff float64
		tvofSize, rvofSize     float64
		tvofRep, rvofRep       float64
		tvofSec, rvofSec       float64
		retries                float64
		stats                  mechanism.EngineStats
		err                    error
	}

	var cells []cell
	for si := range e.Config.ProgramSizes {
		for rep := 0; rep < e.Config.Repetitions; rep++ {
			cells = append(cells, cell{sizeIdx: si, rep: rep})
		}
	}
	results := make([]cellResult, len(cells))
	run := func(c cell) (out cellResult) {
		size := e.Config.ProgramSizes[c.sizeIdx]
		sc, meta, err := e.BuildScenario(size, c.rep)
		if err != nil {
			out.err = err
			return out
		}
		tv, rv, err := e.RunPairContext(ctx, sc, size, c.rep)
		if err != nil {
			out.err = err
			return out
		}
		tf, rf := tv.Final(), rv.Final()
		if tf == nil || rf == nil {
			out.err = fmt.Errorf("sim: no final VO at n=%d rep=%d (tvof=%v rvof=%v)",
				size, c.rep, tf != nil, rf != nil)
			return out
		}
		out.tvofPayoff, out.rvofPayoff = tf.Payoff, rf.Payoff
		out.tvofSize, out.rvofSize = float64(tf.Size()), float64(rf.Size())
		out.tvofRep, out.rvofRep = tf.AvgReputation, rf.AvgReputation
		out.tvofSec, out.rvofSec = tv.Duration.Seconds(), rv.Duration.Seconds()
		out.retries = float64(meta.FeasibilityRetries)
		out.stats = tv.Stats.Add(rv.Stats)
		if progress != nil {
			progress(fmt.Sprintf("n=%d rep=%d: tvof |C|=%d payoff=%.1f rep=%.3f; rvof |C|=%d payoff=%.1f rep=%.3f",
				size, c.rep, tf.Size(), tf.Payoff, tf.AvgReputation, rf.Size(), rf.Payoff, rf.AvgReputation))
		}
		return out
	}

	jobs := make(chan int)
	var failed atomic.Bool
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range jobs {
				results[i] = run(cells[i])
				if results[i].err != nil {
					failed.Store(true)
				}
			}
		}()
	}
	for i := range cells {
		if failed.Load() {
			break
		}
		jobs <- i
	}
	close(jobs)
	wg.Wait()

	// Cells were dispatched in (size index, rep) order, so reading the
	// results in that order meets the earliest failed cell before any
	// cell that was never dispatched.
	out := &SweepResult{Points: make([]SweepPoint, len(e.Config.ProgramSizes))}
	for si, size := range e.Config.ProgramSizes {
		out.Points[si].Size = size
	}
	for i, r := range results {
		if r.err != nil {
			return nil, r.err
		}
		pt := &out.Points[cells[i].sizeIdx]
		pt.TVOFPayoff = append(pt.TVOFPayoff, r.tvofPayoff)
		pt.RVOFPayoff = append(pt.RVOFPayoff, r.rvofPayoff)
		pt.TVOFSize = append(pt.TVOFSize, r.tvofSize)
		pt.RVOFSize = append(pt.RVOFSize, r.rvofSize)
		pt.TVOFRep = append(pt.TVOFRep, r.tvofRep)
		pt.RVOFRep = append(pt.RVOFRep, r.rvofRep)
		pt.TVOFSec = append(pt.TVOFSec, r.tvofSec)
		pt.RVOFSec = append(pt.RVOFSec, r.rvofSec)
		pt.Retries = append(pt.Retries, r.retries)
		out.Stats = out.Stats.Add(r.stats)
	}
	return out, nil
}
