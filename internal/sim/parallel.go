package sim

import (
	"context"
	"fmt"
	"runtime"
	"sort"
	"sync"

	"gridvo/internal/mechanism"
)

// SweepParallelContext is SweepContext fanned out over a worker pool:
// every (program size, repetition) cell is an independent job. Results are
// bit-identical to the serial sweep because all randomness flows through
// labeled RNG splits keyed by (size, rep) — xrand.Split is a pure function
// of the parent state and label, never a mutation — so scheduling order
// cannot reorder any stream. workers <= 0 selects GOMAXPROCS.
//
// progress, when non-nil, is invoked from worker goroutines and must be
// safe for concurrent use. All workers share ctx, so a timeout degrades
// every in-flight solve to its heuristic incumbent and the sweep still
// returns a complete grid. Engine stats are summed per cell; counter sums
// commute, so the solve, cache-hit, and node aggregates match the serial
// SweepContext exactly (WallTime, being measured, varies run to run).
func (e *Env) SweepParallelContext(ctx context.Context, workers int, progress func(string)) (*SweepResult, error) {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	type cell struct {
		sizeIdx, rep int
	}
	type cellResult struct {
		cell cell
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

	jobs := make(chan cell)
	results := make(chan cellResult, len(cells))
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for c := range jobs {
				size := e.Config.ProgramSizes[c.sizeIdx]
				out := cellResult{cell: c}
				sc, meta, err := e.BuildScenario(size, c.rep)
				if err != nil {
					out.err = err
					results <- out
					continue
				}
				tv, rv, err := e.RunPairContext(ctx, sc, size, c.rep)
				if err != nil {
					out.err = err
					results <- out
					continue
				}
				tf, rf := tv.Final(), rv.Final()
				if tf == nil || rf == nil {
					out.err = fmt.Errorf("sim: no final VO at n=%d rep=%d", size, c.rep)
					results <- out
					continue
				}
				out.tvofPayoff, out.rvofPayoff = tf.Payoff, rf.Payoff
				out.tvofSize, out.rvofSize = float64(tf.Size()), float64(rf.Size())
				out.tvofRep, out.rvofRep = tf.AvgReputation, rf.AvgReputation
				out.tvofSec, out.rvofSec = tv.Duration.Seconds(), rv.Duration.Seconds()
				out.retries = float64(meta.FeasibilityRetries)
				out.stats = tv.Stats.Add(rv.Stats)
				if progress != nil {
					progress(fmt.Sprintf("n=%d rep=%d done (|C|=%d)", size, c.rep, tf.Size()))
				}
				results <- out
			}
		}()
	}
	for _, c := range cells {
		jobs <- c
	}
	close(jobs)
	wg.Wait()
	close(results)

	collected := make([]cellResult, 0, len(cells))
	for r := range results {
		if r.err != nil {
			return nil, r.err
		}
		collected = append(collected, r)
	}
	// Deterministic ordering: sort by (size index, rep) so the replicate
	// slices match the serial Sweep exactly.
	sort.Slice(collected, func(a, b int) bool {
		if collected[a].cell.sizeIdx != collected[b].cell.sizeIdx {
			return collected[a].cell.sizeIdx < collected[b].cell.sizeIdx
		}
		return collected[a].cell.rep < collected[b].cell.rep
	})

	out := &SweepResult{Points: make([]SweepPoint, len(e.Config.ProgramSizes))}
	for si, size := range e.Config.ProgramSizes {
		out.Points[si].Size = size
	}
	for _, r := range collected {
		pt := &out.Points[r.cell.sizeIdx]
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
