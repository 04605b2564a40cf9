package assign

import (
	"math"
	"sort"
)

// Heuristic identifies one of the constructive heuristics. They serve two
// roles: as fast incumbents warming the branch-and-bound search, and as
// standalone baselines (MCT, Min-Min, Max-Min, Sufferage are the classic
// mapping heuristics of Braun et al. and Azzedin & Maheswaran that the
// paper's related work discusses).
type Heuristic int

const (
	// HeuristicGreedyCost assigns a coverage task to every GSP first
	// (cheapest feasible pair each round), then every remaining task to
	// its cheapest GSP with deadline capacity. Cost-oriented; the default
	// incumbent.
	HeuristicGreedyCost Heuristic = iota
	// HeuristicMCT assigns tasks in index order to the GSP with the
	// Minimum Completion Time given current loads.
	HeuristicMCT
	// HeuristicMinMin repeatedly assigns the task whose best completion
	// time is smallest (Braun et al.). O(n²k).
	HeuristicMinMin
	// HeuristicMaxMin repeatedly assigns the task whose best completion
	// time is largest. O(n²k).
	HeuristicMaxMin
	// HeuristicSufferage repeatedly assigns the task that would "suffer"
	// most if denied its best GSP (largest second-best − best completion
	// time difference). O(n²k).
	HeuristicSufferage
)

// String returns the heuristic name.
func (h Heuristic) String() string {
	switch h {
	case HeuristicGreedyCost:
		return "greedy-cost"
	case HeuristicMCT:
		return "mct"
	case HeuristicMinMin:
		return "min-min"
	case HeuristicMaxMin:
		return "max-min"
	case HeuristicSufferage:
		return "sufferage"
	default:
		return "unknown"
	}
}

// heurBufs is the reusable buffer set behind the constructive heuristics
// and their repair/improvement passes. The public entry points build a
// fresh set per call; the solver's seeding phase reuses one pooled set
// across all candidate heuristics of a solve (each candidate assignment
// is copied out before the next heuristic overwrites the buffers).
type heurBufs struct {
	assign   []int
	load     []float64
	count    []int
	rest     []int
	cand     []int
	candCost []float64
	maxT     []float64 // per-task max execution time, precomputed by the owner
	sorter   taskByTimeDesc

	// Per-task completion-time caches for the list-scheduling heuristics:
	// best/second feasible completion times and the GSPs attaining them,
	// plus a task-major transpose of Instance.Time so a task rescan reads
	// its k execution times sequentially instead of striding across rows.
	tBest    []float64
	tSecond  []float64
	tBestG   []int
	tSecondG []int
	timeT    []float64
}

// RunHeuristic builds an assignment with the chosen heuristic. It returns
// nil when the heuristic cannot construct a deadline- and coverage-feasible
// assignment (which does not prove infeasibility). The budget constraint
// is NOT enforced here — callers check it via Verify, and the local-search
// improver may still push a slightly over-budget assignment under it.
func RunHeuristic(in *Instance, h Heuristic) []int {
	var hb heurBufs
	hb.maxT = maxTimes(in, &hb.maxT)
	return runHeuristicBuf(in, h, &hb)
}

// runHeuristicBuf is RunHeuristic writing into hb's buffers; the returned
// slice aliases hb.assign. hb.maxT must already hold the per-task max
// times.
func runHeuristicBuf(in *Instance, h Heuristic, hb *heurBufs) []int {
	k, n := in.NumGSPs(), in.NumTasks()
	if k == 0 || n < k {
		return nil
	}
	switch h {
	case HeuristicGreedyCost:
		return greedyCost(in, hb)
	case HeuristicMCT:
		return mct(in, hb)
	case HeuristicMinMin, HeuristicMaxMin, HeuristicSufferage:
		return listSchedule(in, h, hb)
	default:
		return nil
	}
}

// greedyCost: coverage phase then cheapest-feasible phase. Deterministic:
// ties break toward lower indices.
func greedyCost(in *Instance, hb *heurBufs) []int {
	k, n := in.NumGSPs(), in.NumTasks()
	assign := growInts(&hb.assign, n)
	for j := range assign {
		assign[j] = -1
	}
	load := growFloats(&hb.load, k)
	count := growInts(&hb.count, k)
	for g := 0; g < k; g++ {
		load[g] = 0
		count[g] = 0
	}

	// Coverage: k rounds, each assigning the globally cheapest
	// (uncovered GSP, unassigned task) pair that fits the deadline.
	// Among candidate tasks prefer small-time ones implicitly via cost
	// (costs are workload-monotone in the paper's instances). Per-GSP
	// cheapest candidates are cached and rescanned only when the round's
	// winner invalidates them: the cached argmin stays the argmin while
	// it remains unassigned (the candidate set only shrinks), so the
	// selection — lowest (cost, g, t) under strict improvement — is
	// exactly the full O(k²n) rescan's, at O(kn) typical cost.
	cand := growInts(&hb.cand, k)
	candCost := growFloats(&hb.candCost, k)
	for g := 0; g < k; g++ {
		cand[g] = -2 // not yet scanned
	}
	for round := 0; round < k; round++ {
		bestG, bestT := -1, -1
		bestC := math.Inf(1)
		for g := 0; g < k; g++ {
			if count[g] > 0 {
				continue // covered
			}
			if cand[g] == -1 {
				continue // known: no feasible task remains for g
			}
			if cand[g] == -2 || assign[cand[g]] != -1 {
				rowC, rowT := in.Cost[g], in.Time[g]
				ct, cc := -1, math.Inf(1)
				for t := 0; t < n; t++ {
					if assign[t] != -1 {
						continue
					}
					if rowT[t] > in.Deadline+Eps {
						continue
					}
					if rowC[t] < cc {
						cc, ct = rowC[t], t
					}
				}
				cand[g], candCost[g] = ct, cc
				if ct == -1 {
					continue
				}
			}
			if candCost[g] < bestC {
				bestC, bestG, bestT = candCost[g], g, cand[g]
			}
		}
		if bestG == -1 {
			return nil // some GSP cannot take any remaining task
		}
		assign[bestT] = bestG
		count[bestG]++
		load[bestG] += in.Time[bestG][bestT]
	}

	// Fill: per task, cheapest GSP with capacity. Process tasks in
	// descending time (hardest first) so capacity is spent where needed.
	rest := hb.rest[:0]
	for t := 0; t < n; t++ {
		if assign[t] == -1 {
			rest = append(rest, t)
		}
	}
	hb.rest = rest
	hb.sorter.ids, hb.sorter.key = rest, hb.maxT
	sort.Stable(&hb.sorter)
	for _, t := range rest {
		bestG := -1
		bestC := math.Inf(1)
		for g := 0; g < k; g++ {
			if load[g]+in.Time[g][t] > in.Deadline+Eps {
				continue
			}
			if in.Cost[g][t] < bestC {
				bestC, bestG = in.Cost[g][t], g
			}
		}
		if bestG == -1 {
			return nil
		}
		assign[t] = bestG
		load[bestG] += in.Time[bestG][t]
	}
	return assign
}

// mct assigns tasks in index order to the GSP minimizing the completion
// time (current load + task time), breaking ties by cheaper cost. A final
// repair pass fixes coverage by stealing tasks for empty GSPs.
func mct(in *Instance, hb *heurBufs) []int {
	k, n := in.NumGSPs(), in.NumTasks()
	assign := growInts(&hb.assign, n)
	load := growFloats(&hb.load, k)
	count := growInts(&hb.count, k)
	for g := 0; g < k; g++ {
		load[g] = 0
		count[g] = 0
	}
	for t := 0; t < n; t++ {
		bestG := -1
		bestDone := math.Inf(1)
		for g := 0; g < k; g++ {
			done := load[g] + in.Time[g][t]
			if done > in.Deadline+Eps {
				continue
			}
			if done < bestDone-Eps ||
				(done < bestDone+Eps && bestG >= 0 && in.Cost[g][t] < in.Cost[bestG][t]) {
				bestDone, bestG = done, g
			}
		}
		if bestG == -1 {
			return nil
		}
		assign[t] = bestG
		load[bestG] += in.Time[bestG][t]
		count[bestG]++
	}
	if !repairCoverage(in, assign, load, count) {
		return nil
	}
	return assign
}

// listSchedule implements Min-Min, Max-Min and Sufferage over completion
// times, then repairs coverage. The classic formulation re-evaluates every
// unassigned task's best/second completion times each round (O(n²k));
// here those triples are cached per task and rescanned only when they can
// have changed: a round's assignment raises the load of exactly one GSP,
// and a larger load can only displace that GSP from a task's best or
// second slot, never promote it past the others (all strict-< comparisons
// against unchanged values). Tasks citing the picked GSP as neither best
// nor second source therefore keep bit-identical cached triples, and the
// selection sequence — hence the returned assignment — is exactly the
// full rescan's, at O(n² + rescans·k) typical cost.
func listSchedule(in *Instance, h Heuristic, hb *heurBufs) []int {
	k, n := in.NumGSPs(), in.NumTasks()
	assign := growInts(&hb.assign, n)
	for j := range assign {
		assign[j] = -1
	}
	load := growFloats(&hb.load, k)
	count := growInts(&hb.count, k)
	for g := 0; g < k; g++ {
		load[g] = 0
		count[g] = 0
	}
	tBest := growFloats(&hb.tBest, n)
	tSecond := growFloats(&hb.tSecond, n)
	tBestG := growInts(&hb.tBestG, n)
	tSecondG := growInts(&hb.tSecondG, n)
	timeT := growFloats(&hb.timeT, n*k)
	for g := 0; g < k; g++ {
		row := in.Time[g]
		for t := 0; t < n; t++ {
			timeT[t*k+g] = row[t]
		}
	}
	for t := 0; t < n; t++ {
		if !rescanTask(in, load, t, hb) {
			return nil // task t cannot be scheduled at all
		}
	}
	remaining := n
	dl := in.Deadline + Eps
	lastPick := -2 // no GSP touched yet: first round trusts the fresh caches
	for remaining > 0 {
		pickT, pickG := -1, -1
		pickKey := math.Inf(-1)
		for t := 0; t < n; t++ {
			if assign[t] != -1 {
				continue
			}
			if tBestG[t] == lastPick {
				// The picked GSP was this task's best. If its recomputed
				// completion is feasible and still strictly below the
				// cached second-best — the minimum of the unchanged other
				// GSPs — a full rescan would return exactly (done,
				// second, sources unchanged): done undercuts every other
				// value strictly, so it keeps the best slot, and the
				// second slot still goes to the earliest minimum among
				// the others. O(1) instead of O(k); otherwise rescan.
				done := load[lastPick] + timeT[t*k+lastPick]
				if done <= dl && done < tSecond[t] {
					tBest[t] = done
				} else if !rescanTask(in, load, t, hb) {
					return nil
				}
			} else if tSecondG[t] == lastPick {
				if !rescanTask(in, load, t, hb) {
					return nil
				}
			}
			var key float64
			switch h {
			case HeuristicMinMin:
				key = -tBest[t] // smallest best completion wins
			case HeuristicMaxMin:
				key = tBest[t] // largest best completion wins
			case HeuristicSufferage:
				// second − best; with a single feasible GSP second is
				// +Inf and the subtraction yields the maximal sufferage
				// +Inf directly (best is always finite here).
				key = tSecond[t] - tBest[t]
			}
			if key > pickKey {
				pickKey, pickT, pickG = key, t, tBestG[t]
			}
		}
		assign[pickT] = pickG
		load[pickG] += in.Time[pickG][pickT]
		count[pickG]++
		remaining--
		lastPick = pickG
	}
	if !repairCoverage(in, assign, load, count) {
		return nil
	}
	return assign
}

// infBits is the bit pattern of +Inf, the identity of the branchless min
// reductions below (non-negative IEEE-754 doubles order identically to
// their bit patterns).
const infBits = 0x7FF0_0000_0000_0000

// rescanTask recomputes task t's cached best/second feasible completion
// times, reporting false when no GSP can take the task. Times come from
// hb.timeT, the task-major transpose — bit-identical copies of
// Instance.Time read sequentially.
//
// The reduction runs in the bit domain: completion times are non-negative
// (so float order == uint64 order), infeasible entries are mapped to the
// +Inf pattern (exactly what skipping them does to a min), and the
// compare/shuffle chain compiles to conditional moves instead of the
// data-dependent branches that dominated the scan. bestG is the first g
// attaining the minimum — identical to the classic strict-< scan, and the
// only source listSchedule's pick uses. secondG may name a different GSP
// than the classic scan when values tie exactly, but it always attains
// the second value, which is all the staleness invalidation needs: the
// cached pair only stays put when neither cited GSP changed, and a load
// increase on an uncited GSP (done ≥ second) can never alter either
// minimum value.
func rescanTask(in *Instance, load []float64, t int, hb *heurBufs) bool {
	k := len(load)
	row := hb.timeT[t*k : t*k+k]
	dlU := math.Float64bits(in.Deadline + Eps)
	bestU, secondU := uint64(infBits), uint64(infBits)
	bestG, secondG := -1, -1
	for g := 0; g < k; g++ {
		u := math.Float64bits(load[g] + row[g])
		if u > dlU {
			u = infBits
		}
		du, dg := u, g // the value displaced into the second slot
		if u < bestU {
			du, dg = bestU, bestG
		}
		if u < bestU {
			bestU, bestG = u, g
		}
		if du < secondU {
			secondU, secondG = du, dg
		}
	}
	hb.tBest[t], hb.tSecond[t] = math.Float64frombits(bestU), math.Float64frombits(secondU)
	hb.tBestG[t], hb.tSecondG[t] = bestG, secondG
	return bestG != -1
}

// repairCoverage moves tasks onto empty GSPs (constraint 13). For each
// empty GSP it takes the cheapest-to-move task from a GSP that has at
// least two, respecting the deadline. Returns false when repair fails.
func repairCoverage(in *Instance, assign []int, load []float64, count []int) bool {
	k := in.NumGSPs()
	for g := 0; g < k; g++ {
		if count[g] > 0 {
			continue
		}
		bestT := -1
		bestDelta := math.Inf(1)
		for t, cur := range assign {
			if count[cur] < 2 {
				continue
			}
			if load[g]+in.Time[g][t] > in.Deadline+Eps {
				continue
			}
			delta := in.Cost[g][t] - in.Cost[cur][t]
			if delta < bestDelta {
				bestDelta, bestT = delta, t
			}
		}
		if bestT == -1 {
			return false
		}
		src := assign[bestT]
		assign[bestT] = g
		load[src] -= in.Time[src][bestT]
		count[src]--
		load[g] += in.Time[g][bestT]
		count[g]++
	}
	return true
}

// localSearchBuf improves an assignment in place with single-task
// relocations: move a task to a GSP where it is cheaper, if the target has
// deadline capacity and the source keeps at least one task. Passes repeat
// until a full pass finds no improvement (or maxPasses). Returns the
// improved cost. load and count (len k) are caller-provided and fully
// overwritten, so the solver's seeding loop runs it without allocating.
func localSearchBuf(in *Instance, assign []int, maxPasses int, load []float64, count []int) float64 {
	k, n := in.NumGSPs(), in.NumTasks()
	for g := 0; g < k; g++ {
		load[g] = 0
		count[g] = 0
	}
	for t, g := range assign {
		load[g] += in.Time[g][t]
		count[g]++
	}
	if maxPasses <= 0 {
		maxPasses = 64
	}
	for pass := 0; pass < maxPasses; pass++ {
		improved := false
		for t := 0; t < n; t++ {
			cur := assign[t]
			if count[cur] < 2 {
				continue
			}
			bestG := cur
			bestC := in.Cost[cur][t]
			for g := 0; g < k; g++ {
				if g == cur {
					continue
				}
				if in.Cost[g][t] >= bestC-Eps {
					continue
				}
				if load[g]+in.Time[g][t] > in.Deadline+Eps {
					continue
				}
				bestG, bestC = g, in.Cost[g][t]
			}
			if bestG != cur {
				load[cur] -= in.Time[cur][t]
				count[cur]--
				assign[t] = bestG
				load[bestG] += in.Time[bestG][t]
				count[bestG]++
				improved = true
			}
		}
		if !improved {
			break
		}
	}
	return TotalCost(in, assign)
}
