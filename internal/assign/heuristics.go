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
	// time is smallest (Braun et al.). O(kn log n) for the per-GSP task
	// orders (O(n log n + kn) on a consistent time matrix), then O(k) per
	// round plus exact ties.
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
	cand     []int
	candCost []float64

	// maxT is the per-task max execution time and byMaxT the task ids in
	// (maxT desc, index asc) order, both set once per solve by
	// setTaskOrder. The greedy fill, the seed repair's orphans and the
	// DFS branching order all need that order over a subset of the
	// tasks, and a stable sort of a subsequence equals the full order
	// filtered to it, so each walks byMaxT skipping the tasks outside
	// its subset instead of sorting its own.
	maxT   []float64
	byMaxT []int
	sorter taskByTimeDesc

	// Min-Min's per-GSP fronts (see minMin): front[g*n+i] is GSP g's
	// i-th task by (Time[g][t], t), head[g] indexes its first unassigned
	// task and cut[g] bounds the prefix that still fits the deadline;
	// feas[t] counts the GSPs whose cut holds task t.
	front     []int32
	frontSort tasksByTimeAsc
	head      []int
	cut       []int
	feas      []int32

	// Per-task completion-time caches for Max-Min and Sufferage:
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
	hb.setTaskOrder(in)
	return runHeuristicBuf(in, h, &hb)
}

// runHeuristicBuf is RunHeuristic writing into hb's buffers; the returned
// slice aliases hb.assign. hb.setTaskOrder must already have run on in.
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
	case HeuristicMinMin:
		return minMin(in, hb)
	case HeuristicMaxMin, HeuristicSufferage:
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
	for _, t := range hb.byMaxT {
		if assign[t] != -1 {
			continue
		}
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

// listSchedule implements Max-Min and Sufferage over completion times,
// then repairs coverage. The classic formulation re-evaluates every
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
	lastPick := -2 // no GSP touched yet: first round trusts the fresh caches
	for remaining > 0 {
		pickT, pickG := -1, -1
		pickKey := math.Inf(-1)
		for t := 0; t < n; t++ {
			if assign[t] != -1 {
				continue
			}
			if tBestG[t] == lastPick || tSecondG[t] == lastPick {
				if !rescanTask(in, load, t, hb) {
					return nil
				}
			}
			var key float64
			switch h {
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

// minMin is Min-Min by per-GSP fronts. Each round assigns the unassigned
// task with the smallest best feasible completion time load[g] + T[g][t]
// (ties to the lower task index) to the first GSP attaining it, then
// repairs coverage; it returns nil as soon as an unassigned task fits no
// GSP's deadline.
//
// Rounding is monotone, so fl(L + x) is non-decreasing in x: along GSP
// g's tasks ordered by (T[g][t], t), the completion times under any load
// are non-decreasing. The first unassigned task of that order (its head)
// therefore attains g's minimum, and the tasks fitting the deadline form
// a prefix (its cut) that only shrinks as g's load grows. A round is the
// minimum over the k heads; tasks whose sums tie that minimum exactly
// (distinct times can round to the same sum) sit in a prefix of each
// order from its head, which the round scans for the lowest task index.
// The task then goes to the first g whose sum equals the minimum, which
// is the GSP a full rescan names. The orders cost one sort of row 0
// plus an O(n) check per other row on a consistent time matrix (every
// paper instance); only rows whose order differs are sorted. Heads and
// cuts move O(kn) in total, so the rounds cost O(k) each plus the ties.
func minMin(in *Instance, hb *heurBufs) []int {
	k, n := in.NumGSPs(), in.NumTasks()
	assign := growInts(&hb.assign, n)
	for j := range assign {
		assign[j] = -1
	}
	load := growFloats(&hb.load, k)
	count := growInts(&hb.count, k)
	head := growInts(&hb.head, k)
	cut := growInts(&hb.cut, k)
	feas := growInt32s(&hb.feas, n)
	for j := range feas {
		feas[j] = 0
	}
	front := growInt32s(&hb.front, k*n)
	dl := in.Deadline + Eps
	row0 := front[:n]
	for g := 0; g < k; g++ {
		og := front[g*n : (g+1)*n]
		rowT := in.Time[g]
		if g == 0 || !sortedByTime(row0, rowT) {
			for i := range og {
				og[i] = int32(i)
			}
			hb.frontSort.ids, hb.frontSort.key = og, rowT
			sort.Sort(&hb.frontSort)
		} else {
			copy(og, row0)
		}
		load[g], count[g], head[g] = 0, 0, 0
		c := n
		for c > 0 && load[g]+rowT[og[c-1]] > dl {
			c--
		}
		cut[g] = c
		for _, t := range og[:c] {
			feas[t]++
		}
	}
	for _, f := range feas {
		if f == 0 {
			return nil // some task fits no GSP at all
		}
	}
	for remaining := n; remaining > 0; remaining-- {
		best := math.Inf(1)
		for g := 0; g < k; g++ {
			og := front[g*n : g*n+cut[g]]
			h := head[g]
			for h < len(og) && assign[og[h]] != -1 {
				h++
			}
			head[g] = h
			if h < len(og) {
				if v := load[g] + in.Time[g][og[h]]; v < best {
					best = v
				}
			}
		}
		// Every unassigned task fits some GSP (feas > 0), so some head
		// is live and best is finite.
		pickT := n
		for g := 0; g < k; g++ {
			og := front[g*n : g*n+cut[g]]
			rowT := in.Time[g]
			for _, t := range og[head[g]:] {
				if load[g]+rowT[t] != best {
					break
				}
				if int(t) < pickT && assign[t] == -1 {
					pickT = int(t)
				}
			}
		}
		pickG := 0
		for load[pickG]+in.Time[pickG][pickT] != best {
			pickG++
		}
		assign[pickT] = pickG
		load[pickG] += in.Time[pickG][pickT]
		count[pickG]++
		// The load grew: drop the tasks that no longer fit from pickG's
		// cut. Tasks before the head are assigned already.
		og, rowT := front[pickG*n:(pickG+1)*n], in.Time[pickG]
		c := cut[pickG]
		for c > head[pickG] && load[pickG]+rowT[og[c-1]] > dl {
			c--
			t := og[c]
			if feas[t]--; feas[t] == 0 && assign[t] == -1 {
				return nil
			}
		}
		cut[pickG] = c
	}
	if !repairCoverage(in, assign, load, count) {
		return nil
	}
	return assign
}

// sortedByTime reports whether ids is in ascending (row[t], t) order.
// Every paper instance has a consistent time matrix (T[g][t] =
// w(t)/s(g)), so one sorted row usually orders them all.
func sortedByTime(ids []int32, row []float64) bool {
	for i := 1; i < len(ids); i++ {
		a, b := ids[i-1], ids[i]
		if row[a] > row[b] || (row[a] == row[b] && a > b) {
			return false
		}
	}
	return true
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

// localSearchPasses bounds the improvement passes localSearchBuf applies.
const localSearchPasses = 64

// localSearchBuf improves an assignment in place with single-task
// relocations: move a task to a GSP where it is cheaper, if the target has
// deadline capacity and the source keeps at least one task. Passes repeat
// until a full pass finds no improvement (or localSearchPasses). Returns
// the improved cost. load and count (len k) are caller-provided and fully
// overwritten, so the solver's seeding loop runs it without allocating.
func localSearchBuf(in *Instance, assign []int, load []float64, count []int) float64 {
	k, n := in.NumGSPs(), in.NumTasks()
	for g := 0; g < k; g++ {
		load[g] = 0
		count[g] = 0
	}
	for t, g := range assign {
		load[g] += in.Time[g][t]
		count[g]++
	}
	for pass := 0; pass < localSearchPasses; pass++ {
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
