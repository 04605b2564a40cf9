package assign

import (
	"math"
	"sort"
	"sync"
)

// searchScratch is the pooled buffer set behind one searcher's DFS state
// and its heuristic seeding phase. A mechanism run performs hundreds of
// solves over instances of identical shape, and prepare()'s slices plus
// the per-candidate heuristic buffers dominated the allocation profile;
// pooling them makes repeated engine solves allocation-free on the search
// side. Every buffer is fully (re)initialized before use, so pooled
// leftovers can never influence a solve.
type searchScratch struct {
	order   []int
	maxT    []float64
	gspFlat []int
	gspRows [][]int
	sufMin  []float64
	gstate  []gspState
	assign  []int
	posCost []float64
	posTime []float64
	costRow []float64
	twin    []int
	best    []int

	heur heurBufs

	taskSort taskByTimeDesc
}

var scratchPool = sync.Pool{New: func() any { return new(searchScratch) }}

// searcherPool recycles the searcher structs themselves: one escapes to
// the heap per solve otherwise, and the zero-allocation steady state
// requires the whole Solve path to stay off it.
var searcherPool = sync.Pool{New: func() any { return new(searcher) }}

// taskByTimeDesc stable-sorts task ids by descending key (their max
// execution time). The typed sort.Interface replaces sort.SliceStable,
// whose closure and reflect-based swapper allocate on every call; a
// stable sort's output permutation is uniquely determined by the keys and
// the input order, so the swap cannot change any result.
type taskByTimeDesc struct {
	ids []int
	key []float64 // indexed by task id
}

func (s *taskByTimeDesc) Len() int           { return len(s.ids) }
func (s *taskByTimeDesc) Swap(i, j int)      { s.ids[i], s.ids[j] = s.ids[j], s.ids[i] }
func (s *taskByTimeDesc) Less(i, j int) bool { return s.key[s.ids[i]] > s.key[s.ids[j]] }

// sortIDsByKeyAsc stable-sorts ids ascending by key[id] with a direct
// insertion sort: elements shift only past strictly greater keys, so
// equal keys keep their input order. A stable sort's output permutation
// is uniquely determined by the keys and the input order, so this
// produces exactly what sort.Stable over the same data did — without the
// sort.Interface dispatch, which dominated the cost at the k ≤ 16 row
// lengths prepare() sorts.
func sortIDsByKeyAsc(ids []int, key []float64) {
	for i := 1; i < len(ids); i++ {
		id := ids[i]
		kv := key[id]
		j := i - 1
		for j >= 0 && key[ids[j]] > kv {
			ids[j+1] = ids[j]
			j--
		}
		ids[j+1] = id
	}
}

// growInts returns *buf resized to n, reallocating (and updating *buf)
// only when the pooled capacity is insufficient.
func growInts(buf *[]int, n int) []int {
	if cap(*buf) < n {
		*buf = make([]int, n)
	}
	*buf = (*buf)[:n]
	return *buf
}

// growFloats is growInts for float64 slices.
func growFloats(buf *[]float64, n int) []float64 {
	if cap(*buf) < n {
		*buf = make([]float64, n)
	}
	*buf = (*buf)[:n]
	return *buf
}

// gspState packs one GSP's running load and task count into a single
// 16-byte entry. The DFS inner loop reads and writes both fields for the
// same g, so fusing the former parallel load/count arrays halves its
// random-access cache traffic; the stored values are bit-identical to
// before, so the packing cannot alter the search trajectory.
type gspState struct {
	load  float64
	count int64
}

// growStates is growInts for gspState slices.
func growStates(buf *[]gspState, n int) []gspState {
	if cap(*buf) < n {
		*buf = make([]gspState, n)
	}
	*buf = (*buf)[:n]
	return *buf
}

// maxTimes fills *buf with the per-task maximum execution time across
// GSPs — the branching and repair priority key. The row-major sweep over
// Time is equivalent to per-task column scans (max is order-independent
// over validated, NaN-free inputs) but walks each matrix row
// sequentially.
func maxTimes(in *Instance, buf *[]float64) []float64 {
	mt := growFloats(buf, in.NumTasks())
	for j := range mt {
		mt[j] = 0
	}
	for _, row := range in.Time {
		for j, v := range row {
			if v > mt[j] {
				mt[j] = v
			}
		}
	}
	return mt
}

// repairSeedBuf repairs a warm-start hint into hb's pooled buffers; the
// returned slice aliases hb.assign and must be copied out before hb is
// reused. Entries outside [0,k) — the tasks of an evicted GSP after
// projection — and entries that no longer fit the deadline are treated as
// orphaned, reassigned hardest-first to the cheapest GSP with remaining
// capacity. Coverage is then restored with the same repair the
// constructive heuristics use, and the result is polished by local search
// and verified against all constraints (budget included). Deterministic:
// ties break toward lower indices throughout.
func repairSeedBuf(in *Instance, seed []int, hb *heurBufs) []int {
	k, n := in.NumGSPs(), in.NumTasks()
	if len(seed) != n || k == 0 || n < k {
		return nil
	}
	assign := growInts(&hb.assign, n)
	load := growFloats(&hb.load, k)
	count := growInts(&hb.count, k)
	for g := 0; g < k; g++ {
		load[g] = 0
		count[g] = 0
	}
	orphans := hb.rest[:0]
	for j, g := range seed {
		if g < 0 || g >= k || load[g]+in.Time[g][j] > in.Deadline+Eps {
			assign[j] = -1
			orphans = append(orphans, j)
			continue
		}
		assign[j] = g
		load[g] += in.Time[g][j]
		count[g]++
	}
	hb.rest = orphans
	// Hardest tasks first, so scarce deadline capacity is spent where the
	// placement options are fewest (mirrors the greedy heuristic's fill).
	hb.sorter.ids, hb.sorter.key = orphans, hb.maxT
	sort.Stable(&hb.sorter)
	for _, t := range orphans {
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
		count[bestG]++
	}
	if !repairCoverage(in, assign, load, count) {
		return nil
	}
	localSearchBuf(in, assign, load, count)
	if verifyBuf(in, assign, load, count) != nil {
		return nil
	}
	return assign
}
