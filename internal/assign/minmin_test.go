package assign

import (
	"math"
	"slices"
	"testing"

	"gridvo/internal/xrand"
)

// minMinScan is Min-Min as the cached full scan that minMin replaced: each
// round every unassigned task's best completion time is read from a
// per-task cache (rescanned by rescanTask only when the picked GSP was its
// best or second source) and the smallest wins, ties to the lower index.
// It is the reference minMin must match assignment for assignment.
func minMinScan(in *Instance, hb *heurBufs) []int {
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
		for t := 0; t < n; t++ {
			timeT[t*k+g] = in.Time[g][t]
		}
	}
	for t := 0; t < n; t++ {
		if !rescanTask(in, load, t, hb) {
			return nil
		}
	}
	dl := in.Deadline + Eps
	lastPick := -2
	for remaining := n; remaining > 0; remaining-- {
		pickT, pickG := -1, -1
		pickKey := math.Inf(-1)
		for t := 0; t < n; t++ {
			if assign[t] != -1 {
				continue
			}
			if tBestG[t] == lastPick {
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
			if key := -tBest[t]; key > pickKey {
				pickKey, pickT, pickG = key, t, tBestG[t]
			}
		}
		assign[pickT] = pickG
		load[pickG] += in.Time[pickG][pickT]
		count[pickG]++
		lastPick = pickG
	}
	if !repairCoverage(in, assign, load, count) {
		return nil
	}
	return assign
}

// Time-matrix shapes for the Min-Min differential.
const (
	shapeRandom     = iota // independent U(1,10) times: inconsistent rows
	shapeConsistent        // T[g][t] = w(t)/s(g), as every paper instance
	shapeInteger           // integer times in [1,4]: many exact ties
	shapeRounding          // 1 + j·2⁻⁵², distinct times whose sums round equal
	shapeMixed             // consistent rows with a few inconsistent ones
	numShapes
)

// minMinInstance builds a k×n instance of the given shape with deadline
// slack·(mean row load), so small slacks leave tasks unschedulable.
func minMinInstance(rng *xrand.RNG, shape, k, n int, slack float64) *Instance {
	in := &Instance{Cost: make([][]float64, k), Time: make([][]float64, k)}
	work := make([]float64, n)
	for t := range work {
		work[t] = rng.Uniform(1, 10)
	}
	for g := 0; g < k; g++ {
		in.Cost[g] = make([]float64, n)
		in.Time[g] = make([]float64, n)
		speed := rng.Uniform(0.5, 2)
		inconsistent := shape == shapeMixed && rng.Float64() < 0.25
		for t := 0; t < n; t++ {
			in.Cost[g][t] = rng.Uniform(1, 100)
			switch {
			case shape == shapeRandom || inconsistent:
				in.Time[g][t] = rng.Uniform(1, 10)
			case shape == shapeConsistent || shape == shapeMixed:
				in.Time[g][t] = work[t] / speed
			case shape == shapeInteger:
				in.Time[g][t] = float64(rng.UniformInt(1, 4))
			case shape == shapeRounding:
				in.Time[g][t] = 1 + float64(rng.UniformInt(0, 3))*0x1p-52
			}
		}
	}
	in.Deadline = slack * 5.5 * float64(n) / float64(k)
	return in
}

// checkMinMin runs minMin and the scan on in, fails on any difference,
// and reports whether minMin returned nil.
func checkMinMin(t *testing.T, in *Instance, what string) bool {
	t.Helper()
	var fast, ref heurBufs
	fast.setTaskOrder(in)
	got := runHeuristicBuf(in, HeuristicMinMin, &fast)
	want := minMinScan(in, &ref)
	if (got == nil) != (want == nil) || !slices.Equal(got, want) {
		t.Fatalf("%s: minMin = %v, scan = %v", what, got, want)
	}
	return got == nil
}

// fitsAtStart reports whether every task fits some GSP's deadline alone.
func fitsAtStart(in *Instance) bool {
	for t := 0; t < in.NumTasks(); t++ {
		fits := false
		for g := range in.Time {
			fits = fits || in.Time[g][t] <= in.Deadline+Eps
		}
		if !fits {
			return false
		}
	}
	return true
}

// TestMinMinMatchesScan compares Min-Min by fronts with the scan it
// replaced on every matrix shape, from tight deadlines (nil results,
// with some task fitting no GSP from the start or only later) to loose
// ones, down to k = 1 and n = k, and on the Fig. 9 shapes (16 GSPs, 256
// and 1024 tasks).
func TestMinMinMatchesScan(t *testing.T) {
	rng := xrand.New(2027)
	results := map[string]int{}
	for trial := 0; trial < 3000; trial++ {
		shape := trial % numShapes
		k := rng.UniformInt(1, 8)
		n := k + rng.UniformInt(0, 40)
		if trial%7 == 0 {
			n = k
		}
		slack := rng.Uniform(0.3, 2)
		in := minMinInstance(rng.SplitN("inst", trial), shape, k, n, slack)
		switch {
		case !checkMinMin(t, in, "trial"):
			results["assigned"]++
		case fitsAtStart(in):
			results["nil later"]++
		default:
			results["nil at start"]++
		}
	}
	if len(results) != 3 {
		t.Fatalf("corpus lacks variety: %v", results)
	}
	sizes := []int{256, 1024}
	if testing.Short() {
		sizes = sizes[:1]
	}
	for _, n := range sizes {
		for shape := 0; shape < numShapes; shape++ {
			for _, slack := range []float64{0.9, 1.2, 3} {
				checkMinMin(t, minMinInstance(rng.SplitN("fig9", n+shape), shape, 16, n, slack), "fig9 shape")
			}
		}
	}
}

// FuzzMinMin is the fuzzing form of TestMinMinMatchesScan.
func FuzzMinMin(f *testing.F) {
	f.Add(uint64(1), uint8(3), uint8(10), uint8(shapeInteger), uint8(100))
	f.Add(uint64(2), uint8(1), uint8(1), uint8(shapeRandom), uint8(50))
	f.Add(uint64(3), uint8(16), uint8(64), uint8(shapeRounding), uint8(120))
	f.Add(uint64(4), uint8(5), uint8(30), uint8(shapeMixed), uint8(40))
	f.Fuzz(func(t *testing.T, seed uint64, k, extra, shape, slack uint8) {
		kk := 1 + int(k)%16
		n := kk + int(extra)%128
		in := minMinInstance(xrand.New(seed), int(shape)%numShapes, kk, n, 0.2+float64(slack)/64)
		checkMinMin(t, in, "fuzz")
	})
}

// listScheduleRescan is Max-Min or Sufferage in the classic formulation:
// every round rescans every unassigned task's best and second feasible
// completion times over all GSPs, the pick is the largest key (ties to the
// lower task index) and goes to the first GSP attaining the best time. It
// is the reference listSchedule must match assignment for assignment.
func listScheduleRescan(in *Instance, h Heuristic) []int {
	k, n := in.NumGSPs(), in.NumTasks()
	assign := make([]int, n)
	for t := range assign {
		assign[t] = -1
	}
	load := make([]float64, k)
	count := make([]int, k)
	dl := in.Deadline + Eps
	for remaining := n; remaining > 0; remaining-- {
		pickT, pickG := -1, -1
		pickKey := math.Inf(-1)
		for t := 0; t < n; t++ {
			if assign[t] != -1 {
				continue
			}
			best, second, bestG := math.Inf(1), math.Inf(1), -1
			for g := 0; g < k; g++ {
				switch done := load[g] + in.Time[g][t]; {
				case done > dl:
				case done < best:
					best, second, bestG = done, best, g
				case done < second:
					second = done
				}
			}
			if bestG == -1 {
				return nil
			}
			key := best
			if h == HeuristicSufferage {
				key = second - best
			}
			if key > pickKey {
				pickKey, pickT, pickG = key, t, bestG
			}
		}
		assign[pickT] = pickG
		load[pickG] += in.Time[pickG][pickT]
		count[pickG]++
	}
	if !repairCoverage(in, assign, load, count) {
		return nil
	}
	return assign
}

// TestListScheduleMatchesFullRescan compares Max-Min and Sufferage with
// the classic full rescan on the Min-Min corpus: every matrix shape
// (integer and rounding ties included), tight to loose deadlines, and the
// Fig. 9 shapes (16 GSPs, 256 and 1024 tasks).
func TestListScheduleMatchesFullRescan(t *testing.T) {
	nils := map[bool]int{}
	check := func(in *Instance, what string) {
		t.Helper()
		for _, h := range []Heuristic{HeuristicMaxMin, HeuristicSufferage} {
			got, want := RunHeuristic(in, h), listScheduleRescan(in, h)
			if (got == nil) != (want == nil) || !slices.Equal(got, want) {
				t.Fatalf("%s %v: listSchedule = %v, rescan = %v", what, h, got, want)
			}
			nils[got == nil]++
		}
	}
	rng := xrand.New(2028)
	for trial := 0; trial < 2000; trial++ {
		k := rng.UniformInt(1, 8)
		n := k + rng.UniformInt(0, 40)
		if trial%7 == 0 {
			n = k
		}
		in := minMinInstance(rng.SplitN("inst", trial), trial%numShapes, k, n, rng.Uniform(0.3, 2))
		check(in, "trial")
	}
	if len(nils) != 2 {
		t.Fatalf("corpus lacks variety: %v", nils)
	}
	sizes := []int{256, 1024}
	if testing.Short() {
		sizes = sizes[:1]
	}
	for _, n := range sizes {
		for shape := 0; shape < numShapes; shape++ {
			for _, slack := range []float64{0.9, 1.2, 3} {
				check(minMinInstance(rng.SplitN("fig9", n+shape), shape, 16, n, slack), "fig9 shape")
			}
		}
	}
}
