package exec

import (
	"container/heap"
	"fmt"
	"sort"

	"gridvo/internal/xrand"
)

// Provider is one VO member as the executor sees it.
type Provider struct {
	// SpeedGFLOPS is s(G): task seconds = workload / speed.
	SpeedGFLOPS float64
	// Reliability is the probability the provider honours its promise
	// for the whole run. With probability 1−Reliability it reneges at a
	// uniformly random fraction of the deadline window.
	Reliability float64
}

// Policy selects what happens to tasks orphaned by a failed provider.
type Policy int

const (
	// Reschedule moves orphaned tasks to the least-loaded surviving
	// provider (greedy, at failure time).
	Reschedule Policy = iota
	// Abandon drops orphaned tasks; the run then misses its contract.
	Abandon
)

// String returns the policy name.
func (p Policy) String() string {
	switch p {
	case Reschedule:
		return "reschedule"
	case Abandon:
		return "abandon"
	default:
		return fmt.Sprintf("Policy(%d)", int(p))
	}
}

// Options configure a simulation run.
type Options struct {
	// Deadline is the contract deadline in seconds (must be positive).
	Deadline float64
	// Policy for orphaned tasks; the zero value is Reschedule.
	Policy Policy
}

// Report is the outcome of one simulated execution.
type Report struct {
	// Completed reports whether every task finished by the deadline.
	Completed bool
	// MakespanSec is the completion time of the last finished task
	// (meaningful even on deadline misses).
	MakespanSec float64
	// TasksCompleted counts tasks that finished by the deadline.
	TasksCompleted int
	// Delivered[i] reports whether provider i honoured its promise
	// (did not renege) — the per-member outcome a trust history records.
	Delivered []bool
	// BusySec[i] is the total compute time provider i spent.
	BusySec []float64
	// Rescheduled counts tasks moved after provider failures.
	Rescheduled int
	// FailedProviders lists the indices that reneged, in failure order.
	FailedProviders []int
}

// Utilization returns BusySec[i]/deadline for each provider.
func (r *Report) Utilization(deadline float64) []float64 {
	out := make([]float64, len(r.BusySec))
	if deadline <= 0 {
		return out
	}
	for i, b := range r.BusySec {
		out[i] = b / deadline
	}
	return out
}

// event kinds on the virtual clock.
type eventKind int

const (
	evTaskDone eventKind = iota
	evFailure
)

type event struct {
	at       float64
	kind     eventKind
	provider int
	task     int // evTaskDone only
	seq      int // tie-break for determinism
}

type eventQueue []event

func (q eventQueue) Len() int { return len(q) }

// Less is an exact heap comparator: epsilon ordering is intransitive.
func (q eventQueue) Less(i, j int) bool {
	if q[i].at != q[j].at {
		return q[i].at < q[j].at
	}
	// Failures before completions at the same instant: a provider that
	// reneges at time t does not deliver the task finishing at t.
	if q[i].kind != q[j].kind {
		return q[i].kind == evFailure
	}
	return q[i].seq < q[j].seq
}
func (q eventQueue) Swap(i, j int) { q[i], q[j] = q[j], q[i] }
func (q *eventQueue) Push(x any)   { *q = append(*q, x.(event)) }
func (q *eventQueue) Pop() any {
	old := *q
	n := len(old)
	e := old[n-1]
	*q = old[:n-1]
	return e
}

// Run simulates executing the assignment. tasks[j] is the workload of task
// j in GFLOP; assign[j] is the provider index executing it. rng drives the
// failure draws; identical seeds give identical runs.
func Run(rng *xrand.RNG, tasks []float64, assign []int, providers []Provider, opts Options) (*Report, error) {
	k := len(providers)
	if opts.Deadline <= 0 {
		return nil, fmt.Errorf("exec: non-positive deadline %v", opts.Deadline)
	}
	if len(assign) != len(tasks) {
		return nil, fmt.Errorf("exec: %d assignments for %d tasks", len(assign), len(tasks))
	}
	for i, p := range providers {
		if p.SpeedGFLOPS <= 0 {
			return nil, fmt.Errorf("exec: provider %d has non-positive speed", i)
		}
		if p.Reliability < 0 || p.Reliability > 1 {
			return nil, fmt.Errorf("exec: provider %d reliability %v outside [0,1]", i, p.Reliability)
		}
	}

	// Per-provider FIFO queues of assigned tasks, longest first so the
	// big rocks land early (and rescheduling moves small remainders).
	queues := make([][]int, k)
	for j, g := range assign {
		if g < 0 || g >= k {
			return nil, fmt.Errorf("exec: task %d assigned to provider %d of %d", j, g, k)
		}
		queues[g] = append(queues[g], j)
	}
	for g := range queues {
		sort.SliceStable(queues[g], func(a, b int) bool {
			return tasks[queues[g][a]] > tasks[queues[g][b]]
		})
	}

	rep := &Report{
		Delivered: make([]bool, k),
		BusySec:   make([]float64, k),
	}
	for i := range rep.Delivered {
		rep.Delivered[i] = true
	}

	q := &eventQueue{}
	seq := 0
	push := func(e event) {
		e.seq = seq
		seq++
		heap.Push(q, e)
	}

	// Draw failures up front: provider i reneges at a uniform time in
	// (0, deadline) with probability 1 − reliability.
	alive := make([]bool, k)
	for i, p := range providers {
		alive[i] = true
		if !rng.Bool(p.Reliability) {
			push(event{at: rng.Uniform(0, opts.Deadline), kind: evFailure, provider: i})
		}
	}

	// Start each provider on its first task.
	busyUntil := make([]float64, k)
	current := make([]int, k) // task in flight, -1 when idle
	for i := range current {
		current[i] = -1
	}
	startNext := func(g int, now float64) {
		if !alive[g] || len(queues[g]) == 0 {
			return
		}
		t := queues[g][0]
		queues[g] = queues[g][1:]
		dur := tasks[t] / providers[g].SpeedGFLOPS
		current[g] = t
		busyUntil[g] = now + dur
		push(event{at: now + dur, kind: evTaskDone, provider: g, task: t})
	}
	for g := 0; g < k; g++ {
		startNext(g, 0)
	}

	remaining := len(tasks)
	for q.Len() > 0 && remaining > 0 {
		e := heap.Pop(q).(event)
		switch e.kind {
		case evFailure:
			if !alive[e.provider] {
				break
			}
			alive[e.provider] = false
			rep.Delivered[e.provider] = false
			rep.FailedProviders = append(rep.FailedProviders, e.provider)
			// Orphans: the in-flight task (its completion event is now
			// stale) plus the provider's queue.
			orphans := append([]int(nil), queues[e.provider]...)
			if current[e.provider] >= 0 {
				orphans = append(orphans, current[e.provider])
				// The busy time spent so far still counts as consumed.
				rep.BusySec[e.provider] += e.at - (busyUntil[e.provider] - tasks[current[e.provider]]/providers[e.provider].SpeedGFLOPS)
				current[e.provider] = -1
			}
			queues[e.provider] = nil
			if opts.Policy == Abandon {
				break
			}
			rep.Rescheduled += len(orphans)
			for _, t := range orphans {
				// Least-loaded surviving provider by projected finish.
				best := -1
				for g := 0; g < k; g++ {
					if !alive[g] {
						continue
					}
					if best == -1 || projectedFinish(g, busyUntil[g], queues[g], tasks, providers) <
						projectedFinish(best, busyUntil[best], queues[best], tasks, providers) {
						best = g
					}
				}
				if best == -1 {
					break // nobody left; tasks are lost
				}
				queues[best] = append(queues[best], t)
				if current[best] == -1 {
					startNext(best, e.at)
				}
			}
		case evTaskDone:
			g := e.provider
			if !alive[g] || current[g] != e.task {
				break // stale event from a failed provider
			}
			rep.BusySec[g] += tasks[e.task] / providers[g].SpeedGFLOPS
			current[g] = -1
			remaining--
			if e.at <= opts.Deadline {
				rep.TasksCompleted++
			}
			if e.at > rep.MakespanSec {
				rep.MakespanSec = e.at
			}
			startNext(g, e.at)
		}
	}
	rep.Completed = rep.TasksCompleted == len(tasks) && rep.MakespanSec <= opts.Deadline
	return rep, nil
}

func projectedFinish(g int, busyUntil float64, queue []int, tasks []float64, providers []Provider) float64 {
	t := busyUntil
	for _, task := range queue {
		t += tasks[task] / providers[g].SpeedGFLOPS
	}
	return t
}
