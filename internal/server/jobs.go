package server

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/fnv"
	"net/http"
	"strconv"
	"sync"
	"time"

	"gridvo"
	"gridvo/internal/mechanism"
)

// JobState is one state of the job FSM. Transitions:
//
//	submit ──► queued ──► running ──► done
//	              │           ├─────► degraded   (result below the exact tier)
//	              │           └─────► failed     (worker panic / internal error)
//	              └── (drain rejects new submits with 503; queued jobs still run)
//
// A coalesced (deduped) submission stays queued, attached to the leader's
// in-flight solve, and jumps straight to the leader's terminal state when
// the leader's run returns a result. If the leader failed, followers are
// re-enqueued (never shared) — see finish.
type JobState string

const (
	JobQueued   JobState = "queued"
	JobRunning  JobState = "running"
	JobDone     JobState = "done"
	JobFailed   JobState = "failed"
	JobDegraded JobState = "degraded"
)

// terminal reports whether the state is final.
func (st JobState) terminal() bool {
	return st == JobDone || st == JobFailed || st == JobDegraded
}

// job is one asynchronous VO-formation request tracked by the manager.
type job struct {
	id   string
	key  uint64 // dedupe key: scenario content hash ⊕ rule ⊕ seed ⊕ budget
	sc   *mechanism.Scenario
	rule gridvo.Rule
	req  FormRequest

	created time.Time
	done    chan struct{} // closed on entering a terminal state

	// The fields below are guarded by the manager's mutex.
	state     JobState
	deduped   bool
	result    *FormResponse
	errMsg    string
	followers []*job // coalesced submissions awaiting this leader's solve
	started   time.Time
	finished  time.Time
}

// Submission failure modes, translated to HTTP codes by the handler.
var (
	errQueueFull  = errors.New("job queue full")
	errJobsClosed = errors.New("job tier is draining")
)

// jobManager owns the async tier's state: the bounded queue the worker
// pool drains, the job registry polled by GET /v1/jobs/{id}, and the
// in-flight index that coalesces identical submissions (singleflight on
// the scenario content hash). All mutable state sits behind one mutex —
// every operation is O(1)-ish bookkeeping; the solves themselves run in
// workers with no lock held.
type jobManager struct {
	queue chan *job
	ttl   time.Duration
	wg    sync.WaitGroup

	mu       sync.Mutex
	jobs     map[string]*job
	inflight map[uint64]*job // dedupe key -> leader job in queued|running
	order    []*job          // terminal jobs in completion order (TTL GC)
	seq      int64
	closed   bool

	queuedTotal   int64
	dedupedTotal  int64
	requeuedTotal int64
	doneTotal     int64
	failedTotal   int64
	degradedTotal int64
	running       int
}

func newJobManager(depth int, ttl time.Duration) *jobManager {
	return &jobManager{
		queue:    make(chan *job, depth),
		ttl:      ttl,
		jobs:     map[string]*job{},
		inflight: map[uint64]*job{},
	}
}

// jobKey derives the dedupe key: two submissions share one solve only
// when every solve-relevant input matches — scenario content, rule, seed,
// requested budget, and the trace flag (it changes the response body).
func jobKey(scKey uint64, rule gridvo.Rule, req *FormRequest) uint64 {
	h := fnv.New64a()
	var buf [8]byte
	w64 := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	w64(scKey)
	w64(uint64(rule))
	w64(req.Seed)
	w64(uint64(req.TimeoutMS))
	if req.IncludeIterations {
		w64(1)
	} else {
		w64(0)
	}
	return h.Sum64()
}

// submit registers a new job. When an identical job (same dedupe key) is
// already queued or running, the new job attaches to it as a follower —
// no queue slot consumed, one underlying solve — and reports deduped.
// Otherwise the job is enqueued; a full queue rejects with errQueueFull
// (the job-tier analogue of the sync path's 429 shedding).
func (m *jobManager) submit(now time.Time, key uint64, sc *mechanism.Scenario, rule gridvo.Rule, req FormRequest) (*job, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed {
		return nil, errJobsClosed
	}
	m.gcLocked(now)
	m.seq++
	j := &job{
		id:      fmt.Sprintf("j-%06d", m.seq),
		key:     key,
		sc:      sc,
		rule:    rule,
		req:     req,
		created: now,
		done:    make(chan struct{}),
		state:   JobQueued,
	}
	if lead, ok := m.inflight[key]; ok {
		j.deduped = true
		lead.followers = append(lead.followers, j)
		m.jobs[j.id] = j
		m.dedupedTotal++
		return j, nil
	}
	select {
	case m.queue <- j:
		m.inflight[key] = j
		m.jobs[j.id] = j
		m.queuedTotal++
		return j, nil
	default:
		m.seq-- // the id was never visible; reuse it
		return nil, errQueueFull
	}
}

// start marks a dequeued job running.
func (m *jobManager) start(j *job, now time.Time) {
	m.mu.Lock()
	j.state = JobRunning
	j.started = now
	m.running++
	m.mu.Unlock()
}

// completeLocked moves a job to a terminal state and schedules it for TTL
// GC. Callers hold the mutex.
func (m *jobManager) completeLocked(j *job, now time.Time, state JobState, resp *FormResponse, errMsg string) {
	j.state = state
	j.result = resp
	j.errMsg = errMsg
	j.finished = now
	m.order = append(m.order, j)
	switch state {
	case JobDone:
		m.doneTotal++
	case JobFailed:
		m.failedTotal++
	case JobDegraded:
		m.degradedTotal++
	}
	close(j.done)
}

// finish completes a leader job and resolves its followers. A result is
// shared with every coalesced follower — that is the dedupe payoff. A
// failed run is never shared: the first follower is promoted to leader
// and re-enqueued for a fresh solve, with the remaining followers
// re-attached to it.
func (m *jobManager) finish(j *job, now time.Time, resp *FormResponse, errMsg string) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.running--
	if m.inflight[j.key] == j {
		delete(m.inflight, j.key)
	}
	followers := j.followers
	j.followers = nil

	var state JobState
	switch {
	case errMsg != "":
		state = JobFailed
	case resp.Degraded || resp.Partial:
		state = JobDegraded
	default:
		state = JobDone
	}
	m.completeLocked(j, now, state, resp, errMsg)
	if len(followers) == 0 {
		return
	}
	if errMsg == "" {
		for _, f := range followers {
			m.completeLocked(f, now, state, resp, "")
		}
		return
	}
	if m.closed {
		for _, f := range followers {
			m.completeLocked(f, now, JobFailed, nil, "server draining; leader failed")
		}
		return
	}
	lead := followers[0]
	lead.followers = followers[1:]
	select {
	case m.queue <- lead:
		m.inflight[j.key] = lead
		m.requeuedTotal++
	default:
		for _, f := range followers {
			m.completeLocked(f, now, JobFailed, nil, "queue full re-enqueueing after a failed leader")
		}
	}
}

// get returns the job for id, or nil when unknown or GC'd.
func (m *jobManager) get(id string) *job {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.jobs[id]
}

// gcLocked drops terminal jobs whose TTL elapsed. order is append-only in
// completion order, so expiry is a prefix scan. Callers hold the mutex.
func (m *jobManager) gcLocked(now time.Time) {
	i := 0
	for ; i < len(m.order); i++ {
		if now.Sub(m.order[i].finished) <= m.ttl {
			break
		}
		delete(m.jobs, m.order[i].id)
	}
	if i > 0 {
		m.order = append([]*job(nil), m.order[i:]...)
	}
}

// status snapshots one job as its wire representation.
func (m *jobManager) status(j *job, now time.Time) JobStatusResponse {
	m.mu.Lock()
	defer m.mu.Unlock()
	resp := JobStatusResponse{
		ID:      j.id,
		State:   string(j.state),
		Deduped: j.deduped,
		Error:   j.errMsg,
		Result:  j.result,
	}
	switch {
	case j.state == JobQueued:
		resp.QueueMS = ms(now.Sub(j.created))
	case j.state == JobRunning:
		resp.QueueMS = ms(j.started.Sub(j.created))
		resp.RunMS = ms(now.Sub(j.started))
	case j.state.terminal():
		// A coalesced follower never ran itself; its whole latency is
		// queue time against the leader's solve.
		start := j.started
		if start.IsZero() {
			start = j.finished
		}
		resp.QueueMS = ms(start.Sub(j.created))
		resp.RunMS = ms(j.finished.Sub(start))
	}
	return resp
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// snapshot captures the tier's counters for /metrics.
func (m *jobManager) snapshot(workers int) JobsSnapshot {
	m.mu.Lock()
	defer m.mu.Unlock()
	return JobsSnapshot{
		Queued:        m.queuedTotal,
		Deduped:       m.dedupedTotal,
		Requeued:      m.requeuedTotal,
		QueueDepth:    len(m.queue),
		QueueCapacity: cap(m.queue),
		Workers:       workers,
		Running:       m.running,
		Done:          m.doneTotal,
		Failed:        m.failedTotal,
		Degraded:      m.degradedTotal,
		Live:          len(m.jobs),
	}
}

// drain stops accepting submissions, lets the workers finish every
// already-queued job, and waits for them up to ctx. Idempotent.
func (m *jobManager) drain(ctx context.Context) error {
	m.mu.Lock()
	if !m.closed {
		m.closed = true
		close(m.queue)
	}
	m.mu.Unlock()
	done := make(chan struct{})
	go func() {
		m.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		return fmt.Errorf("job drain: %w", ctx.Err())
	}
}

// jobWorker is one worker-pool goroutine: it drains the queue until drain
// closes it. A panicking solve fails the job, never the process.
func (s *Server) jobWorker() {
	defer s.jobs.wg.Done()
	for j := range s.jobs.queue {
		s.runJob(j)
	}
}

// runJob executes one leader job under the server's job budget.
func (s *Server) runJob(j *job) {
	s.jobs.start(j, time.Now())
	ctx, cancel := withBudget(context.Background(), s.budget(j.req.TimeoutMS))
	defer cancel()
	defer func() {
		if rec := recover(); rec != nil {
			s.metrics.panicked()
			s.jobs.finish(j, time.Now(), nil, fmt.Sprintf("worker panic: %v", rec))
		}
	}()
	resp, err := s.solveForm(ctx, j.sc, j.rule, &j.req)
	if err != nil {
		s.jobs.finish(j, time.Now(), nil, err.Error())
		return
	}
	s.jobs.finish(j, time.Now(), resp, "")
}

// handleJobSubmit accepts a VO-formation job: validate and build the
// scenario now (bad requests fail fast with 400), then enqueue and return
// 202 with the job id — or coalesce onto an identical in-flight job.
func (s *Server) handleJobSubmit(w http.ResponseWriter, r *http.Request) {
	var req FormRequest
	if !s.decodeJSON(w, r, &req) {
		return
	}
	sc, rule, err := buildFormRequest(&req)
	if err != nil {
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	// Resolve the engine now so the dedupe key and the worker share the
	// cached scenario pointer.
	sc, _, scKey := s.engineFor(sc)
	j, err := s.jobs.submit(time.Now(), jobKey(scKey, rule, &req), sc, rule, req)
	switch {
	case errors.Is(err, errQueueFull):
		s.metrics.shedded()
		w.Header().Set("Retry-After", "1")
		writeError(w, http.StatusTooManyRequests, "job queue full; retry later")
		return
	case errors.Is(err, errJobsClosed):
		writeError(w, http.StatusServiceUnavailable, "server draining; submit elsewhere")
		return
	case err != nil:
		writeError(w, http.StatusInternalServerError, err.Error())
		return
	}
	snap := s.jobs.snapshot(s.cfg.JobWorkers)
	w.Header().Set("Location", "/v1/jobs/"+j.id)
	writeJSON(w, http.StatusAccepted, JobSubmitResponse{
		ID:         j.id,
		State:      string(JobQueued),
		Deduped:    j.deduped,
		QueueDepth: snap.QueueDepth,
	})
}

// handleJobGet polls a job, optionally long-polling: ?wait=2s (or a bare
// integer, milliseconds) blocks until the job reaches a terminal state,
// the wait elapses, or the client disconnects — then reports whatever
// state the job is in. 200 either way; the FSM state is in the body.
func (s *Server) handleJobGet(w http.ResponseWriter, r *http.Request) {
	j := s.jobs.get(r.PathValue("id"))
	if j == nil {
		writeError(w, http.StatusNotFound, "unknown or expired job id")
		return
	}
	if waitStr := r.URL.Query().Get("wait"); waitStr != "" {
		wait, err := parseWait(waitStr)
		if err != nil {
			writeError(w, http.StatusBadRequest, err.Error())
			return
		}
		if wait > s.cfg.MaxLongPoll {
			wait = s.cfg.MaxLongPoll
		}
		if wait > 0 {
			t := time.NewTimer(wait)
			select {
			case <-j.done:
			case <-t.C:
			case <-r.Context().Done():
			}
			t.Stop()
		}
	}
	writeJSON(w, http.StatusOK, s.jobs.status(j, time.Now()))
}

// parseWait reads a long-poll budget: a Go duration ("500ms", "2s") or a
// bare non-negative integer interpreted as milliseconds.
func parseWait(s string) (time.Duration, error) {
	if n, err := strconv.ParseInt(s, 10, 64); err == nil {
		if n < 0 {
			return 0, fmt.Errorf("negative wait %d", n)
		}
		return time.Duration(n) * time.Millisecond, nil
	}
	d, err := time.ParseDuration(s)
	if err != nil || d < 0 {
		return 0, fmt.Errorf("bad wait %q (want a duration like 2s or milliseconds)", s)
	}
	return d, nil
}
