// Package loadgen drives a gridvod server at a target request rate and
// measures what the service actually sustained: completed RPS, latency
// percentiles, shed and dedupe rates — the capacity-planning numbers
// OPERATIONS.md's sizing guidance is calibrated from.
//
// The generator is open-loop: a dispatcher emits send slots at the target
// rate regardless of how fast the server answers, and a bounded pool of
// client lanes consumes them. When every lane is busy and the slot buffer
// fills, slots are counted as client-dropped — offered load the service
// never saw — so saturation shows up in the report instead of silently
// slowing the generator down (the coordinated-omission trap).
//
// Two modes exercise the two serving paths: "sync" POSTs /v1/vo/form and
// measures request latency; "jobs" POSTs /v1/jobs and long-polls
// GET /v1/jobs/{id}?wait= until the job is terminal, measuring
// submit-to-terminal latency. Compare runs both against identical
// scenario mixes and reports the throughput ratio (BENCH_PR7.json).
//
// As a measurement harness, this package is inherently wall-clock bound;
// the clock reads are confined to Run and its lane helpers and marked
// with reasoned noclock suppressions.
package loadgen

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"gridvo/internal/mechanism"
	"gridvo/internal/server"
	"gridvo/internal/trust"
	"gridvo/internal/xrand"
)

// Options parameterizes one load-generation run.
type Options struct {
	// BaseURL targets an already-running server ("http://host:port");
	// empty self-serves: an in-process server.New(Server) on a loopback
	// listener, shut down (jobs drained) when the run ends.
	BaseURL string
	// Server configures the self-served instance (BaseURL == "" only).
	Server server.Config
	// Mode selects the path: "sync" (/v1/vo/form) or "jobs" (/v1/jobs).
	Mode string
	// RPS is the offered request rate; Duration the run length.
	RPS      float64
	Duration time.Duration
	// Lanes bounds concurrent client requests; 0 selects 4×GOMAXPROCS.
	Lanes int
	// Scenarios is the number of distinct scenarios in the request mix;
	// 0 selects 4. The mix walks them in bursts (below), wrapping around
	// when the run outlives Scenarios×Burst submissions.
	Scenarios int
	// Burst repeats each scenario this many consecutive submissions
	// before moving to the next — the "N concurrent submitters of one
	// popular scenario" pattern whose in-flight duplicates the job tier
	// coalesces; 0 selects 1 (round-robin, no deliberate duplicates).
	Burst int
	// GSPs / Tasks size each generated scenario; 0 selects 6 / 16.
	GSPs, Tasks int
	// Seed drives the deterministic scenario mix.
	Seed uint64
	// Wait is the jobs-mode long-poll budget per GET; 0 selects 2s.
	Wait time.Duration
	// SLOp99, when set, asserts p99 latency ≤ this bound; violations are
	// reported in Result.SLOViolations.
	SLOp99 time.Duration
	// RequireZeroDropped asserts no request was dropped, shed, or failed.
	RequireZeroDropped bool
}

func (o *Options) fillDefaults() {
	if o.Mode == "" {
		o.Mode = "sync"
	}
	if o.Lanes <= 0 {
		o.Lanes = 4 * runtime.GOMAXPROCS(0)
	}
	if o.Scenarios <= 0 {
		o.Scenarios = 4
	}
	if o.Burst <= 0 {
		o.Burst = 1
	}
	if o.GSPs <= 0 {
		o.GSPs = 6
	}
	if o.Tasks <= 0 {
		o.Tasks = 16
	}
	if o.Wait <= 0 {
		o.Wait = 2 * time.Second
	}
}

// Result is one run's measurements.
type Result struct {
	Mode        string  `json:"mode"`
	TargetRPS   float64 `json:"target_rps"`
	DurationSec float64 `json:"duration_sec"`
	Lanes       int     `json:"lanes"`
	Scenarios   int     `json:"scenarios"`
	// Offered counts send slots emitted at the target rate; Dropped the
	// slots no lane was free to serve (client-side saturation); Sent the
	// requests that reached the wire.
	Offered int64 `json:"offered"`
	Dropped int64 `json:"dropped"`
	Sent    int64 `json:"sent"`
	// Completed counts requests that reached a usable terminal outcome
	// (sync 200/504; job done|degraded); Shed counts 429 rejections;
	// Failed transport errors, 5xx, and failed jobs.
	Completed int64 `json:"completed"`
	Shed      int64 `json:"shed"`
	Failed    int64 `json:"failed"`
	// SustainedRPS is Completed / wall time — the number the ISSUE's
	// sync-vs-jobs comparison is about.
	SustainedRPS float64 `json:"sustained_rps"`
	// Latency percentiles over completed requests, milliseconds. In jobs
	// mode the latency is submit-to-terminal (queue + solve + poll).
	P50MS float64 `json:"p50_ms"`
	P95MS float64 `json:"p95_ms"`
	P99MS float64 `json:"p99_ms"`
	MaxMS float64 `json:"max_ms"`
	// DedupedDelta / ShedDelta / JobsQueuedDelta are server-side counter
	// movements over the run (from /metrics before and after); zero when
	// the target exposes no /metrics.
	DedupedDelta    int64 `json:"deduped_delta"`
	ShedDelta       int64 `json:"shed_delta"`
	JobsQueuedDelta int64 `json:"jobs_queued_delta"`
	// Trajectory is completed requests per second of the run.
	Trajectory []int64 `json:"trajectory"`
	// SLOViolations lists every violated assertion; empty = SLO met.
	SLOViolations []string `json:"slo_violations,omitempty"`
}

// mix builds the deterministic request mix: Scenarios distinct specs,
// sized GSPs×Tasks, marshalled once. Submission n reuses body
// (n/Burst)%Scenarios verbatim, so a burst's in-flight duplicates share
// a dedupe key.
func mix(o *Options) ([][]byte, error) {
	bodies := make([][]byte, o.Scenarios)
	for i := range bodies {
		rng := xrand.New(o.Seed + uint64(i)*1000003)
		tg := trust.ErdosRenyi(rng.Split("trust"), o.GSPs, 0.5)
		trust.EnsureEveryNodeTrusted(rng.Split("fix"), tg)
		sp := mechanism.ScenarioSpec{
			GSPs:     make([]mechanism.GSPSpec, o.GSPs),
			Tasks:    make([]float64, o.Tasks),
			Deadline: 4000,
			Payment:  8000 * float64(o.Tasks) / 12,
			Trust:    tg,
		}
		for g := range sp.GSPs {
			sp.GSPs[g] = mechanism.GSPSpec{
				Name:        fmt.Sprintf("g%d-%d", i, g),
				SpeedGFLOPS: rng.Uniform(120, 500),
			}
		}
		for t := range sp.Tasks {
			sp.Tasks[t] = rng.Uniform(20000, 40000)
		}
		body, err := json.Marshal(map[string]any{
			"scenario": sp,
			"seed":     o.Seed + uint64(i),
		})
		if err != nil {
			return nil, err
		}
		bodies[i] = body
	}
	return bodies, nil
}

// runner is the per-run shared state of the client lanes.
type runner struct {
	opts   *Options
	base   string
	client *http.Client
	bodies [][]byte
	t0     time.Time // run start, set before any lane consumes a slot

	sent      atomic.Int64
	completed atomic.Int64
	shed      atomic.Int64
	failed    atomic.Int64

	mu         sync.Mutex
	latencies  []time.Duration
	trajectory []int64
}

// Run drives the target (or a self-served instance) for opts.Duration at
// opts.RPS and returns the measurements. The error is non-nil only for
// setup failures; SLO violations land in Result.SLOViolations so callers
// decide the exit code.
//
//gridvolint:ignore noclock a load generator measures real wall-clock latency by definition
func Run(ctx context.Context, opts Options) (*Result, error) {
	opts.fillDefaults()
	if opts.Mode != "sync" && opts.Mode != "jobs" {
		return nil, fmt.Errorf("unknown mode %q (want sync or jobs)", opts.Mode)
	}
	if opts.RPS <= 0 || opts.Duration <= 0 {
		return nil, fmt.Errorf("need positive rps and duration (got %v, %v)", opts.RPS, opts.Duration)
	}
	bodies, err := mix(&opts)
	if err != nil {
		return nil, err
	}

	base := opts.BaseURL
	var stopServer func() error
	if base == "" {
		var err error
		base, stopServer, err = selfServe(opts.Server)
		if err != nil {
			return nil, err
		}
	}

	r := &runner{
		opts:   &opts,
		base:   base,
		client: &http.Client{Timeout: 30 * time.Second},
		bodies: bodies,
	}
	before := r.metrics()

	slots := make(chan struct{}, opts.Lanes)
	var offered, dropped int64
	var wg sync.WaitGroup
	r.t0 = time.Now()
	for i := 0; i < opts.Lanes; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for range slots {
				r.one(ctx)
			}
		}()
	}

	start := r.t0
	interval := time.Duration(float64(time.Second) / opts.RPS)
	if interval <= 0 {
		interval = time.Microsecond
	}
	ticker := time.NewTicker(interval)
dispatch:
	for time.Since(start) < opts.Duration {
		select {
		case <-ticker.C:
			offered++
			select {
			case slots <- struct{}{}:
			default:
				dropped++
			}
		case <-ctx.Done():
			break dispatch
		}
	}
	ticker.Stop()
	close(slots)
	wg.Wait()
	wall := time.Since(start)

	after := r.metrics()
	if stopServer != nil {
		if err := stopServer(); err != nil {
			return nil, err
		}
	}

	res := &Result{
		Mode:        opts.Mode,
		TargetRPS:   opts.RPS,
		DurationSec: wall.Seconds(),
		Lanes:       opts.Lanes,
		Scenarios:   opts.Scenarios,
		Offered:     offered,
		Dropped:     dropped,
		Sent:        r.sent.Load(),
		Completed:   r.completed.Load(),
		Shed:        r.shed.Load(),
		Failed:      r.failed.Load(),
	}
	if wall > 0 {
		res.SustainedRPS = float64(res.Completed) / wall.Seconds()
	}
	r.mu.Lock()
	res.Trajectory = append([]int64(nil), r.trajectory...)
	lats := append([]time.Duration(nil), r.latencies...)
	r.mu.Unlock()
	sort.Slice(lats, func(a, b int) bool { return lats[a] < lats[b] })
	res.P50MS = pctMS(lats, 0.50)
	res.P95MS = pctMS(lats, 0.95)
	res.P99MS = pctMS(lats, 0.99)
	if n := len(lats); n > 0 {
		res.MaxMS = float64(lats[n-1]) / float64(time.Millisecond)
	}
	if before != nil && after != nil {
		res.DedupedDelta = after.Jobs.Deduped - before.Jobs.Deduped
		res.ShedDelta = after.ShedTotal - before.ShedTotal
		res.JobsQueuedDelta = after.Jobs.Queued - before.Jobs.Queued
	}

	if opts.SLOp99 > 0 && res.P99MS > float64(opts.SLOp99)/float64(time.Millisecond) {
		res.SLOViolations = append(res.SLOViolations,
			fmt.Sprintf("p99 %.1fms exceeds SLO %s", res.P99MS, opts.SLOp99))
	}
	if opts.RequireZeroDropped {
		if res.Dropped > 0 {
			res.SLOViolations = append(res.SLOViolations,
				fmt.Sprintf("%d offered requests dropped client-side", res.Dropped))
		}
		if res.Shed > 0 {
			res.SLOViolations = append(res.SLOViolations,
				fmt.Sprintf("%d requests shed by the server (429)", res.Shed))
		}
		if res.Failed > 0 {
			res.SLOViolations = append(res.SLOViolations,
				fmt.Sprintf("%d requests failed", res.Failed))
		}
	}
	if res.Completed == 0 {
		res.SLOViolations = append(res.SLOViolations, "no request completed")
	}
	return res, nil
}

// selfServe boots an in-process server on a loopback listener and returns
// its base URL plus a stopper that drains jobs and waits for shutdown.
func selfServe(cfg server.Config) (string, func() error, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", nil, err
	}
	srv := server.New(cfg)
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- srv.Serve(ctx, ln, 30*time.Second) }()
	stop := func() error {
		cancel()
		return <-done
	}
	return "http://" + ln.Addr().String(), stop, nil
}

// one serves a single send slot: issue the request for the round-robin
// body, follow the mode's completion protocol, and record the outcome.
//
//gridvolint:ignore noclock latency measurement is the point of a load generator
func (r *runner) one(ctx context.Context) {
	n := r.sent.Add(1)
	body := r.bodies[(int(n)/r.opts.Burst)%len(r.bodies)]
	start := time.Now()
	var ok bool
	if r.opts.Mode == "sync" {
		ok = r.oneSync(ctx, body)
	} else {
		ok = r.oneJob(ctx, body)
	}
	if !ok {
		return
	}
	elapsed := time.Since(start)
	r.completed.Add(1)
	// Bucket by completion time relative to the run's first slot — the
	// per-second throughput trajectory.
	bucket := int(time.Since(r.t0) / time.Second)
	if bucket < 0 {
		bucket = 0
	}
	r.mu.Lock()
	r.latencies = append(r.latencies, elapsed)
	for len(r.trajectory) <= bucket {
		r.trajectory = append(r.trajectory, 0)
	}
	r.trajectory[bucket]++
	r.mu.Unlock()
}

// oneSync POSTs /v1/vo/form; 200 and 504 (partial) both count as
// completed — the server answered with a result.
func (r *runner) oneSync(ctx context.Context, body []byte) bool {
	status, _, err := r.post(ctx, "/v1/vo/form", body)
	switch {
	case err != nil:
		r.failed.Add(1)
		return false
	case status == http.StatusOK || status == http.StatusGatewayTimeout:
		return true
	case status == http.StatusTooManyRequests:
		r.shed.Add(1)
		return false
	default:
		r.failed.Add(1)
		return false
	}
}

// oneJob POSTs /v1/jobs and long-polls until the job is terminal.
func (r *runner) oneJob(ctx context.Context, body []byte) bool {
	status, data, err := r.post(ctx, "/v1/jobs", body)
	switch {
	case err != nil:
		r.failed.Add(1)
		return false
	case status == http.StatusTooManyRequests:
		r.shed.Add(1)
		return false
	case status != http.StatusAccepted:
		r.failed.Add(1)
		return false
	}
	var sub struct {
		ID string `json:"id"`
	}
	if err := json.Unmarshal(data, &sub); err != nil || sub.ID == "" {
		r.failed.Add(1)
		return false
	}
	waitMS := int64(r.opts.Wait / time.Millisecond)
	url := fmt.Sprintf("%s/v1/jobs/%s?wait=%d", r.base, sub.ID, waitMS)
	for {
		req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
		if err != nil {
			r.failed.Add(1)
			return false
		}
		resp, err := r.client.Do(req)
		if err != nil {
			r.failed.Add(1)
			return false
		}
		data, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil || resp.StatusCode != http.StatusOK {
			r.failed.Add(1)
			return false
		}
		var st struct {
			State string `json:"state"`
		}
		if err := json.Unmarshal(data, &st); err != nil {
			r.failed.Add(1)
			return false
		}
		switch st.State {
		case "done", "degraded":
			return true
		case "failed":
			r.failed.Add(1)
			return false
		}
		if ctx.Err() != nil {
			r.failed.Add(1)
			return false
		}
	}
}

func (r *runner) post(ctx context.Context, path string, body []byte) (int, []byte, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, r.base+path, bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := r.client.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return resp.StatusCode, nil, err
	}
	return resp.StatusCode, data, nil
}

// metrics fetches the target's /metrics snapshot; nil when unavailable.
func (r *runner) metrics() *server.MetricsSnapshot {
	resp, err := r.client.Get(r.base + "/metrics")
	if err != nil {
		return nil
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil
	}
	var snap server.MetricsSnapshot
	if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
		return nil
	}
	return &snap
}

// pctMS returns the p-quantile of sorted latencies, in milliseconds.
func pctMS(sorted []time.Duration, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(p * float64(len(sorted)-1))
	return float64(sorted[i]) / float64(time.Millisecond)
}

// Report is the sync-vs-jobs comparison document
// (BENCH_PR7.json): both modes run against identical scenario mixes and
// offered load; RPSRatio is the headline jobs-over-sync throughput gain.
type Report struct {
	Tool string `json:"tool"`
	Seed uint64 `json:"seed"`
	// Workers / QueueDepth / Shards record the job-tier configuration the
	// comparison ran with.
	Workers    int     `json:"workers"`
	QueueDepth int     `json:"queue_depth"`
	Shards     int     `json:"shards"`
	Sync       *Result `json:"sync"`
	Jobs       *Result `json:"jobs"`
	// RPSRatio is jobs sustained RPS / sync sustained RPS (>1 means the
	// async tier sustained more of the same offered load).
	RPSRatio float64 `json:"rps_ratio"`
	Note     string  `json:"note,omitempty"`
}

// Compare runs the same offered load through the sync path and the job
// tier and reports both. opts.Mode is ignored; BaseURL must be empty
// (each side gets its own fresh self-served instance, so neither inherits
// the other's warm engine cache).
func Compare(ctx context.Context, opts Options) (*Report, error) {
	if opts.BaseURL != "" {
		return nil, fmt.Errorf("Compare self-serves; BaseURL must be empty")
	}
	opts.fillDefaults()
	syncOpts := opts
	syncOpts.Mode = "sync"
	syncRes, err := Run(ctx, syncOpts)
	if err != nil {
		return nil, fmt.Errorf("sync side: %w", err)
	}
	jobOpts := opts
	jobOpts.Mode = "jobs"
	jobRes, err := Run(ctx, jobOpts)
	if err != nil {
		return nil, fmt.Errorf("jobs side: %w", err)
	}
	cfg := opts.Server
	rep := &Report{
		Tool:       "loadgen",
		Seed:       opts.Seed,
		Workers:    cfg.JobWorkers,
		QueueDepth: cfg.JobQueueDepth,
		Shards:     cfg.EngineCacheShards,
		Sync:       syncRes,
		Jobs:       jobRes,
		Note: "same offered load and scenario mix per side; fresh server per side " +
			"(no shared engine cache); jobs latency is submit-to-terminal",
	}
	if syncRes.SustainedRPS > 0 {
		rep.RPSRatio = jobRes.SustainedRPS / syncRes.SustainedRPS
	}
	return rep, nil
}
