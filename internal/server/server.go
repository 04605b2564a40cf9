package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"runtime"
	"time"

	"gridvo/internal/assign"
	"gridvo/internal/mechanism"
	"gridvo/internal/trust"
)

// Config parameterizes a Server. The zero value selects sensible defaults
// for every field.
type Config struct {
	// DefaultTimeout is the per-request solve budget applied when a
	// request carries no timeout_ms; 0 means no default budget.
	DefaultTimeout time.Duration
	// MaxTimeout caps any per-request budget (requested or default); 0
	// selects 60s. Budgets above the cap are clamped, not rejected.
	MaxTimeout time.Duration
	// MaxBodyBytes bounds request bodies; oversized requests get 413.
	// 0 selects 8 MiB.
	MaxBodyBytes int64
	// MaxInFlight bounds concurrently served solve requests (healthz and
	// metrics are exempt); excess requests are shed immediately with 429
	// and a Retry-After header rather than queued unboundedly. 0 selects
	// 2×GOMAXPROCS.
	MaxInFlight int
	// EngineCacheSize bounds the scenario-engine LRU. 0 selects 64.
	EngineCacheSize int
	// JobQueueDepth bounds the async job queue drained by the worker
	// pool; a full queue sheds new submissions with 429. 0 selects 256.
	JobQueueDepth int
	// JobWorkers sets the worker-pool size draining the job queue.
	// 0 selects GOMAXPROCS.
	JobWorkers int
	// JobTTL bounds how long a terminal job stays pollable before GC;
	// 0 selects 5m.
	JobTTL time.Duration
	// MaxLongPoll caps the ?wait= long-poll budget of GET /v1/jobs/{id};
	// 0 selects 30s.
	MaxLongPoll time.Duration
	// Solver configures the branch-and-bound of every engine the server
	// creates.
	Solver assign.Options
}

func (c *Config) fillDefaults() {
	if c.MaxTimeout == 0 {
		c.MaxTimeout = 60 * time.Second
	}
	if c.MaxBodyBytes == 0 {
		c.MaxBodyBytes = 8 << 20
	}
	if c.MaxInFlight == 0 {
		c.MaxInFlight = 2 * runtime.GOMAXPROCS(0)
	}
	if c.EngineCacheSize == 0 {
		c.EngineCacheSize = 64
	}
	if c.JobQueueDepth == 0 {
		c.JobQueueDepth = 256
	}
	if c.JobWorkers == 0 {
		c.JobWorkers = runtime.GOMAXPROCS(0)
	}
	if c.JobTTL == 0 {
		c.JobTTL = 5 * time.Minute
	}
	if c.MaxLongPoll == 0 {
		c.MaxLongPoll = 30 * time.Second
	}
}

// Server is the gridvod HTTP API: VO formation, reputation, and coalition
// assignment served from the library's solve engines, with per-scenario
// engine reuse, per-request deadlines, a concurrency limit, and
// expvar-style metrics. Build one with New and mount Handler, or run
// ListenAndServe for the full daemon lifecycle.
type Server struct {
	cfg     Config
	metrics *Metrics
	engines *mechanism.EngineCache
	store   *trust.Store
	jobs    *jobManager
	sem     chan struct{}
	mux     *http.ServeMux
	routes  []string
}

// routeClass selects the middleware a route gets.
type routeClass int

const (
	// routeOpen bypasses the solve semaphore and the body cap (GETs,
	// health, metrics, job polls — none of them solve or ingest bodies).
	routeOpen routeClass = iota
	// routeSolve takes a solve slot (429 when saturated) and caps the
	// request body — the synchronous solve endpoints.
	routeSolve
	// routeIngest caps the request body but takes no solve slot: job
	// submission is cheap bookkeeping; the bounded queue is its
	// backpressure (429 comes from queue-full, not the semaphore).
	routeIngest
)

// New builds a server with its routes registered and its job worker pool
// running. A server that should stop cleanly calls Serve (which drains
// the pool on shutdown) or DrainJobs directly.
func New(cfg Config) *Server {
	cfg.fillDefaults()
	s := &Server{
		cfg:     cfg,
		metrics: NewMetrics(),
		engines: mechanism.NewEngineCache(cfg.EngineCacheSize),
		store:   trust.NewStore(0),
		jobs:    newJobManager(cfg.JobQueueDepth, cfg.JobTTL),
		sem:     make(chan struct{}, cfg.MaxInFlight),
		mux:     http.NewServeMux(),
	}
	s.handle("POST", "/v1/reputation", routeSolve, s.handleReputation)
	s.handle("POST", "/v1/trust/delta", routeSolve, s.handleTrustDelta)
	s.handle("GET", "/v1/trust/stats", routeOpen, s.handleTrustStats)
	s.handle("POST", "/v1/vo/form", routeSolve, s.handleForm)
	s.handle("POST", "/v1/assign", routeSolve, s.handleAssign)
	s.handle("POST", "/v1/jobs", routeIngest, s.handleJobSubmit)
	s.handle("GET", "/v1/jobs/{id}", routeOpen, s.handleJobGet)
	s.handle("GET", "/healthz", routeOpen, s.handleHealthz)
	s.handle("GET", "/metrics", routeOpen, s.handleMetrics)
	for i := 0; i < cfg.JobWorkers; i++ {
		s.jobs.wg.Add(1)
		go s.jobWorker()
	}
	return s
}

// handle registers one route, recording its path for the /metrics route
// listing (which the API-docs CI check reads).
func (s *Server) handle(method, path string, class routeClass, h http.HandlerFunc) {
	s.routes = append(s.routes, path)
	s.mux.HandleFunc(method+" "+path, s.wrap(path, class, h))
}

// statusWriter records the status code a handler wrote.
type statusWriter struct {
	http.ResponseWriter
	status int
}

func (w *statusWriter) WriteHeader(code int) {
	w.status = code
	w.ResponseWriter.WriteHeader(code)
}

// wrap applies the common middleware: request metrics, panic containment,
// then per-class handling — the solve semaphore and body cap for
// routeSolve, the body cap alone for routeIngest, nothing extra for
// routeOpen.
func (s *Server) wrap(route string, class routeClass, h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		s.metrics.request(route)
		sw := &statusWriter{ResponseWriter: w, status: http.StatusOK}
		defer func() {
			s.metrics.response(sw.status, time.Since(start))
		}()
		// Panic containment: a handler panic (e.g. a malformed instance
		// that slipped past validation into the solver) becomes a 500
		// JSON error instead of a dropped connection.
		defer func() {
			if rec := recover(); rec != nil {
				s.metrics.panicked()
				writeError(sw, http.StatusInternalServerError, fmt.Sprintf("internal error: %v", rec))
			}
		}()
		if class == routeSolve {
			// Load shedding: when every solve slot is busy, reject
			// immediately with 429 + Retry-After instead of queueing
			// unboundedly — queued solves would start with their deadline
			// already partly spent and amplify the overload.
			select {
			case s.sem <- struct{}{}:
				defer func() { <-s.sem }()
			default:
				s.metrics.shedded()
				sw.Header().Set("Retry-After", "1")
				writeError(sw, http.StatusTooManyRequests, "server saturated; retry later")
				return
			}
		}
		if class == routeSolve || class == routeIngest {
			r.Body = http.MaxBytesReader(sw, r.Body, s.cfg.MaxBodyBytes)
		}
		h(sw, r)
	}
}

// writeJSON writes a JSON body with the given status.
func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

// writeError writes the uniform error body.
func writeError(w http.ResponseWriter, status int, msg string) {
	writeJSON(w, status, ErrorResponse{Error: msg})
}

// decodeJSON parses the request body into dst. It reports whether
// decoding succeeded; on failure writeDecodeError has already answered.
func (s *Server) decodeJSON(w http.ResponseWriter, r *http.Request, dst any) bool {
	if err := json.NewDecoder(r.Body).Decode(dst); err != nil {
		writeDecodeError(w, err)
		return false
	}
	return true
}

// writeDecodeError translates a failed body decode to the API's status
// codes: 413 for oversized bodies, 400 otherwise.
func writeDecodeError(w http.ResponseWriter, err error) {
	var maxErr *http.MaxBytesError
	if errors.As(err, &maxErr) {
		writeError(w, http.StatusRequestEntityTooLarge,
			fmt.Sprintf("request body exceeds %d bytes", maxErr.Limit))
		return
	}
	writeError(w, http.StatusBadRequest, "malformed JSON: "+err.Error())
}

// budget resolves the solve budget for a request: its timeout_ms when
// given, else the server default, clamped to MaxTimeout. 0 means no
// budget.
func (s *Server) budget(timeoutMS int64) time.Duration {
	d := s.cfg.DefaultTimeout
	if timeoutMS > 0 {
		d = time.Duration(timeoutMS) * time.Millisecond
	}
	if s.cfg.MaxTimeout > 0 && (d <= 0 || d > s.cfg.MaxTimeout) {
		d = s.cfg.MaxTimeout
	}
	if d < 0 {
		d = 0
	}
	return d
}

// withBudget derives a context bounded by d (0 = unbounded). Job workers
// parent on context.Background() so a queued job survives its submitter's
// disconnect; the sync path parents on the request context.
func withBudget(parent context.Context, d time.Duration) (context.Context, context.CancelFunc) {
	if d <= 0 {
		return context.WithCancel(parent)
	}
	return context.WithTimeout(parent, d)
}

// solveContext is withBudget parented on the request's own context, so
// client disconnects cancel in-flight synchronous solves too.
func (s *Server) solveContext(r *http.Request, timeoutMS int64) (context.Context, context.CancelFunc) {
	return withBudget(r.Context(), s.budget(timeoutMS))
}

// ListenAndServe serves the API on addr until ctx is cancelled, then
// shuts down gracefully, draining in-flight requests for up to drain
// (0 = 10s). It returns nil on a clean shutdown.
func (s *Server) ListenAndServe(ctx context.Context, addr string, drain time.Duration) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	return s.Serve(ctx, ln, drain)
}

// Serve is ListenAndServe on an existing listener (tests use a :0
// listener to pick a free port).
func (s *Server) Serve(ctx context.Context, ln net.Listener, drain time.Duration) error {
	if drain <= 0 {
		drain = 10 * time.Second
	}
	hs := &http.Server{Handler: s.mux}
	errc := make(chan error, 1)
	go func() { errc <- hs.Serve(ln) }()
	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
		sctx, cancel := context.WithTimeout(context.Background(), drain)
		defer cancel()
		// Stop accepting HTTP first, then finish queued jobs: a drained
		// listener guarantees no new submissions race the queue close.
		httpErr := hs.Shutdown(sctx)
		if err := s.DrainJobs(sctx); err != nil {
			return err
		}
		return httpErr
	}
}

// DrainJobs stops the job tier: new submissions get 503, workers finish
// every queued job, and the call blocks until the pool exits or ctx
// expires. Idempotent; tests and embedders use it to stop the worker
// goroutines New started.
func (s *Server) DrainJobs(ctx context.Context) error {
	return s.jobs.drain(ctx)
}
