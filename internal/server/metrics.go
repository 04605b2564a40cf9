package server

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"gridvo/internal/mechanism"
)

// latencyBucketsMS are the upper bounds (milliseconds) of the request
// latency histogram, log-spaced from 1 ms to 10 s plus an overflow bucket.
var latencyBucketsMS = []float64{1, 5, 25, 100, 500, 2500, 10000}

// Metrics holds the server's expvar-style counters: monotonically
// increasing atomics plus the engine totals under mu, snapshotted as one
// JSON document by GET /metrics. All methods are safe for concurrent use.
type Metrics struct {
	start time.Time

	mu       sync.Mutex
	requests map[string]*atomic.Int64 // per-route request counts

	inFlight  atomic.Int64
	responses [6]atomic.Int64 // status class: index 2 = 2xx, 4 = 4xx, 5 = 5xx

	// shed / panics count load-shedded requests (429) and handler panics
	// contained by the middleware.
	shed   atomic.Int64
	panics atomic.Int64

	// engine sums every request's solver-engine delta; guarded by mu.
	engine mechanism.EngineStats

	latency struct {
		buckets []atomic.Int64 // len(latencyBucketsMS)+1, last = overflow
		count   atomic.Int64
		sumNS   atomic.Int64
	}
}

// NewMetrics creates an empty metrics registry anchored at now.
func NewMetrics() *Metrics {
	m := &Metrics{start: time.Now(), requests: map[string]*atomic.Int64{}}
	m.latency.buckets = make([]atomic.Int64, len(latencyBucketsMS)+1)
	return m
}

// request counts an arriving request on a route and marks it in flight.
func (m *Metrics) request(route string) {
	m.mu.Lock()
	c := m.requests[route]
	if c == nil {
		c = &atomic.Int64{}
		m.requests[route] = c
	}
	m.mu.Unlock()
	c.Add(1)
	m.inFlight.Add(1)
}

// response records the terminal status and latency of a request and takes
// it out of flight.
func (m *Metrics) response(status int, elapsed time.Duration) {
	m.inFlight.Add(-1)
	if class := status / 100; class >= 0 && class < len(m.responses) {
		m.responses[class].Add(1)
	}
	ms := float64(elapsed) / float64(time.Millisecond)
	i := 0
	for i < len(latencyBucketsMS) && ms > latencyBucketsMS[i] {
		i++
	}
	m.latency.buckets[i].Add(1)
	m.latency.count.Add(1)
	m.latency.sumNS.Add(int64(elapsed))
}

// shedded counts a request rejected with 429 because every solve slot was
// busy.
func (m *Metrics) shedded() { m.shed.Add(1) }

// panicked counts a handler panic contained by the middleware.
func (m *Metrics) panicked() { m.panics.Add(1) }

// addEngine folds one request's solver-engine delta into the totals.
func (m *Metrics) addEngine(s mechanism.EngineStats) {
	m.mu.Lock()
	m.engine = m.engine.Add(s)
	m.mu.Unlock()
}

// EngineTotals returns the cumulative engine stats served so far.
func (m *Metrics) EngineTotals() mechanism.EngineStats {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.engine
}

// MetricsSnapshot is the JSON document GET /metrics returns.
type MetricsSnapshot struct {
	UptimeSeconds float64          `json:"uptime_seconds"`
	Requests      map[string]int64 `json:"requests"`
	Responses     map[string]int64 `json:"responses"`
	InFlight      int64            `json:"in_flight"`
	// Routes lists every registered route pattern — the machine-readable
	// API surface the docs-coverage CI check compares against API.md.
	Routes []string `json:"routes"`
	// Engines counts live engines in the LRU; the engine block is the
	// cumulative solver activity across all requests (evicted engines
	// included).
	Engines int             `json:"engines"`
	Engine  EngineStatsJSON `json:"engine"`
	// EngineCache is the scenario-engine LRU's entries, hits, misses and
	// hit rate.
	EngineCache mechanism.CacheStats `json:"engine_cache"`
	// Jobs is the async tier: queue occupancy, worker pool, dedupe and
	// terminal-state counters.
	Jobs JobsSnapshot `json:"jobs"`
	// ShedTotal / PanicsTotal count 429 load-shed rejections and contained
	// handler panics.
	ShedTotal   int64           `json:"shed_total"`
	PanicsTotal int64           `json:"panics_total"`
	Latency     LatencySnapshot `json:"latency_ms"`
}

// LatencySnapshot is the request latency histogram in milliseconds.
type LatencySnapshot struct {
	// Buckets maps "le_<bound>" (and "le_inf") to cumulative-free counts
	// per bucket.
	Buckets map[string]int64 `json:"buckets"`
	Count   int64            `json:"count"`
	SumMS   float64          `json:"sum_ms"`
}

// Snapshot captures the current counter values alongside the engine
// cache's stats, the job tier's counters, and the registered routes.
func (m *Metrics) Snapshot(cache mechanism.CacheStats, jobs JobsSnapshot, routes []string) MetricsSnapshot {
	snap := MetricsSnapshot{
		UptimeSeconds: time.Since(m.start).Seconds(),
		Requests:      map[string]int64{},
		Responses:     map[string]int64{},
		InFlight:      m.inFlight.Load(),
		Routes:        routes,
		Engines:       cache.Entries,
		Engine:        engineStatsJSON(m.EngineTotals()),
		EngineCache:   cache,
		Jobs:          jobs,
		ShedTotal:     m.shed.Load(),
		PanicsTotal:   m.panics.Load(),
	}
	// Emit routes in sorted order (the gridvolint maporder pattern):
	// encoding/json happens to sort map keys today, but the snapshot's
	// determinism should not hinge on the encoder's implementation.
	m.mu.Lock()
	seen := make([]string, 0, len(m.requests))
	for route := range m.requests {
		seen = append(seen, route)
	}
	sort.Strings(seen)
	for _, route := range seen {
		snap.Requests[route] = m.requests[route].Load()
	}
	m.mu.Unlock()
	classes := [...]string{"", "1xx", "2xx", "3xx", "4xx", "5xx"}
	for i, name := range classes {
		if name == "" {
			continue
		}
		if v := m.responses[i].Load(); v > 0 {
			snap.Responses[name] = v
		}
	}
	snap.Latency.Buckets = map[string]int64{}
	for i, bound := range latencyBucketsMS {
		snap.Latency.Buckets[fmt.Sprintf("le_%g", bound)] = m.latency.buckets[i].Load()
	}
	snap.Latency.Buckets["le_inf"] = m.latency.buckets[len(latencyBucketsMS)].Load()
	snap.Latency.Count = m.latency.count.Load()
	snap.Latency.SumMS = float64(m.latency.sumNS.Load()) / float64(time.Millisecond)
	return snap
}
