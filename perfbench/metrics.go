package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sort"
	"strings"
	"sync"
)

// metricDef declares one reported metric. The lists below are the
// benchmark's contract; BENCHMARK.json at the repository root repeats
// them (metrics_test.go keeps the two in step).
type metricDef struct {
	Name   string
	Unit   string
	Better string
}

// endToEnd are the metrics a user of gridvo sees, reported by untraced
// runs of every workload.
var endToEnd = []metricDef{
	{"goodput_rps", "1/s", "higher"},
	{"p50_ms", "ms", "lower"},
	{"peak_rss_mb", "MB", "lower"},
	{"rps", "1/s", "higher"},
	{"setup_s", "s", "lower"},
	{"sweep_s", "s", "lower"},
	{"tail_ms", "ms", "lower"},
}

// perLayer are the traced run's metrics, one group per layer. A layer a
// workload does not exercise reports 0.
var perLayer = []metricDef{
	{"assign.budget_hit_frac", "ratio", "lower"},
	{"assign.gap_max", "ratio", "lower"},
	{"assign.gap_p50", "ratio", "lower"},
	{"assign.heuristic_ms", "ms", "lower"},
	{"assign.nodes", "count", "lower"},
	{"assign.ns_per_node", "ns", "lower"},
	{"assign.proved_frac", "ratio", "higher"},
	{"assign.search_ms", "ms", "lower"},
	{"assign.seed_accepted_frac", "ratio", "higher"},
	{"assign.solve_ms.p50", "ms", "lower"},
	{"assign.solve_ms.tail", "ms", "lower"},
	{"driver.failed_frac", "ratio", "lower"},
	{"driver.lag_ms_max", "ms", "lower"},
	{"driver.samples", "count", "higher"},
	{"driver.tail_pct", "%", "higher"},
	{"mechanism.iterations", "count", "lower"},
	{"mechanism.loop_self_ms", "ms", "lower"},
	{"mechanism.memo_hit_rate", "ratio", "higher"},
	{"mechanism.power_iters", "count", "lower"},
	{"mechanism.power_iters_saved", "count", "higher"},
	{"mechanism.run_ms", "ms", "lower"},
	{"mechanism.scenario_key_us", "us", "lower"},
	{"mechanism.spec_build_us", "us", "lower"},
	{"mechanism.warm_start_rate", "ratio", "higher"},
	{"reputation.global_ms", "ms", "lower"},
	{"reputation.iters", "count", "lower"},
	{"reputation.ns_per_nnz_iter", "ns", "lower"},
	{"reputation.power_ms", "ms", "lower"},
	{"reputation.warm_iters", "count", "lower"},
	{"server.decode_us", "us", "lower"},
	{"server.dedupe_frac", "ratio", "higher"},
	{"server.encode_us", "us", "lower"},
	{"server.enginecache_hit_rate", "ratio", "higher"},
	{"server.job_run_ms", "ms", "lower"},
	{"server.overhead_ms", "ms", "lower"},
	{"server.queue_ms", "ms", "lower"},
	{"server.shed", "count", "lower"},
	{"sim.build_ms", "ms", "lower"},
	{"sim.env_ms", "ms", "lower"},
	{"sim.feasibility_retries", "count", "lower"},
	{"trace.overhead_frac", "ratio", "lower"},
	{"trace.self.assign_ms", "ms", "lower"},
	{"trace.self.driver_ms", "ms", "lower"},
	{"trace.self.mechanism_ms", "ms", "lower"},
	{"trace.self.reputation_ms", "ms", "lower"},
	{"trace.self.server_ms", "ms", "lower"},
	{"trace.self.sim_ms", "ms", "lower"},
	{"trace.self.trust_ms", "ms", "lower"},
	{"trace.unattributed_frac", "ratio", "lower"},
	{"trust.alloc_bytes_per_op", "B", "lower"},
	{"trust.apply_ms", "ms", "lower"},
	{"trust.normalize_ms", "ms", "lower"},
}

// metricValue is one metric in the result line.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// resultLine is the last line of standard output.
type resultLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// report collects one run's measurements, operation counts and
// correctness failures. It is safe for concurrent use.
type report struct {
	log io.Writer

	mu        sync.Mutex
	values    map[string]float64
	attempted int64
	failed    int64
	failures  []string
	notes     []string
}

func newReport(log io.Writer) *report {
	return &report{log: log, values: map[string]float64{}}
}

// set records a metric value.
func (r *report) set(name string, v float64) {
	r.mu.Lock()
	r.values[name] = v
	r.mu.Unlock()
}

// zero presets every listed metric to 0, for layers a workload does not
// exercise.
func (r *report) zero(defs []metricDef) {
	r.mu.Lock()
	for _, d := range defs {
		r.values[d.Name] = 0
	}
	r.mu.Unlock()
}

// ops adds attempted and failed operations.
func (r *report) ops(attempted, failed int64) {
	r.mu.Lock()
	r.attempted += attempted
	r.failed += failed
	r.mu.Unlock()
}

// checkf records a failed correctness check. The run still prints its
// result line, with correct=false, and exits 1.
func (r *report) checkf(format string, args ...any) {
	msg := fmt.Sprintf(format, args...)
	r.mu.Lock()
	if len(r.failures) < 20 {
		fmt.Fprintln(r.log, "perfbench: check failed:", msg)
	}
	r.failures = append(r.failures, msg)
	r.mu.Unlock()
}

// notef adds a line to the human-readable summary.
func (r *report) notef(format string, args ...any) {
	r.mu.Lock()
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
	r.mu.Unlock()
}

func (r *report) correct() bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.failures) == 0
}

// resultLine renders the JSON result for the given metric list. Every
// listed metric must have been set and be finite; encoding/json writes
// the map keys in sorted order.
func (r *report) resultLine(defs []metricDef) ([]byte, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := resultLine{
		Correct:   len(r.failures) == 0,
		Attempted: r.attempted,
		Failed:    r.failed,
		Metrics:   make(map[string]metricValue, len(defs)),
	}
	if out.Attempted < 1 {
		return nil, fmt.Errorf("no operation was attempted")
	}
	for _, d := range defs {
		v, ok := r.values[d.Name]
		if !ok {
			return nil, fmt.Errorf("metric %s was not measured", d.Name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("metric %s is not finite (%v)", d.Name, v)
		}
		out.Metrics[d.Name] = metricValue{Value: v, Unit: d.Unit}
	}
	return json.Marshal(out)
}

// summary prints the human-readable lines that precede the result line.
func (r *report) summary(w io.Writer, rc *runConfig) {
	r.mu.Lock()
	defer r.mu.Unlock()
	fmt.Fprintf(w, "workload %s seed %d seconds %.0f trace %v: %d attempted, %d failed, %d check failures\n",
		rc.name, rc.seed, rc.seconds.Seconds(), rc.trace, r.attempted, r.failed, len(r.failures))
	for _, n := range r.notes {
		fmt.Fprintln(w, "  "+n)
	}
	names := make([]string, 0, len(r.values))
	for n := range r.values {
		names = append(names, n)
	}
	sort.Strings(names)
	var b strings.Builder
	for _, n := range names {
		fmt.Fprintf(&b, "  %-30s %.6g\n", n, r.values[n])
	}
	fmt.Fprint(w, b.String())
}
