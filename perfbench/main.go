// Command perfbench is gridvo's end-to-end benchmark. It runs one named
// workload against the program's packages for a fixed time, checks that
// every output is correct, and prints one JSON result line.
//
// Build and run it from the repository root through run.sh:
//
//	bash perfbench/run.sh --workload fig9-sweep --seed 42 --seconds 15 --trace 0
//
// With --trace 0 the result carries the end-to-end metrics. With --trace 1
// the run also times calls into each layer's public functions from this
// package and reports the per-layer metrics instead; its spans are written
// to .bench_build/trace/. The workloads, their rates, latency limits and
// default seeds, and the per-layer prediction table live in
// workloads.json.
package main

import (
	_ "embed"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"time"
)

//go:embed workloads.json
var workloadsJSON []byte

// workloadSpec is one workload's entry in workloads.json. Fields a
// workload does not use stay zero.
type workloadSpec struct {
	Why string `json:"why"`
	// Gated workloads are the ones BENCHMARK.json lists; the others run
	// only when asked for by name, for the reason in GatedWhy.
	Gated          bool    `json:"gated"`
	GatedWhy       string  `json:"gated_why"`
	Loop           string  `json:"loop"`
	DefaultSeed    uint64  `json:"default_seed"`
	LatencyLimitMS float64 `json:"latency_limit_ms"`
	RateRPS        float64 `json:"rate_rps"`

	// fig9-sweep
	Sizes       []int  `json:"sizes"`
	Reps        int    `json:"reps"`
	Fingerprint string `json:"fingerprint_default_seed"`

	// serve-unique, serve-hot
	GSPs   int `json:"gsps"`
	Tasks  int `json:"tasks"`
	Burst  int `json:"burst"`
	HotSet int `json:"hot_set"`

	// trust-delta
	Nodes             int     `json:"nodes"`
	MeanDegree        float64 `json:"mean_degree"`
	Batch             int     `json:"batch"`
	RequestsPerSecond float64 `json:"requests_per_second"`
}

// benchConfig is workloads.json.
type benchConfig struct {
	SetupRounds int                     `json:"setup_rounds"`
	Workloads   map[string]workloadSpec `json:"workloads"`
}

func loadConfig() (*benchConfig, error) {
	var cfg benchConfig
	if err := json.Unmarshal(workloadsJSON, &cfg); err != nil {
		return nil, fmt.Errorf("workloads.json: %w", err)
	}
	if cfg.SetupRounds < 1 {
		return nil, errors.New("workloads.json: setup_rounds must be at least 1")
	}
	return &cfg, nil
}

// runConfig is what a workload receives.
type runConfig struct {
	name        string
	seed        uint64
	seconds     time.Duration
	trace       bool
	setupRounds int
	spec        workloadSpec
}

// workloadFunc runs one workload and fills the report.
type workloadFunc func(rc *runConfig, rep *report) error

var workloads = map[string]workloadFunc{
	"fig9-sweep":   runFig9,
	"serve-unique": runServeUnique,
	"serve-hot":    runServeHot,
	"trust-delta":  runTrustDelta,
}

func workloadNames() []string {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is the testable entry point. It returns the process exit code: 0
// for a correct run, 1 when a correctness check failed, 2 for usage or
// set-up errors (no result line is printed then).
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", fmt.Sprintf("workload to run: %v", workloadNames()))
	seed := fs.Uint64("seed", 0, "input seed (0 = the workload's default seed)")
	seconds := fs.Int("seconds", 15, "measured run length in seconds")
	trace := fs.Int("trace", 0, "1 = traced run reporting per-layer metrics")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	cfg, err := loadConfig()
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 2
	}
	fn, ok := workloads[*name]
	spec, okSpec := cfg.Workloads[*name]
	if !ok || !okSpec {
		fmt.Fprintf(stderr, "perfbench: unknown workload %q (want one of %v)\n", *name, workloadNames())
		return 2
	}
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(stderr, "perfbench: --seconds must be positive and --trace 0 or 1")
		return 2
	}
	rc := &runConfig{
		name:        *name,
		seed:        *seed,
		seconds:     time.Duration(*seconds) * time.Second,
		trace:       *trace == 1,
		setupRounds: cfg.SetupRounds,
		spec:        spec,
	}
	if rc.seed == 0 {
		rc.seed = spec.DefaultSeed
	}
	rep := newReport(stderr)
	if rc.trace {
		rep.zero(perLayer)
	}
	if err := fn(rc, rep); err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", *name, err)
		return 2
	}
	defs := endToEnd
	if rc.trace {
		defs = perLayer
	}
	line, err := rep.resultLine(defs)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", *name, err)
		return 2
	}
	rep.summary(stdout, rc)
	fmt.Fprintln(stdout, string(line))
	if !rep.correct() {
		return 1
	}
	return 0
}
