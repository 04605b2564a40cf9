// Command gridvod serves the TVOF mechanism over HTTP: reputation
// queries, VO formation runs (synchronous and as asynchronous jobs), and
// single coalition solves as a JSON API (see API.md at the repo root and
// OPERATIONS.md for operator guidance).
//
// Usage:
//
//	gridvod -addr :8080 -timeout 5s -workers 8 -queue 512
//
// Endpoints: POST /v1/reputation, POST /v1/trust/delta,
// GET /v1/trust/stats, POST /v1/vo/form, POST /v1/assign, POST /v1/jobs,
// GET /v1/jobs/{id}, GET /healthz, GET /metrics.
//
// The daemon shuts down gracefully on SIGINT/SIGTERM, draining in-flight
// requests and queued jobs for up to -drain. Exit codes: 0 after a clean
// shutdown, 1 on startup or serve errors.
//
// # Load generation
//
// With -loadgen the binary becomes a load generator instead of a daemon:
// it drives a target (-target URL, or a self-served in-process instance
// configured by the same serving flags) at -rps for -duration, prints the
// sustained RPS and latency percentiles, and exits non-zero if the -slo-p99
// bound (or -require-zero-dropped) is violated. -loadgen-mode selects the
// path: "sync", "jobs", or "both" (writes the sync-vs-jobs comparison
// report to -out, e.g. BENCH_PR7.json).
//
//	gridvod -loadgen -loadgen-mode jobs -rps 50 -duration 5s -slo-p99 2s
//	gridvod -loadgen -loadgen-mode both -rps 200 -duration 10s -out BENCH_PR7.json
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"syscall"
	"time"

	"gridvo/internal/assign"
	"gridvo/internal/server"
	"gridvo/internal/workload/loadgen"
)

func main() {
	fs := flag.NewFlagSet("gridvod", flag.ExitOnError)
	var (
		addr       = fs.String("addr", ":8080", "listen address")
		timeout    = fs.Duration("timeout", 5*time.Second, "default per-request solve budget (0 = none beyond -max-timeout)")
		maxTimeout = fs.Duration("max-timeout", 60*time.Second, "hard cap on any per-request solve budget")
		maxBody    = fs.Int64("max-body", 8<<20, "maximum request body bytes (413 beyond)")
		inflight   = fs.Int("inflight", 0, "maximum concurrent synchronous solve requests (0 = 2x GOMAXPROCS)")
		engines    = fs.Int("engines", 64, "scenario solve-engine LRU size")
		shards     = fs.Int("shards", 0, "engine-LRU shard count, rounded to a power of two (0 = smallest power of two >= GOMAXPROCS)")
		queue      = fs.Int("queue", 0, "async job queue depth; full queue sheds submits with 429 (0 = 256)")
		workers    = fs.Int("workers", 0, "async job worker-pool size (0 = GOMAXPROCS)")
		jobTTL     = fs.Duration("job-ttl", 0, "how long finished jobs stay pollable before GC (0 = 5m)")
		maxWait    = fs.Duration("max-wait", 0, "cap on GET /v1/jobs/{id}?wait= long-poll budgets (0 = 30s)")
		nodeCap    = fs.Int64("nodes", 0, "branch-and-bound node budget per IP solve (0 = default)")
		drain      = fs.Duration("drain", 10*time.Second, "graceful-shutdown drain budget")
		pprofAddr  = fs.String("pprof", "", "serve net/http/pprof on this address (e.g. localhost:6060; empty = disabled)")

		genOn    = fs.Bool("loadgen", false, "run as a load generator instead of a daemon")
		genMode  = fs.String("loadgen-mode", "sync", "load-generator path: sync, jobs, or both (comparison report)")
		genURL   = fs.String("target", "", "load-generator target base URL (empty = self-serve in-process)")
		genRPS   = fs.Float64("rps", 50, "load-generator offered request rate")
		genDur   = fs.Duration("duration", 5*time.Second, "load-generator run length")
		genLanes = fs.Int("lanes", 0, "load-generator concurrent client lanes (0 = 4x GOMAXPROCS)")
		genMix   = fs.Int("scenarios", 4, "load-generator distinct scenarios in the request mix")
		genBurst = fs.Int("burst", 1, "load-generator consecutive duplicate submissions per scenario (dedupe fuel)")
		genGSPs  = fs.Int("gsps", 6, "load-generator GSPs per generated scenario")
		genTasks = fs.Int("tasks", 16, "load-generator tasks per generated scenario")
		genSeed  = fs.Uint64("seed", 1, "load-generator scenario-mix seed")
		genSLO   = fs.Duration("slo-p99", 0, "assert p99 latency <= this bound (0 = no assertion)")
		genZero  = fs.Bool("require-zero-dropped", false, "assert no request was dropped, shed, or failed")
		genOut   = fs.String("out", "", "write the load-generator JSON report here (stdout summary either way)")
	)
	if err := fs.Parse(os.Args[1:]); err != nil {
		os.Exit(1)
	}

	cfg := server.Config{
		DefaultTimeout:    *timeout,
		MaxTimeout:        *maxTimeout,
		MaxBodyBytes:      *maxBody,
		MaxInFlight:       *inflight,
		EngineCacheSize:   *engines,
		EngineCacheShards: *shards,
		JobQueueDepth:     *queue,
		JobWorkers:        *workers,
		JobTTL:            *jobTTL,
		MaxLongPoll:       *maxWait,
		Solver:            assign.Options{NodeBudget: *nodeCap},
	}

	if *genOn {
		os.Exit(runLoadgen(loadgen.Options{
			BaseURL:            *genURL,
			Server:             cfg,
			Mode:               *genMode,
			RPS:                *genRPS,
			Duration:           *genDur,
			Lanes:              *genLanes,
			Scenarios:          *genMix,
			Burst:              *genBurst,
			GSPs:               *genGSPs,
			Tasks:              *genTasks,
			Seed:               *genSeed,
			SLOp99:             *genSLO,
			RequireZeroDropped: *genZero,
		}, *genMode, *genOut))
	}

	srv := server.New(cfg)

	// Profiling endpoints live on their own listener, never the API
	// address: off by default, and when enabled an operator binds them to
	// localhost so the debug surface is not exposed alongside the
	// service. The API mux stays pprof-free either way.
	if *pprofAddr != "" {
		mux := http.NewServeMux()
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
		go func() {
			log.Printf("gridvod pprof listening on %s", *pprofAddr)
			if err := http.ListenAndServe(*pprofAddr, mux); err != nil {
				log.Printf("gridvod pprof: %v", err)
			}
		}()
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	log.Printf("gridvod listening on %s (request budget %s, cap %s)", *addr, *timeout, *maxTimeout)
	if err := srv.ListenAndServe(ctx, *addr, *drain); err != nil {
		fmt.Fprintln(os.Stderr, "gridvod:", err)
		os.Exit(1)
	}
	log.Printf("gridvod: drained and shut down")
}

// runLoadgen executes the -loadgen path and returns the process exit code:
// 0 when every asserted SLO held, 1 on violations, 2 on setup errors.
func runLoadgen(opts loadgen.Options, mode, out string) int {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	var report any
	var violations []string
	switch mode {
	case "both":
		opts.BaseURL = "" // Compare self-serves a fresh instance per side
		rep, err := loadgen.Compare(ctx, opts)
		if err != nil {
			fmt.Fprintln(os.Stderr, "gridvod -loadgen:", err)
			return 2
		}
		report = rep
		violations = append(rep.Sync.SLOViolations, rep.Jobs.SLOViolations...)
		fmt.Printf("loadgen both: sync %.1f rps (p99 %.1fms) vs jobs %.1f rps (p99 %.1fms), ratio %.2fx, deduped %d\n",
			rep.Sync.SustainedRPS, rep.Sync.P99MS,
			rep.Jobs.SustainedRPS, rep.Jobs.P99MS,
			rep.RPSRatio, rep.Jobs.DedupedDelta)
	case "sync", "jobs":
		res, err := loadgen.Run(ctx, opts)
		if err != nil {
			fmt.Fprintln(os.Stderr, "gridvod -loadgen:", err)
			return 2
		}
		report = res
		violations = res.SLOViolations
		fmt.Printf("loadgen %s: offered %d, completed %d (%.1f rps sustained), shed %d, failed %d, dropped %d, p50 %.1fms p95 %.1fms p99 %.1fms\n",
			res.Mode, res.Offered, res.Completed, res.SustainedRPS,
			res.Shed, res.Failed, res.Dropped, res.P50MS, res.P95MS, res.P99MS)
	default:
		fmt.Fprintf(os.Stderr, "gridvod -loadgen: unknown -loadgen-mode %q (want sync, jobs, or both)\n", mode)
		return 2
	}

	if out != "" {
		data, err := json.MarshalIndent(report, "", "  ")
		if err != nil {
			fmt.Fprintln(os.Stderr, "gridvod -loadgen:", err)
			return 2
		}
		data = append(data, '\n')
		if err := os.WriteFile(out, data, 0o644); err != nil {
			fmt.Fprintln(os.Stderr, "gridvod -loadgen:", err)
			return 2
		}
		fmt.Printf("report written to %s\n", out)
	}
	if len(violations) > 0 {
		for _, v := range violations {
			fmt.Fprintln(os.Stderr, "SLO violation:", v)
		}
		return 1
	}
	return 0
}
