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
// gridvod has no load-generation mode. perfbench's serve-unique (sync
// POST /v1/vo/form) and serve-hot (jobs path with dedupe and engine-cache
// hits) workloads drive an in-process instance open loop and replay every
// reply; their request mixes are fixed in perfbench/workloads.json:
//
//	bash perfbench/run.sh --workload serve-hot --seconds 3
package main

import (
	"context"
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
