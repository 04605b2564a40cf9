package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"runtime"
	"strconv"
	"strings"
	"time"

	"gridvo/internal/reputation"
	"gridvo/internal/trust"
	"gridvo/internal/xrand"
)

// The -sparse mode benchmarks the trust substrate in isolation: global
// reputation (eq. 6 power iteration) on sparse Erdős–Rényi graphs across
// node counts, from the paper's scale to a million GSPs. For each point it
// records wall time, allocation volume, and solver diagnostics.

// sparsePoint describes one (n, meanDegree) cell of the sweep.
type sparsePoint struct {
	N          int
	MeanDegree float64
}

// defaultSparsePoints spans the paper's scale (16 GSPs) to one million
// nodes at mean degree ≈ 20.
var defaultSparsePoints = []sparsePoint{
	{256, 8},
	{1024, 16},
	{4096, 16},
	{16384, 20},
	{65536, 20},
	{262144, 20},
	{1000000, 20},
}

// sparseRunJSON is one measured solve.
type sparseRunJSON struct {
	N          int     `json:"n"`
	MeanDegree float64 `json:"mean_degree"`
	Edges      int     `json:"edges"`
	Density    float64 `json:"density"`
	// BuildSeconds is graph generation + matrix materialization;
	// SolveSeconds is reputation.Global alone (the steady-state cost an
	// incremental re-solve pays per batch).
	BuildSeconds float64 `json:"build_seconds"`
	SolveSeconds float64 `json:"solve_seconds"`
	// AllocBytes is the heap allocation delta (runtime.MemStats
	// TotalAlloc) across the solve — the O(nnz) working-set evidence.
	AllocBytes uint64 `json:"alloc_bytes"`
	Iterations int    `json:"iterations"`
	Converged  bool   `json:"converged"`
}

// sparseReportJSON is the top-level -sparse output.
type sparseReportJSON struct {
	Tool string          `json:"tool"`
	Mode string          `json:"mode"`
	Seed uint64          `json:"seed"`
	Runs []sparseRunJSON `json:"runs"`
	// MaxN / MaxEdges / MaxNSeconds summarize the largest solved graph
	// for the headline "a million nodes in seconds" claim.
	MaxN        int     `json:"max_n"`
	MaxEdges    int     `json:"max_edges"`
	MaxNSeconds float64 `json:"max_n_seconds"`
}

// parseSparsePoints parses "n:deg,n:deg,..." into a point list.
func parseSparsePoints(s string) ([]sparsePoint, error) {
	var pts []sparsePoint
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		nd := strings.SplitN(part, ":", 2)
		if len(nd) != 2 {
			return nil, fmt.Errorf("bad sparse point %q (want n:degree)", part)
		}
		n, err := strconv.Atoi(nd[0])
		if err != nil || n <= 0 {
			return nil, fmt.Errorf("bad sparse point size %q", nd[0])
		}
		deg, err := strconv.ParseFloat(nd[1], 64)
		if err != nil || deg < 0 {
			return nil, fmt.Errorf("bad sparse point degree %q", nd[1])
		}
		pts = append(pts, sparsePoint{N: n, MeanDegree: deg})
	}
	if len(pts) == 0 {
		return nil, fmt.Errorf("no sparse points given")
	}
	return pts, nil
}

// measureSolve runs one reputation solve under memory accounting.
func measureSolve(g *trust.Graph) (diag reputation.Diagnostics, seconds float64, allocBytes uint64, err error) {
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	start := time.Now()
	_, diag, err = reputation.Global(g, reputation.DefaultOptions())
	seconds = time.Since(start).Seconds()
	runtime.ReadMemStats(&after)
	allocBytes = after.TotalAlloc - before.TotalAlloc
	return diag, seconds, allocBytes, err
}

// runSparse executes the sparse substrate sweep and writes the report.
func runSparse(out string, seed uint64, points []sparsePoint, stdout io.Writer) error {
	report := sparseReportJSON{Tool: "benchjson", Mode: "sparse", Seed: seed}
	for _, pt := range points {
		buildStart := time.Now()
		g := trust.SparseErdosRenyi(xrand.New(seed).Split(fmt.Sprintf("sparse-%d", pt.N)), pt.N, pt.MeanDegree)
		buildSec := time.Since(buildStart).Seconds()
		diag, solveSec, alloc, err := measureSolve(g)
		if err != nil {
			return fmt.Errorf("n=%d: %w", pt.N, err)
		}
		report.Runs = append(report.Runs, sparseRunJSON{
			N:            pt.N,
			MeanDegree:   pt.MeanDegree,
			Edges:        g.NumEdges(),
			Density:      g.Density(),
			BuildSeconds: buildSec,
			SolveSeconds: solveSec,
			AllocBytes:   alloc,
			Iterations:   diag.Iterations,
			Converged:    diag.Converged,
		})
		fmt.Fprintf(stdout, "n=%-8d deg=%-4.0f edges=%-9d build=%.3fs solve=%.3fs alloc=%dMB iters=%d\n",
			pt.N, pt.MeanDegree, g.NumEdges(), buildSec, solveSec, alloc>>20, diag.Iterations)
		if pt.N >= report.MaxN {
			report.MaxN = pt.N
			report.MaxEdges = g.NumEdges()
			report.MaxNSeconds = solveSec
		}
	}
	data, err := json.MarshalIndent(&report, "", "  ")
	if err != nil {
		return err
	}
	data = append(data, '\n')
	if err := os.WriteFile(out, data, 0o644); err != nil {
		return err
	}
	fmt.Fprintf(stdout, "wrote %s: max n=%d (%d edges) solved in %.2fs\n",
		out, report.MaxN, report.MaxEdges, report.MaxNSeconds)
	return nil
}
