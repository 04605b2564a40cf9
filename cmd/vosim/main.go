// Command vosim regenerates the experiments of the paper's evaluation
// section. Each figure of Section IV maps to a -fig value; -all runs the
// whole suite. Output is an aligned ASCII table per figure (use -csv for
// machine-readable output, -plot for ASCII charts).
//
// Usage:
//
//	vosim -fig 3                 # Fig. 3: average reputation vs tasks
//	vosim -all -seed 7           # every figure, custom seed
//	vosim -table1                # print the simulation parameters
//	vosim -fig 1 -sizes 256,512 -reps 3 -quick
//	vosim -fig 5 -csv > fig5.csv
//	vosim -fig 2 -trace atlas.swf   # use a real SWF trace
//	vosim -all -par 0            # parallel sweep on all cores
//	vosim -ablation              # eviction-rule ablation (extension)
//	vosim -evolution             # trust-evolution experiment (extension)
//	vosim -adversary sybil,8     # robustness sweep under a sybil ring of 8
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"

	"gridvo/internal/adversary"
	"gridvo/internal/fault"
	"gridvo/internal/mechanism"
	"gridvo/internal/sim"
	"gridvo/internal/swf"
	"gridvo/internal/tablewriter"
)

// exitDeadline is the exit code for "time budget expired with no feasible
// VO": distinguishable from both success (0) and ordinary errors (1).
const exitDeadline = 3

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "vosim:", err)
		if errors.Is(err, errDeadlineNoVO) {
			os.Exit(exitDeadline)
		}
		os.Exit(1)
	}
}

// errUsage signals a bad invocation (exit 1 either way; kept distinct for
// tests).
var errUsage = errors.New("nothing to do; pass -fig N, -all, -table1, -ablation or -evolution")

// errDeadlineNoVO marks a sweep that timed out before every cell reached a
// feasible VO; main maps it to exitDeadline so scripts can tell a degraded
// abort from a clean run.
var errDeadlineNoVO = errors.New("time budget expired before a feasible VO was found")

// run is the testable entry point: parses args, executes the requested
// experiments, writes results to stdout.
func run(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("vosim", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		fig     = fs.Int("fig", 0, "figure to regenerate (1-9); 0 with -all or -table1")
		all     = fs.Bool("all", false, "run every figure")
		table1  = fs.Bool("table1", false, "print Table I (simulation parameters)")
		seed    = fs.Uint64("seed", 42, "root seed (reproducible runs)")
		reps    = fs.Int("reps", 0, "repetitions per point (default: paper's 10)")
		sizes   = fs.String("sizes", "", "comma-separated program sizes (default: paper's 256..8192)")
		quick   = fs.Bool("quick", false, "reduced setup for smoke runs (small sizes, 3 reps)")
		csv     = fs.Bool("csv", false, "emit CSV instead of aligned tables")
		plot    = fs.Bool("plot", false, "draw ASCII charts alongside the tables")
		trace   = fs.String("trace", "", "path to a real SWF trace (default: synthetic Atlas)")
		nodeCap = fs.Int64("nodes", 0, "branch-and-bound node budget per IP solve (0 = default)")
		verbose = fs.Bool("v", false, "print per-run progress")
		par     = fs.Int("par", 1, "worker goroutines for the sweep (0 = GOMAXPROCS)")
		ablate  = fs.Bool("ablation", false, "run the eviction-rule ablation instead of a figure")
		evol    = fs.Bool("evolution", false, "run the trust-evolution extension (TVOF vs RVOF, with and without decay)")
		rounds  = fs.Int("rounds", 8, "trust-evolution rounds (with -evolution)")
		timeout = fs.Duration("timeout", 0, "wall-clock budget for the sweep; on expiry solves degrade to heuristic incumbents (0 = none)")
		chaos   = fs.String("chaos", "", `fault-injection chaos sweep: "seed,rate" (e.g. 7,0.3); runs the sweep twice, checks every mechanism invariant, and verifies bit-reproducibility`)
		advSpec = fs.String("adversary", "", `robustness sweep: "class,param" with class collusion|sybil|whitewash|slander|churn and param the attacker count (slander/churn: the rate, e.g. slander,0.3). Compares adversarial VO formation against the honest baseline twice and verifies bit-reproducibility; combine with -chaos for fault injection on adversarial graphs`)
		degree  = fs.Float64("trust-degree", 0, "mean out-degree for the sparse Erdős–Rényi trust generator (0 = paper's dense G(n,p) sampler)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	// Ctrl-C (or -timeout expiry) cancels the solver context: in-flight
	// IP solves fall back to their heuristic incumbents and the sweep
	// completes with whatever optimality was reached in time.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}

	cfg := sim.DefaultConfig(*seed)
	if *quick {
		cfg = sim.QuickConfig(*seed)
	}
	if *reps > 0 {
		cfg.Repetitions = *reps
	}
	if *sizes != "" {
		parsed, err := parseSizes(*sizes)
		if err != nil {
			return err
		}
		cfg.ProgramSizes = parsed
	}
	if *nodeCap != 0 {
		cfg.Solver.NodeBudget = *nodeCap
	}
	if *degree < 0 {
		return fmt.Errorf("-trust-degree %v must be non-negative", *degree)
	}
	cfg.TrustMeanDegree = *degree
	if *trace != "" {
		f, err := os.Open(*trace)
		if err != nil {
			return err
		}
		tr, err := swf.Parse(f)
		f.Close()
		if err != nil {
			return err
		}
		cfg.Trace = tr
	}

	if *chaos != "" || *advSpec != "" {
		// Chaos and adversary modes default to the quick setup — the
		// point is coverage and reproducibility, not paper-scale
		// statistics. Any explicit -quick/-sizes/-reps selection wins.
		if !*quick && *sizes == "" && *reps == 0 {
			q := sim.QuickConfig(*seed)
			q.Solver = cfg.Solver
			q.Trace = cfg.Trace
			q.TrustMeanDegree = cfg.TrustMeanDegree
			cfg = q
		}
		var progress func(string)
		if *verbose {
			progress = func(s string) { fmt.Fprintln(stderr, s) }
		}
		var ropts sim.RobustnessOptions
		if *advSpec != "" {
			var err error
			ropts, err = parseAdversarySpec(*advSpec, cfg.NumGSPs)
			if err != nil {
				return err
			}
		}
		if *chaos != "" {
			// Composition: the chaos sweep's scenarios are generated
			// through the adversary layer (empty ropts when -adversary is
			// not given), then fault-injected as usual.
			cfg.Adversary = ropts.Attack
			cfg.Churn = ropts.Churn
			return runChaos(ctx, cfg, *chaos, stdout, stderr, progress)
		}
		return runAdversary(ctx, cfg, ropts, stdout, *csv, progress)
	}

	if *table1 {
		if err := emit(stdout, sim.Table1(cfg), *csv); err != nil {
			return err
		}
		if !*all && *fig == 0 {
			return nil
		}
	}

	if *evol {
		env, err := sim.NewEnv(cfg)
		if err != nil {
			return err
		}
		for _, variant := range []struct {
			rule      mechanism.EvictionRule
			retention float64
		}{
			{mechanism.EvictLowestReputation, 0},
			{mechanism.EvictRandom, 0},
			{mechanism.EvictLowestReputation, 0.5},
		} {
			r, err := env.RunEvolution(sim.EvolutionConfig{
				Rounds:         *rounds,
				Rule:           variant.rule,
				ProgramSize:    traceProgramSize(cfg),
				DecayRetention: variant.retention,
				IdleRounds:     4,
			})
			if err != nil {
				return err
			}
			title := sim.EvolutionComparisonTitle(variant.rule.String(), variant.retention)
			if err := emit(stdout, sim.EvolutionTable(r, title), *csv); err != nil {
				return err
			}
		}
		return nil
	}
	if *ablate {
		env, err := sim.NewEnv(cfg)
		if err != nil {
			return err
		}
		r, err := env.EvictionAblation(traceProgramSize(cfg), nil)
		if err != nil {
			return err
		}
		return emit(stdout, sim.AblationTable(r), *csv)
	}
	if !*all && *fig == 0 && !*table1 {
		fs.Usage()
		return errUsage
	}

	env, err := sim.NewEnv(cfg)
	if err != nil {
		return err
	}
	var progress func(string)
	if *verbose {
		progress = func(s string) { fmt.Fprintln(stderr, s) }
	}

	figs := map[int]bool{}
	if *all {
		for i := 1; i <= 9; i++ {
			figs[i] = true
		}
	} else if *fig != 0 {
		if *fig < 1 || *fig > 9 {
			return fmt.Errorf("figure %d outside 1-9", *fig)
		}
		figs[*fig] = true
	}

	// Figs 1, 2, 3, 9 share one sweep.
	var sweep *sim.SweepResult
	if figs[1] || figs[2] || figs[3] || figs[9] {
		if *par == 1 {
			sweep, err = env.SweepContext(ctx, progress)
		} else {
			sweep, err = env.SweepParallelContext(ctx, *par, progress)
		}
		if err != nil {
			// A sweep cell without a final VO under an expired budget is
			// an incomplete answer, not an ordinary failure: exit with
			// the distinguished deadline code instead of pretending the
			// partial grid is a result.
			if ctx.Err() != nil {
				return fmt.Errorf("%w: %v (retry with a larger -timeout)", errDeadlineNoVO, err)
			}
			return err
		}
		fmt.Fprintf(stdout, "solver engine: %s\n", sweep.Stats)
		if ctx.Err() != nil {
			fmt.Fprintln(stdout, "note: time budget expired; results use best incumbents found in time")
		}
		fmt.Fprintln(stdout)
	}
	traceSize := traceProgramSize(cfg)
	runTrace := func(tag string, rule mechanism.EvictionRule, figure string) error {
		tr, err := env.IterationTrace(traceSize, tag, rule)
		if err != nil {
			return err
		}
		if err := emit(stdout, sim.TraceTable(tr, figure), *csv); err != nil {
			return err
		}
		if *plot {
			fmt.Fprintln(stdout, sim.TraceChart(tr, figure).Render())
		}
		return nil
	}

	for i := 1; i <= 9; i++ {
		if !figs[i] {
			continue
		}
		switch i {
		case 1:
			err = emitWithChart(stdout, sim.Fig1Table(sweep), *csv, *plot, func() string { return sim.Fig1Chart(sweep).Render() })
		case 2:
			err = emitWithChart(stdout, sim.Fig2Table(sweep), *csv, *plot, func() string { return sim.Fig2Chart(sweep).Render() })
		case 3:
			err = emitWithChart(stdout, sim.Fig3Table(sweep), *csv, *plot, func() string { return sim.Fig3Chart(sweep).Render() })
		case 4:
			r, ferr := env.Fig4(traceSize, 10)
			if ferr != nil {
				return ferr
			}
			if err = emitWithChart(stdout, sim.Fig4Table(r), *csv, *plot, func() string { return sim.Fig4Chart(r).Render() }); err == nil {
				_, err = fmt.Fprintf(stdout, "agreement: %d/%d programs picked the same VO under both rules\n\n",
					r.AgreementCount(), len(r.Programs))
			}
		case 5:
			err = runTrace("A", mechanism.EvictLowestReputation, "Fig. 5")
		case 6:
			err = runTrace("B", mechanism.EvictLowestReputation, "Fig. 6")
		case 7:
			err = runTrace("A", mechanism.EvictRandom, "Fig. 7")
		case 8:
			err = runTrace("B", mechanism.EvictRandom, "Fig. 8")
		case 9:
			err = emitWithChart(stdout, sim.Fig9Table(sweep), *csv, *plot, func() string { return sim.Fig9Chart(sweep).Render() })
		}
		if err != nil {
			return err
		}
	}
	return nil
}

// errChaos marks a chaos sweep that found invariant violations or failed
// the reproducibility check (exit 1).
var errChaos = errors.New("chaos sweep failed")

// parseChaosSpec parses the -chaos argument "seed,rate".
func parseChaosSpec(spec string) (seed uint64, rate float64, err error) {
	parts := strings.Split(spec, ",")
	if len(parts) != 2 {
		return 0, 0, fmt.Errorf("vosim: -chaos wants \"seed,rate\", got %q", spec)
	}
	seed, err = strconv.ParseUint(strings.TrimSpace(parts[0]), 10, 64)
	if err != nil {
		return 0, 0, fmt.Errorf("vosim: bad chaos seed %q", parts[0])
	}
	rate, err = strconv.ParseFloat(strings.TrimSpace(parts[1]), 64)
	if err != nil || rate < 0 || rate > 1 {
		return 0, 0, fmt.Errorf("vosim: bad chaos rate %q (want 0..1)", parts[1])
	}
	return seed, rate, nil
}

// runChaos executes the chaos sweep twice with identically-seeded
// injectors: the first pass checks every mechanism invariant under fault
// injection, the second proves the fault schedule and all results are
// bit-reproducible (identical fingerprints). Violations or a fingerprint
// mismatch exit non-zero.
func runChaos(ctx context.Context, cfg sim.Config, spec string, stdout, stderr io.Writer, progress func(string)) error {
	fseed, rate, err := parseChaosSpec(spec)
	if err != nil {
		return err
	}
	fcfg := fault.Config{Seed: fseed, Rate: rate}
	first, err := sim.ChaosSweep(ctx, cfg, fcfg, progress)
	if err != nil {
		return err
	}
	second, err := sim.ChaosSweep(ctx, cfg, fcfg, progress)
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "chaos sweep: %d cells, %d runs (%d degraded, %d feasible), injector seed %d rate %g\n",
		first.Cells, first.Runs, first.DegradedRuns, first.FeasibleRuns, fseed, rate)
	fmt.Fprintf(stdout, "faults: %s\n", first.FaultStats)
	fmt.Fprintf(stdout, "fingerprint: %016x\n", first.Fingerprint)
	if n := len(first.Violations); n > 0 {
		for _, v := range first.Violations {
			fmt.Fprintln(stderr, "violation:", v)
		}
		return fmt.Errorf("%w: %d invariant violations", errChaos, n)
	}
	if first.Fingerprint != second.Fingerprint {
		return fmt.Errorf("%w: not reproducible, fingerprints %016x vs %016x",
			errChaos, first.Fingerprint, second.Fingerprint)
	}
	fmt.Fprintln(stdout, "invariants: all VOs feasible, v(C) >= 0, payoff shares sum to v(C)")
	fmt.Fprintln(stdout, "reproducibility: two identically-seeded sweeps produced identical fingerprints")
	return nil
}

// errAdversary marks a robustness sweep that failed its reproducibility
// check (exit 1).
var errAdversary = errors.New("adversary sweep failed")

// parseAdversarySpec parses the -adversary argument "class,param". The
// param is the attacker count for collusion/sybil/whitewash, the slander
// rate (with an attacker count of numGSPs/8, at least 1), or the churn
// leave rate (re-joins at half that rate).
func parseAdversarySpec(spec string, numGSPs int) (sim.RobustnessOptions, error) {
	var opts sim.RobustnessOptions
	parts := strings.Split(spec, ",")
	if len(parts) != 2 {
		return opts, fmt.Errorf(`vosim: -adversary wants "class,param" (e.g. sybil,8 or slander,0.3 or churn,0.25), got %q`, spec)
	}
	class := strings.TrimSpace(parts[0])
	param := strings.TrimSpace(parts[1])
	switch class {
	case "churn":
		rate, err := strconv.ParseFloat(param, 64)
		if err != nil || rate < 0 || rate > 1 {
			return opts, fmt.Errorf("vosim: bad churn rate %q (want 0..1)", param)
		}
		opts.Churn = &adversary.ChurnSpec{LeaveRate: rate, JoinRate: rate / 2}
	case adversary.ClassSlander:
		rate, err := strconv.ParseFloat(param, 64)
		if err != nil || rate < 0 || rate > 1 {
			return opts, fmt.Errorf("vosim: bad slander rate %q (want 0..1)", param)
		}
		size := numGSPs / 8
		if size < 1 {
			size = 1
		}
		opts.Attack = &adversary.Spec{Class: class, Size: size, Rate: rate}
	case adversary.ClassCollusion, adversary.ClassSybil, adversary.ClassWhitewash:
		size, err := strconv.Atoi(param)
		if err != nil || size < 0 {
			return opts, fmt.Errorf("vosim: bad %s size %q", class, param)
		}
		opts.Attack = &adversary.Spec{Class: class, Size: size}
	default:
		return opts, fmt.Errorf("vosim: unknown adversary class %q (want collusion, sybil, whitewash, slander, or churn)", class)
	}
	return opts, nil
}

// runAdversary executes the robustness sweep twice with identical seeds:
// the first pass measures honest-vs-adversarial degradation, the second
// proves both worlds are bit-reproducible (identical fingerprints). A
// fingerprint mismatch exits non-zero.
func runAdversary(ctx context.Context, cfg sim.Config, opts sim.RobustnessOptions, stdout io.Writer, csv bool, progress func(string)) error {
	first, err := sim.RobustnessSweep(ctx, cfg, opts, progress)
	if err != nil {
		return err
	}
	second, err := sim.RobustnessSweep(ctx, cfg, opts, progress)
	if err != nil {
		return err
	}
	if err := emit(stdout, sim.RobustnessTable(first), csv); err != nil {
		return err
	}
	fmt.Fprintf(stdout, "robustness sweep %q: %d cells, mean Δv=%.2f, infiltration=%.3f, displacement=%.3f, %d re-formations (%d joins, %d leaves, %d warm-started solves)\n",
		first.Class, len(first.Cells), first.MeanValueDelta, first.MeanInfiltration, first.MeanDisplacement,
		first.Reformations, first.ChurnJoins, first.ChurnLeaves, first.WarmStarts)
	if first.HonestFingerprint != second.HonestFingerprint ||
		first.AdversarialFingerprint != second.AdversarialFingerprint {
		return fmt.Errorf("%w: not reproducible, fingerprints %016x/%016x vs %016x/%016x",
			errAdversary, first.HonestFingerprint, first.AdversarialFingerprint,
			second.HonestFingerprint, second.AdversarialFingerprint)
	}
	fmt.Fprintln(stdout, "reproducibility: two identically-seeded sweeps produced identical fingerprints")
	return nil
}

// traceProgramSize picks the program size for Figs. 4-8 (the paper uses
// 256 tasks); falls back to the smallest configured size when 256 is not
// in the configured set.
func traceProgramSize(cfg sim.Config) int {
	for _, s := range cfg.ProgramSizes {
		if s == 256 {
			return s
		}
	}
	best := cfg.ProgramSizes[0]
	for _, s := range cfg.ProgramSizes {
		if s < best {
			best = s
		}
	}
	return best
}

func parseSizes(s string) ([]int, error) {
	var out []int
	for _, part := range strings.Split(s, ",") {
		v, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil || v <= 0 {
			return nil, fmt.Errorf("vosim: bad size %q", part)
		}
		out = append(out, v)
	}
	return out, nil
}

func emit(w io.Writer, t *tablewriter.Table, csv bool) error {
	if csv {
		if err := t.RenderCSV(w); err != nil {
			return err
		}
	} else if err := t.Render(w); err != nil {
		return err
	}
	_, err := fmt.Fprintln(w)
	return err
}

func emitWithChart(w io.Writer, t *tablewriter.Table, csv, plot bool, chart func() string) error {
	if err := emit(w, t, csv); err != nil {
		return err
	}
	if plot {
		if _, err := fmt.Fprintln(w, chart()); err != nil {
			return err
		}
	}
	return nil
}
