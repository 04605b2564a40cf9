// Command gridvolint runs gridvo's project-specific static-analysis
// suite (internal/analysis) over the module: determinism and
// correctness checks that guard the repo's bit-reproducibility and
// cancellation contracts at review time instead of test time.
//
// Usage:
//
//	gridvolint ./...                 # whole module (the CI invocation)
//	gridvolint ./internal/assign     # one package directory
//	gridvolint -checks maporder,noclock ./...
//	gridvolint -json ./...           # machine-readable findings
//	gridvolint -list                 # print the check catalog
//
// Findings print one per line as "file:line:col  [check]  message"
// (paths relative to the module root). With -json the output is an
// object {"findings": [...], "packages": N, "elapsed_ms": M} — the
// package count and wall time let CI watch the interprocedural pass's
// cost as the module grows. Exit status: 0 when the tree is clean, 1
// when there are findings, 2 when loading or type-checking failed.
// Intentional exceptions are suppressed in the source with
// "//gridvolint:ignore <check> <reason>".
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"time"

	"gridvo/internal/analysis"
)

// lintReport is the -json output shape. Packages and ElapsedMS exist so
// CI (and anyone trending lint cost) can watch the interprocedural
// pass's wall time against its budget without re-timing the binary.
type lintReport struct {
	Findings  []analysis.Diagnostic `json:"findings"`
	Packages  int                   `json:"packages"`
	ElapsedMS int64                 `json:"elapsed_ms"`
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("gridvolint", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		jsonOut   = fs.Bool("json", false, "emit a JSON object with findings, package count, and lint wall time")
		checksArg = fs.String("checks", "", "comma-separated subset of checks to run (default: all)")
		list      = fs.Bool("list", false, "list available checks and exit")
		audit     = fs.Bool("audit", false, "inventory //gridvolint:ignore suppressions instead of running checks; malformed or reason-less ones are findings")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *list {
		for _, c := range analysis.All {
			fmt.Fprintf(stdout, "%-11s %s\n", c.Name, c.Doc)
		}
		return 0
	}

	checks, err := selectChecks(*checksArg)
	if err != nil {
		fmt.Fprintln(stderr, "gridvolint:", err)
		return 2
	}

	patterns := fs.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}

	if *audit {
		return runAudit(".", patterns, *jsonOut, stdout, stderr)
	}

	start := time.Now()
	diags, npkgs, err := lint(".", patterns, checks)
	if err != nil {
		fmt.Fprintln(stderr, "gridvolint:", err)
		return 2
	}
	elapsed := time.Since(start)

	if *jsonOut {
		enc := json.NewEncoder(stdout)
		enc.SetIndent("", "  ")
		if diags == nil {
			diags = []analysis.Diagnostic{}
		}
		out := lintReport{Findings: diags, Packages: npkgs, ElapsedMS: elapsed.Milliseconds()}
		if err := enc.Encode(out); err != nil {
			fmt.Fprintln(stderr, "gridvolint:", err)
			return 2
		}
	} else {
		for _, d := range diags {
			fmt.Fprintln(stdout, d)
		}
	}
	if len(diags) > 0 {
		fmt.Fprintf(stderr, "gridvolint: %d finding(s)\n", len(diags))
		return 1
	}
	return 0
}

// runAudit implements -audit: it prints every suppression directive with
// its check and reason ("file:line  [check]  reason"), reports malformed
// or perfunctory ones as findings, and returns the usual exit status.
// The inventory goes to stdout even when clean, so a reviewer sees at a
// glance which determinism checks are switched off where — silent,
// unexplained suppressions are exactly what the audit exists to prevent.
func runAudit(dir string, patterns []string, jsonOut bool, stdout, stderr io.Writer) int {
	sups, diags, err := auditLint(dir, patterns)
	if err != nil {
		fmt.Fprintln(stderr, "gridvolint:", err)
		return 2
	}
	if jsonOut {
		enc := json.NewEncoder(stdout)
		enc.SetIndent("", "  ")
		out := struct {
			Suppressions []analysis.Suppression `json:"suppressions"`
			Findings     []analysis.Diagnostic  `json:"findings"`
		}{sups, diags}
		if out.Suppressions == nil {
			out.Suppressions = []analysis.Suppression{}
		}
		if out.Findings == nil {
			out.Findings = []analysis.Diagnostic{}
		}
		if err := enc.Encode(out); err != nil {
			fmt.Fprintln(stderr, "gridvolint:", err)
			return 2
		}
	} else {
		for _, s := range sups {
			fmt.Fprintf(stdout, "%s:%d  [%s]  %s\n", s.File, s.Line, s.Check, s.Reason)
		}
		for _, d := range diags {
			fmt.Fprintln(stdout, d)
		}
	}
	if len(diags) > 0 {
		fmt.Fprintf(stderr, "gridvolint: %d suppression finding(s)\n", len(diags))
		return 1
	}
	fmt.Fprintf(stderr, "gridvolint: %d suppression(s), all with reasons\n", len(sups))
	return 0
}

// auditLint loads the packages matched by patterns and inventories their
// suppression directives, with module-root-relative paths.
func auditLint(dir string, patterns []string) ([]analysis.Suppression, []analysis.Diagnostic, error) {
	loader, err := analysis.NewLoader(dir)
	if err != nil {
		return nil, nil, err
	}
	var pkgs []*analysis.Package
	seen := map[string]bool{}
	for _, pat := range patterns {
		matched, err := resolvePattern(loader, dir, pat)
		if err != nil {
			return nil, nil, err
		}
		for _, p := range matched {
			if !seen[p.Path] {
				seen[p.Path] = true
				pkgs = append(pkgs, p)
			}
		}
	}
	sups, diags := analysis.Suppressions(loader.Fset, pkgs)
	rel := func(file string) string {
		if r, err := filepath.Rel(loader.ModuleRoot, file); err == nil && !strings.HasPrefix(r, "..") {
			return filepath.ToSlash(r)
		}
		return file
	}
	for i := range sups {
		sups[i].File = rel(sups[i].File)
	}
	for i := range diags {
		diags[i].File = rel(diags[i].File)
	}
	return sups, diags, nil
}

// selectChecks resolves the -checks flag to a check list (nil = all).
func selectChecks(arg string) ([]*analysis.Check, error) {
	if arg == "" {
		return nil, nil
	}
	var checks []*analysis.Check
	for _, name := range strings.Split(arg, ",") {
		name = strings.TrimSpace(name)
		if name == "" {
			continue
		}
		c := analysis.ByName(name)
		if c == nil {
			return nil, fmt.Errorf("unknown check %q (run -list for the catalog)", name)
		}
		checks = append(checks, c)
	}
	if len(checks) == 0 {
		return nil, fmt.Errorf("-checks selected nothing")
	}
	return checks, nil
}

// lint loads the packages matched by patterns (relative to dir) and
// runs the checks, returning diagnostics with module-root-relative
// paths plus the number of packages analyzed.
func lint(dir string, patterns []string, checks []*analysis.Check) ([]analysis.Diagnostic, int, error) {
	loader, err := analysis.NewLoader(dir)
	if err != nil {
		return nil, 0, err
	}

	var pkgs []*analysis.Package
	seen := map[string]bool{}
	for _, pat := range patterns {
		matched, err := resolvePattern(loader, dir, pat)
		if err != nil {
			return nil, 0, err
		}
		for _, p := range matched {
			if !seen[p.Path] {
				seen[p.Path] = true
				pkgs = append(pkgs, p)
			}
		}
	}

	diags := analysis.RunChecks(loader.Fset, loader.ModulePath, pkgs, checks)
	for i := range diags {
		if rel, err := filepath.Rel(loader.ModuleRoot, diags[i].File); err == nil && !strings.HasPrefix(rel, "..") {
			diags[i].File = filepath.ToSlash(rel)
		}
	}
	return diags, len(pkgs), nil
}

// resolvePattern interprets one command-line pattern: "./..." (or any
// path ending in /...) loads the subtree, anything else loads a single
// package directory.
func resolvePattern(loader *analysis.Loader, dir, pat string) ([]*analysis.Package, error) {
	if pat == "./..." || pat == "..." {
		return loader.LoadAll()
	}
	if rest, ok := strings.CutSuffix(pat, "/..."); ok {
		all, err := loader.LoadAll()
		if err != nil {
			return nil, err
		}
		abs, err := filepath.Abs(filepath.Join(dir, rest))
		if err != nil {
			return nil, err
		}
		var out []*analysis.Package
		for _, p := range all {
			if p.Dir == abs || strings.HasPrefix(p.Dir, abs+string(filepath.Separator)) {
				out = append(out, p)
			}
		}
		if len(out) == 0 {
			return nil, fmt.Errorf("no packages match %q", pat)
		}
		return out, nil
	}
	abs, err := filepath.Abs(filepath.Join(dir, pat))
	if err != nil {
		return nil, err
	}
	rel, err := filepath.Rel(loader.ModuleRoot, abs)
	if err != nil || strings.HasPrefix(rel, "..") {
		return nil, fmt.Errorf("package %q is outside the module", pat)
	}
	path := loader.ModulePath
	if rel != "." {
		path = loader.ModulePath + "/" + filepath.ToSlash(rel)
	}
	pkg, err := loader.LoadDir(abs, path)
	if err != nil {
		return nil, err
	}
	return []*analysis.Package{pkg}, nil
}
