package main

import (
	"encoding/json"
	"strings"
	"testing"

	"gridvo/internal/analysis"
)

// The test binary runs with cmd/gridvolint as the working directory, so
// patterns walk up to the module root explicitly.
const (
	noclockCorpus = "../../internal/analysis/testdata/src/noclock"
	cleanPackage  = "../../internal/xrand"
)

func TestListCatalog(t *testing.T) {
	var out, errb strings.Builder
	if code := run([]string{"-list"}, &out, &errb); code != 0 {
		t.Fatalf("run(-list) = %d, stderr: %s", code, errb.String())
	}
	for _, c := range analysis.All {
		if !strings.Contains(out.String(), c.Name) {
			t.Errorf("-list output missing check %q:\n%s", c.Name, out.String())
		}
	}
}

func TestJSONFindings(t *testing.T) {
	var out, errb strings.Builder
	code := run([]string{"-json", noclockCorpus}, &out, &errb)
	if code != 1 {
		t.Fatalf("run on seeded corpus = %d, want 1; stderr: %s", code, errb.String())
	}
	var rep struct {
		Findings  []analysis.Diagnostic `json:"findings"`
		Packages  int                   `json:"packages"`
		ElapsedMS *int64                `json:"elapsed_ms"`
	}
	if err := json.Unmarshal([]byte(out.String()), &rep); err != nil {
		t.Fatalf("-json output is not a lint report object: %v\n%s", err, out.String())
	}
	diags := rep.Findings
	if len(diags) == 0 {
		t.Fatal("-json produced no findings but exit status was 1")
	}
	if rep.Packages != 1 {
		t.Errorf("packages = %d, want 1 (single corpus directory)", rep.Packages)
	}
	if rep.ElapsedMS == nil || *rep.ElapsedMS < 0 {
		t.Errorf("elapsed_ms missing or negative in report:\n%s", out.String())
	}
	for _, d := range diags {
		if d.Check != "noclock" {
			t.Errorf("unexpected check %q in noclock corpus: %+v", d.Check, d)
		}
		if d.File == "" || d.Line == 0 || d.Message == "" {
			t.Errorf("incomplete diagnostic: %+v", d)
		}
	}
}

func TestTextFindingsFormat(t *testing.T) {
	var out, errb strings.Builder
	code := run([]string{"-checks", "noclock", noclockCorpus}, &out, &errb)
	if code != 1 {
		t.Fatalf("run = %d, want 1; stderr: %s", code, errb.String())
	}
	for _, line := range strings.Split(strings.TrimSpace(out.String()), "\n") {
		if !strings.Contains(line, "  [noclock]  ") {
			t.Errorf("finding line not in file:line:col  [check]  message form: %q", line)
		}
	}
	if !strings.Contains(errb.String(), "finding(s)") {
		t.Errorf("stderr missing findings count: %q", errb.String())
	}
}

func TestCleanPackageExitsZero(t *testing.T) {
	var out, errb strings.Builder
	if code := run([]string{cleanPackage}, &out, &errb); code != 0 {
		t.Fatalf("run on clean package = %d\nstdout: %s\nstderr: %s", code, out.String(), errb.String())
	}
	if out.String() != "" {
		t.Errorf("clean run printed findings: %s", out.String())
	}
}

func TestUnknownCheckRejected(t *testing.T) {
	var out, errb strings.Builder
	if code := run([]string{"-checks", "nosuchcheck", cleanPackage}, &out, &errb); code != 2 {
		t.Fatalf("run(-checks nosuchcheck) = %d, want 2", code)
	}
	if !strings.Contains(errb.String(), "unknown check") {
		t.Errorf("stderr missing unknown-check error: %q", errb.String())
	}
}

func TestEmptyChecksRejected(t *testing.T) {
	var out, errb strings.Builder
	if code := run([]string{"-checks", " , ", cleanPackage}, &out, &errb); code != 2 {
		t.Fatalf("run(-checks with only separators) = %d, want 2", code)
	}
}

func TestPatternOutsideModuleRejected(t *testing.T) {
	var out, errb strings.Builder
	if code := run([]string{"../../.."}, &out, &errb); code != 2 {
		t.Fatalf("run on path outside module = %d, want 2", code)
	}
	if !strings.Contains(errb.String(), "outside the module") {
		t.Errorf("stderr missing outside-module error: %q", errb.String())
	}
}

const suppressCorpus = "../../internal/analysis/testdata/src/suppress"

// TestAuditInventory: -audit lists every well-formed suppression with
// its reason and fails the run when malformed or perfunctory directives
// exist (the suppress corpus seeds two malformed and one perfunctory).
func TestAuditInventory(t *testing.T) {
	var out, errb strings.Builder
	code := run([]string{"-audit", suppressCorpus}, &out, &errb)
	if code != 1 {
		t.Fatalf("run(-audit) on seeded corpus = %d, want 1; stderr: %s", code, errb.String())
	}
	o := out.String()
	for _, want := range []string{
		"[noclock]  golden-test exception: wall-clock read intended",
		"malformed suppression",
		"perfunctory suppression reason",
	} {
		if !strings.Contains(o, want) {
			t.Errorf("-audit output missing %q:\n%s", want, o)
		}
	}
}

// TestAuditJSON pins the machine-readable audit shape and counts.
func TestAuditJSON(t *testing.T) {
	var out, errb strings.Builder
	code := run([]string{"-audit", "-json", suppressCorpus}, &out, &errb)
	if code != 1 {
		t.Fatalf("run(-audit -json) = %d, want 1; stderr: %s", code, errb.String())
	}
	var rep struct {
		Suppressions []analysis.Suppression `json:"suppressions"`
		Findings     []analysis.Diagnostic  `json:"findings"`
	}
	if err := json.Unmarshal([]byte(out.String()), &rep); err != nil {
		t.Fatalf("audit JSON: %v\n%s", err, out.String())
	}
	if len(rep.Suppressions) != 4 || len(rep.Findings) != 3 {
		t.Fatalf("got %d suppressions / %d findings, want 4 / 3:\n%s",
			len(rep.Suppressions), len(rep.Findings), out.String())
	}
	for _, s := range rep.Suppressions {
		if s.Reason == "" || s.Check == "" || s.File == "" || s.Line == 0 {
			t.Errorf("incomplete suppression record: %+v", s)
		}
	}
}

// TestAuditCleanPackage: a suppression-free package audits clean with
// exit 0.
func TestAuditCleanPackage(t *testing.T) {
	var out, errb strings.Builder
	if code := run([]string{"-audit", cleanPackage}, &out, &errb); code != 0 {
		t.Fatalf("run(-audit) on clean package = %d, want 0; stderr: %s", code, errb.String())
	}
	if strings.TrimSpace(out.String()) != "" {
		t.Errorf("clean audit printed an inventory:\n%s", out.String())
	}
}
