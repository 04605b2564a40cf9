package server

import (
	"net/http"
	"os"
	"reflect"
	"regexp"
	"strings"
	"testing"
)

// TestEveryRouteDocumentedInAPIMD is the docs-coverage gate CI runs: every
// /v1/* route the server registers (as reported by the /metrics routes
// list) must appear verbatim in API.md, so the API surface cannot grow
// without its documentation.
func TestEveryRouteDocumentedInAPIMD(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	var snap MetricsSnapshot
	if code := getJSON(t, ts.URL+"/metrics", &snap); code != http.StatusOK {
		t.Fatalf("metrics status %d", code)
	}
	if len(snap.Routes) == 0 {
		t.Fatal("/metrics reports no registered routes")
	}
	data, err := os.ReadFile("../../API.md")
	if err != nil {
		t.Fatalf("reading API.md: %v", err)
	}
	apimd := string(data)
	var missing []string
	for _, route := range snap.Routes {
		if !strings.HasPrefix(route, "/v1/") {
			continue
		}
		if !strings.Contains(apimd, route) {
			missing = append(missing, route)
		}
	}
	if len(missing) > 0 {
		t.Fatalf("routes registered but absent from API.md: %v", missing)
	}
}

// TestEveryMetricsFieldDocumentedInOperationsMD is the /metrics docs gate
// CI runs next to the API one: every JSON key of the snapshot, nested
// ones included, must appear in OPERATIONS.md §4. A key counts as
// documented when one line of §4 names it in a code span, together with
// its parent key for a nested one ("`engine.*` ... `solves`" documents
// engine.solves). Keys are walked from the snapshot's type, so omitempty
// fields count even when a live snapshot leaves them out; map keys
// (routes, status classes, bucket bounds) are data, not fields.
func TestEveryMetricsFieldDocumentedInOperationsMD(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	var snap MetricsSnapshot
	if code := getJSON(t, ts.URL+"/metrics", &snap); code != http.StatusOK {
		t.Fatalf("metrics status %d", code)
	}
	data, err := os.ReadFile("../../OPERATIONS.md")
	if err != nil {
		t.Fatalf("reading OPERATIONS.md: %v", err)
	}
	_, section, ok := strings.Cut(string(data), "\n## 4. /metrics field reference")
	if !ok {
		t.Fatal("OPERATIONS.md has no §4 /metrics field reference")
	}
	section, _, _ = strings.Cut(section, "\n## ")

	// Per line of §4, the identifiers inside its code spans.
	codeSpan := regexp.MustCompile("`[^`]*`")
	ident := regexp.MustCompile(`[A-Za-z0-9_]+`)
	var lines []map[string]bool
	for _, line := range strings.Split(section, "\n") {
		toks := map[string]bool{}
		for _, span := range codeSpan.FindAllString(line, -1) {
			for _, tok := range ident.FindAllString(span, -1) {
				toks[tok] = true
			}
		}
		lines = append(lines, toks)
	}
	documented := func(parent, key string) bool {
		for _, toks := range lines {
			if toks[key] && (parent == "" || toks[parent]) {
				return true
			}
		}
		return false
	}

	var keys int
	var missing []string
	var walk func(typ reflect.Type, parent, path string)
	walk = func(typ reflect.Type, parent, path string) {
		for typ.Kind() == reflect.Slice || typ.Kind() == reflect.Pointer {
			typ = typ.Elem()
		}
		if typ.Kind() != reflect.Struct {
			return
		}
		for i := 0; i < typ.NumField(); i++ {
			name, _, _ := strings.Cut(typ.Field(i).Tag.Get("json"), ",")
			if name == "" || name == "-" {
				continue
			}
			keys++
			full := path + name
			if !documented(parent, name) {
				missing = append(missing, full)
			}
			walk(typ.Field(i).Type, name, full+".")
		}
	}
	walk(reflect.TypeOf(snap), "", "")
	if keys < 40 {
		t.Fatalf("walked only %d /metrics keys; the walk is missing nested fields", keys)
	}
	if len(missing) > 0 {
		t.Fatalf("/metrics fields absent from OPERATIONS.md §4: %v", missing)
	}
}
