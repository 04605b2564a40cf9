package gridvo

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"strings"
	"testing"
)

// testOnlyAPI lists, as <dir under internal/>.<Name>, the exported internal/
// functions only tests call, each a reference several test packages use.
var testOnlyAPI = map[string]string{
	"matrix.NewCSRRaw":            "two-pass reference the matrix, trust and reputation tests compare one-pass CSR builds against",
	"matrix.NormalizeRows":        "two-pass reference for trust.Graph.Normalized in the matrix, trust and reputation tests",
	"matrix.At":                   "entry reads for the matrix, trust and reputation tests; the CSR fields are unexported",
	"matrix.NNZ":                  "entry count for the matrix and trust tests; the CSR fields are unexported",
	"grid.IsTimeConsistent":       "time-matrix oracle for the grid and root integration tests",
	"grid.IsCostWorkloadMonotone": "cost-matrix oracle for the grid and root integration tests",
	"mechanism.SetCacheEnabled":   "cache-off reference run for TestEngineCacheDisabledIdenticalResults",
}

// implicit names the methods the standard library calls through an interface.
var implicit = map[string]bool{"Len": true, "Less": true, "Swap": true, "Push": true, "Pop": true,
	"Error": true, "Unwrap": true, "String": true, "MarshalJSON": true, "UnmarshalJSON": true, "ServeHTTP": true}

// TestInternalAPIHasNonTestCaller is the regrowth gate for test-only API: an
// exported function in non-test internal/ code (analysis aside) must be named
// by a non-test file of the module or perfbench other than its declaration, or
// be in testOnlyAPI, which also lists names a type-checked scan finds (CSR.At).
func TestInternalAPIHasNonTestCaller(t *testing.T) {
	// uses counts each identifier's occurrences minus its declarations.
	fset, uses, declared := token.NewFileSet(), map[string]int{}, map[string]token.Position{}
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && path != "." && (strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata") {
			return filepath.SkipDir
		}
		if d.IsDir() || !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		ast.Inspect(f, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok {
				uses[id.Name]++
			}
			return true
		})
		pkg, internal := strings.CutPrefix(filepath.ToSlash(filepath.Dir(path)), "internal/")
		for _, decl := range f.Decls {
			if fd, ok := decl.(*ast.FuncDecl); ok && fd.Name.IsExported() {
				uses[fd.Name.Name]--
				if internal && pkg != "analysis" && !(fd.Recv != nil && implicit[fd.Name.Name]) {
					declared[pkg+"."+fd.Name.Name] = fset.Position(fd.Pos())
				}
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for key, pos := range declared {
		if _, ok := testOnlyAPI[key]; !ok && uses[key[strings.LastIndex(key, ".")+1:]] <= 0 {
			t.Errorf("%s: %s has no non-test caller; delete it, move it into a _test.go file, or list it in testOnlyAPI with its reason", pos, key)
		}
	}
	for key := range testOnlyAPI {
		if _, ok := declared[key]; !ok {
			t.Errorf("testOnlyAPI lists %s, which is not declared under internal/", key)
		}
	}
}
