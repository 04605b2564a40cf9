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

// walkNonTest parses every non-test Go file of the module and perfbench and
// hands it to visit with its directory, "" outside internal/.
func walkNonTest(t *testing.T, fset *token.FileSet, visit func(pkg string, f *ast.File)) {
	t.Helper()
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
		if pkg, ok := strings.CutPrefix(filepath.ToSlash(filepath.Dir(path)), "internal/"); ok {
			visit(pkg, f)
		} else {
			visit("", f)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestInternalAPIHasNonTestCaller is the regrowth gate for test-only API: an
// exported function in non-test internal/ code (analysis aside) must be named
// by a non-test file of the module or perfbench other than its declaration, or
// be in testOnlyAPI, which also lists names a type-checked scan finds (CSR.At).
func TestInternalAPIHasNonTestCaller(t *testing.T) {
	// uses counts each identifier's occurrences minus its declarations.
	fset, uses, declared := token.NewFileSet(), map[string]int{}, map[string]token.Position{}
	walkNonTest(t, fset, func(pkg string, f *ast.File) {
		ast.Inspect(f, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok {
				uses[id.Name]++
			}
			return true
		})
		for _, decl := range f.Decls {
			if fd, ok := decl.(*ast.FuncDecl); ok && fd.Name.IsExported() {
				uses[fd.Name.Name]--
				if pkg != "" && pkg != "analysis" && !(fd.Recv != nil && implicit[fd.Name.Name]) {
					declared[pkg+"."+fd.Name.Name] = fset.Position(fd.Pos())
				}
			}
		}
	})
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

// testOnlyKnob lists, as <dir under internal/>.<Type>.<Field>, the exported
// option fields only tests set, each with the reason it stays.
var testOnlyKnob = map[string]string{
	"assign.Options.DisableHeuristics":        "raw-search reference for the branch-and-bound tests",
	"assign.Options.DisableTwinPruning":       "reference for the pruning-identity property tests",
	"assign.Options.CtxCheckEvery":            "hook that cancels a search at a precise node in the cancellation tests",
	"assign.Options.AssignBuf":                "zero-alloc steady-state mode pinned by TestSolveSteadyStateZeroAllocs",
	"mechanism.Options.NoWarmStart":           "cold reference for the warm-start identity tests",
	"mechanism.MergeSplitOptions.NoWarmStart": "cold reference for the merge-split warm-start identity test",
	"fault.Config.Classes":                    "isolates one fault class in the chaos tests",
	"fault.Config.CancelNodes":                "sets the truncation point of injected cancels in the chaos tests",
	"sim.Config.Mechanism":                    "carries ChaosSweep's injector; the harness sets the eviction rule per run",
}

// TestOptionFieldHasNonTestWriter is the regrowth gate for knobs without a
// caller: every exported field of an exported …Options or …Config struct in
// non-test internal/ code (analysis aside) must be written by a non-test file
// outside its package, or be in testOnlyKnob. A write is a key in a composite
// literal of the type, or an assignment whose left side's outermost selector
// names the field: a.Latency.Buckets[k] = v writes Buckets, not Latency.
func TestOptionFieldHasNonTestWriter(t *testing.T) {
	fset, fields := token.NewFileSet(), map[string]token.Position{}
	// writers lists the writing packages per <Type>.<Key> of a literal of an
	// imported type and per selector name assigned to. Both match by name,
	// as the caller gate does, without type-checking.
	writers := map[string][]string{}
	walkNonTest(t, fset, func(pkg string, f *ast.File) {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.TypeSpec:
				st, ok := n.Type.(*ast.StructType)
				name := n.Name.Name
				if ok && pkg != "" && pkg != "analysis" && n.Name.IsExported() &&
					(strings.HasSuffix(name, "Options") || strings.HasSuffix(name, "Config")) {
					for _, fl := range st.Fields.List {
						for _, id := range fl.Names {
							if id.IsExported() {
								fields[pkg+"."+name+"."+id.Name] = fset.Position(id.Pos())
							}
						}
					}
				}
			case *ast.CompositeLit:
				if sel, ok := n.Type.(*ast.SelectorExpr); ok {
					for _, el := range n.Elts {
						if kv, ok := el.(*ast.KeyValueExpr); ok {
							if id, ok := kv.Key.(*ast.Ident); ok {
								writers[sel.Sel.Name+"."+id.Name] = append(writers[sel.Sel.Name+"."+id.Name], pkg)
							}
						}
					}
				}
			case *ast.AssignStmt:
				for _, lhs := range n.Lhs {
					if name := assignedField(lhs); name != "" {
						writers[name] = append(writers[name], pkg)
					}
				}
			}
			return true
		})
	})
	written := func(key string) bool {
		owner, typeField, _ := strings.Cut(key, ".")
		_, field, _ := strings.Cut(typeField, ".")
		for _, pkg := range append(writers[typeField], writers[field]...) {
			if pkg != owner {
				return true
			}
		}
		return false
	}
	for key, pos := range fields {
		if _, ok := testOnlyKnob[key]; !ok && !written(key) {
			t.Errorf("%s: %s has no non-test writer outside its package; delete it with the path it selects, or list it in testOnlyKnob with its reason", pos, key)
		}
	}
	for key := range testOnlyKnob {
		if _, ok := fields[key]; !ok {
			t.Errorf("testOnlyKnob lists %s, which is not an option field under internal/", key)
		}
	}
}

// assignedField names the field an assignment's left side writes: the
// selector reached through index, dereference and parentheses, or "".
func assignedField(lhs ast.Expr) string {
	for {
		switch e := lhs.(type) {
		case *ast.SelectorExpr:
			return e.Sel.Name
		case *ast.IndexExpr:
			lhs = e.X
		case *ast.StarExpr:
			lhs = e.X
		case *ast.ParenExpr:
			lhs = e.X
		default:
			return ""
		}
	}
}
