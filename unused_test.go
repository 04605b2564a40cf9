package gridvo

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
	"sync"
	"testing"

	"gridvo/internal/analysis"
)

// testOnlyAPI lists, as <dir under internal/>.<Name> or, for a method,
// <dir under internal/>.<Type>.<Name>, the exported internal/ functions only
// tests call, each a reference several test packages use.
var testOnlyAPI = map[string]string{
	"matrix.NewCSRRaw":                 "two-pass reference the matrix, trust and reputation tests compare one-pass CSR builds against",
	"matrix.CSR.NormalizeRows":         "two-pass reference for trust.Graph.Normalized in the matrix, trust and reputation tests",
	"matrix.CSR.At":                    "entry reads for the matrix, trust and reputation tests; the CSR fields are unexported",
	"matrix.CSR.NNZ":                   "entry count for the matrix and trust tests; the CSR fields are unexported",
	"grid.IsTimeConsistent":            "time-matrix oracle for the grid and root integration tests",
	"grid.IsCostWorkloadMonotone":      "cost-matrix oracle for the grid and root integration tests",
	"mechanism.Engine.SetCacheEnabled": "cache-off reference run for TestEngineCacheDisabledIdenticalResults",
}

// implicit names the methods the standard library calls through an interface.
var implicit = map[string]bool{"Len": true, "Less": true, "Swap": true, "Push": true, "Pop": true,
	"Error": true, "Unwrap": true, "String": true, "MarshalJSON": true, "UnmarshalJSON": true, "ServeHTTP": true}

// tree is every non-test package of the module and perfbench, type-checked.
type tree struct {
	loader *analysis.Loader
	pkgs   []*analysis.Package
}

// loadTree loads the tree once for both regrowth gates.
var loadTree = sync.OnceValues(func() (tree, error) {
	l, err := analysis.NewLoader(".")
	if err != nil {
		return tree{}, err
	}
	pkgs, err := l.LoadAll()
	return tree{l, pkgs}, err
})

// gated loads the tree and returns the directories under internal/ of the
// packages whose exported API the gates cover, by package: all of internal/
// but analysis.
func gated(t *testing.T) (*token.FileSet, []*analysis.Package, map[*analysis.Package]string) {
	t.Helper()
	tr, err := loadTree()
	if err != nil {
		t.Fatal(err)
	}
	dirs := map[*analysis.Package]string{}
	for _, pkg := range tr.pkgs {
		if dir, ok := strings.CutPrefix(pkg.Path, tr.loader.ModulePath+"/internal/"); ok && dir != "analysis" {
			dirs[pkg] = dir
		}
	}
	return tr.loader.Fset, tr.pkgs, dirs
}

// TestInternalAPIHasNonTestCaller is the regrowth gate for test-only API: an
// exported function or method in non-test internal/ code (analysis aside)
// must be referred to by a non-test file of the module or perfbench, or be
// in testOnlyAPI. References are resolved by type, so a method is not kept
// by a same-named one elsewhere; a method the code calls only through an
// interface counts as called.
func TestInternalAPIHasNonTestCaller(t *testing.T) {
	fset, pkgs, dirs := gated(t)
	used := map[*types.Func]bool{}
	var viaInterface []*types.Func
	for _, pkg := range pkgs {
		for _, obj := range pkg.Info.Uses {
			fn, ok := obj.(*types.Func)
			if !ok || used[fn.Origin()] {
				continue
			}
			fn = fn.Origin()
			used[fn] = true
			if recv := fn.Type().(*types.Signature).Recv(); recv != nil && types.IsInterface(recv.Type()) {
				viaInterface = append(viaInterface, fn)
			}
		}
	}
	// calledViaInterface reports whether the code calls a method of an
	// interface that fn's receiver type implements, under fn's name.
	calledViaInterface := func(fn *types.Func) bool {
		recv := fn.Type().(*types.Signature).Recv().Type()
		if p, ok := recv.(*types.Pointer); ok {
			recv = p.Elem()
		}
		for _, m := range viaInterface {
			iface := m.Type().(*types.Signature).Recv().Type().Underlying().(*types.Interface)
			if m.Name() == fn.Name() && (types.Implements(recv, iface) || types.Implements(types.NewPointer(recv), iface)) {
				return true
			}
		}
		return false
	}
	declared := map[string]bool{}
	for pkg, dir := range dirs {
		for _, f := range pkg.Files {
			for _, decl := range f.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || !fd.Name.IsExported() || (fd.Recv != nil && implicit[fd.Name.Name]) {
					continue
				}
				fn := pkg.Info.Defs[fd.Name].(*types.Func)
				key := dir + "." + fd.Name.Name
				if recv := fn.Type().(*types.Signature).Recv(); recv != nil {
					key = dir + "." + receiverName(recv.Type()) + "." + fd.Name.Name
				}
				declared[key] = true
				if _, ok := testOnlyAPI[key]; ok || used[fn] || (fd.Recv != nil && calledViaInterface(fn)) {
					continue
				}
				t.Errorf("%s: %s has no non-test caller; delete it, move it into a _test.go file, or list it in testOnlyAPI with its reason", fset.Position(fd.Pos()), key)
			}
		}
	}
	for key := range testOnlyAPI {
		if !declared[key] {
			t.Errorf("testOnlyAPI lists %s, which is not declared under internal/", key)
		}
	}
}

// receiverName returns the name of a method's receiver type.
func receiverName(recv types.Type) string {
	if p, ok := recv.(*types.Pointer); ok {
		recv = p.Elem()
	}
	if n, ok := recv.(*types.Named); ok {
		return n.Obj().Name()
	}
	return recv.String()
}

// testOnlyKnob lists, as <dir under internal/>.<Type>.<Field>, the exported
// option fields no non-test code outside their package writes, each with the
// reason it stays: most only tests set.
var testOnlyKnob = map[string]string{
	"assign.Options.DisableHeuristics":        "raw-search reference for the branch-and-bound tests",
	"assign.Options.DisableTwinPruning":       "reference for the pruning-identity property tests",
	"assign.Options.CtxCheckEvery":            "hook that cancels a search at a precise node in the cancellation tests",
	"assign.Options.AssignBuf":                "zero-alloc steady-state mode pinned by TestSolveSteadyStateZeroAllocs",
	"mechanism.Options.NoWarmStart":           "cold reference for the warm-start identity tests",
	"mechanism.MergeSplitOptions.NoWarmStart": "cold reference for the merge-split warm-start identity test",
	"fault.Config.Classes":                    "isolates one fault class in the chaos tests",
	"fault.Config.CancelNodes":                "sets the truncation point of injected cancels in the chaos tests",
	"sim.Config.Mechanism":                    "ChaosSweep sets KeepAssignments through it; the harness sets the eviction rule per run",
	"sim.Config.Seed":                         "every caller sets it through DefaultConfig(seed) or QuickConfig(seed)",
}

// TestOptionFieldHasNonTestWriter is the regrowth gate for knobs without a
// caller: every exported field of an exported …Options or …Config struct in
// non-test internal/ code (analysis aside) must be written by a non-test file
// outside its package, or be in testOnlyKnob. A write is a key in a composite
// literal, or an assignment whose left side's outermost selector is the
// field: a.Latency.Buckets[k] = v writes Buckets, not Latency. Both resolve
// by type, so a same-named field of another struct writes nothing.
func TestOptionFieldHasNonTestWriter(t *testing.T) {
	fset, pkgs, dirs := gated(t)
	// writers lists the packages writing each field.
	writers := map[*types.Var][]*types.Package{}
	for _, pkg := range pkgs {
		write := func(obj types.Object) {
			if v, ok := obj.(*types.Var); ok && v.IsField() {
				writers[v.Origin()] = append(writers[v.Origin()], pkg.Types)
			}
		}
		for _, f := range pkg.Files {
			ast.Inspect(f, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.KeyValueExpr:
					if id, ok := n.Key.(*ast.Ident); ok {
						write(pkg.Info.Uses[id])
					}
				case *ast.AssignStmt:
					for _, lhs := range n.Lhs {
						if sel := assignedField(lhs); sel != nil {
							if s := pkg.Info.Selections[sel]; s != nil && s.Kind() == types.FieldVal {
								write(s.Obj())
							}
						}
					}
				}
				return true
			})
		}
	}
	fields := map[string]bool{}
	for pkg, dir := range dirs {
		scope := pkg.Types.Scope()
		for _, name := range scope.Names() {
			tn, ok := scope.Lookup(name).(*types.TypeName)
			if !ok || !tn.Exported() || !(strings.HasSuffix(name, "Options") || strings.HasSuffix(name, "Config")) {
				continue
			}
			st, ok := tn.Type().Underlying().(*types.Struct)
			if !ok {
				continue
			}
			for i := 0; i < st.NumFields(); i++ {
				fl := st.Field(i)
				if !fl.Exported() {
					continue
				}
				key := dir + "." + name + "." + fl.Name()
				fields[key] = true
				if _, ok := testOnlyKnob[key]; ok || writtenOutside(fl, writers[fl]) {
					continue
				}
				t.Errorf("%s: %s has no non-test writer outside its package; delete it with the path it selects, or list it in testOnlyKnob with its reason", fset.Position(fl.Pos()), key)
			}
		}
	}
	for key := range testOnlyKnob {
		if !fields[key] {
			t.Errorf("testOnlyKnob lists %s, which is not an option field under internal/", key)
		}
	}
}

// writtenOutside reports whether a package other than the field's own is
// among its writers.
func writtenOutside(field *types.Var, writers []*types.Package) bool {
	for _, p := range writers {
		if p != field.Pkg() {
			return true
		}
	}
	return false
}

// assignedField returns the selector an assignment's left side writes: the
// one reached through index, dereference and parentheses, or nil.
func assignedField(lhs ast.Expr) *ast.SelectorExpr {
	for {
		switch e := lhs.(type) {
		case *ast.SelectorExpr:
			return e
		case *ast.IndexExpr:
			lhs = e.X
		case *ast.StarExpr:
			lhs = e.X
		case *ast.ParenExpr:
			lhs = e.X
		default:
			return nil
		}
	}
}
