package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// This file is the interprocedural layer the fptaint and allocguard
// checks compose on: a module-wide static call graph over every loaded
// package, and a per-function fact store whose facts
// (returns-nondeterminism, may-allocate) are propagated to a fixpoint
// along call edges. Facts are computed once per RunChecks invocation and
// shared by every check, so another interprocedural check costs one more
// pass over the fact tables, not another type-check of the module.
//
// Soundness posture: the call graph covers static calls only — a call
// through an interface method, function value, or method value resolves
// to no FuncInfo and contributes no fact. Checks therefore
// under-approximate through dynamic dispatch (documented per check in
// DESIGN §16); within the module's concrete call chains the facts are
// exact to the per-function heuristics that seed them.

// FuncInfo ties one declared function or method to its syntax,
// package, and static callees.
type FuncInfo struct {
	Fn   *types.Func
	Decl *ast.FuncDecl
	Pkg  *Package
	// Callees are the statically resolved functions this body calls, in
	// first-call source order, deduplicated. Dynamic calls (interface
	// methods, function values) are absent by construction.
	Callees []*types.Func
}

// Module is the whole-program context shared by every check in one
// RunChecks invocation: the call graph plus memoized fact tables.
type Module struct {
	Path string
	Fset *token.FileSet
	Pkgs []*Package
	// Funcs indexes every declared function and method with a body.
	Funcs map[*types.Func]*FuncInfo

	// order fixes a deterministic iteration sequence (file, then
	// position) so fact propagation — and therefore witness strings and
	// diagnostic output — is identical run to run.
	order []*FuncInfo

	// zeroalloc holds the functions whose doc comment carries the
	// //gridvolint:zeroalloc marker — the allocguard check's target set.
	zeroalloc map[*types.Func]bool

	nondet   map[*types.Func]string
	mayAlloc map[*types.Func]string
}

// zeroallocMarker is the declaration marker naming a function part of
// the zero-allocation steady-state set checked by allocguard.
const zeroallocMarker = "//gridvolint:zeroalloc"

// BuildModule constructs the call graph over pkgs. It is cheap relative
// to type-checking (one AST walk per function) and runs once per
// RunChecks call.
func BuildModule(fset *token.FileSet, modulePath string, pkgs []*Package) *Module {
	m := &Module{
		Path:      modulePath,
		Fset:      fset,
		Pkgs:      pkgs,
		Funcs:     map[*types.Func]*FuncInfo{},
		zeroalloc: map[*types.Func]bool{},
	}
	for _, pkg := range pkgs {
		for _, file := range pkg.Files {
			for _, decl := range file.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				fn, ok := pkg.Info.Defs[fd.Name].(*types.Func)
				if !ok {
					continue
				}
				fi := &FuncInfo{Fn: fn, Decl: fd, Pkg: pkg, Callees: callees(pkg, fd.Body)}
				m.Funcs[fn] = fi
				m.order = append(m.order, fi)
				if docHasMarker(fd.Doc, zeroallocMarker) {
					m.zeroalloc[fn] = true
				}
			}
		}
	}
	sort.Slice(m.order, func(i, j int) bool {
		a, b := fset.Position(m.order[i].Decl.Pos()), fset.Position(m.order[j].Decl.Pos())
		if a.Filename != b.Filename {
			return a.Filename < b.Filename
		}
		return a.Offset < b.Offset
	})
	return m
}

// docHasMarker reports whether any line of a doc comment is the given
// directive (trailing text after the marker is tolerated and ignored).
func docHasMarker(doc *ast.CommentGroup, marker string) bool {
	if doc == nil {
		return false
	}
	for _, c := range doc.List {
		if c.Text == marker || strings.HasPrefix(c.Text, marker+" ") {
			return true
		}
	}
	return false
}

// callees statically resolves every call in body, in source order,
// deduplicated. Function literals are not descended into: a closure's
// calls belong to the closure, which runs on its own schedule.
func callees(pkg *Package, body *ast.BlockStmt) []*types.Func {
	var out []*types.Func
	seen := map[*types.Func]bool{}
	ast.Inspect(body, func(n ast.Node) bool {
		if _, ok := n.(*ast.FuncLit); ok {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if fn := pkg.FuncOf(call); fn != nil && !seen[fn] {
			seen[fn] = true
			out = append(out, fn)
		}
		return true
	})
	return out
}

// FuncOf resolves a called expression to the *types.Func it invokes
// (through selectors and parenthesization), or nil.
func (p *Package) FuncOf(call *ast.CallExpr) *types.Func {
	var id *ast.Ident
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		id = fun
	case *ast.SelectorExpr:
		id = fun.Sel
	default:
		return nil
	}
	obj := p.Info.Uses[id]
	if obj == nil {
		obj = p.Info.Defs[id]
	}
	fn, _ := obj.(*types.Func)
	return fn
}

// Zeroalloc reports whether fn carries the //gridvolint:zeroalloc
// marker.
func (m *Module) Zeroalloc(fn *types.Func) bool { return m.zeroalloc[fn] }

// funcLabel renders a function for witness strings: Recv.Name or
// pkg.Name, position-free so goldens stay stable.
func (m *Module) funcLabel(fn *types.Func) string {
	if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() != nil {
		return recvName(sig) + "." + fn.Name()
	}
	if fn.Pkg() != nil {
		return fn.Pkg().Name() + "." + fn.Name()
	}
	return fn.Name()
}

// fixpoint propagates a per-function fact to convergence along the call
// graph: direct seeds each function's own fact (witness, ok); a
// function without a direct fact inherits "calls <callee>: <witness>"
// from its first facted callee in source order. Iteration follows
// m.order, so the result is deterministic.
func (m *Module) fixpoint(direct func(fi *FuncInfo) (string, bool)) map[*types.Func]string {
	facts := map[*types.Func]string{}
	for _, fi := range m.order {
		if w, ok := direct(fi); ok {
			facts[fi.Fn] = w
		}
	}
	for changed := true; changed; {
		changed = false
		for _, fi := range m.order {
			if _, ok := facts[fi.Fn]; ok {
				continue
			}
			for _, c := range fi.Callees {
				if w, ok := facts[c]; ok {
					facts[fi.Fn] = "calls " + m.funcLabel(c) + ", which " + headline(w)
					changed = true
					break
				}
			}
		}
	}
	return facts
}

// headline trims a witness chain to its first link so deep call chains
// stay readable: "calls a, which calls b, which allocates (...)" collapses
// the tail.
func headline(w string) string {
	if i := strings.Index(w, ", which "); i >= 0 {
		return w[:i] + " (transitively)"
	}
	return w
}

// childNodes lists a node's direct children, for the custom walkers
// that need to handle some node kinds specially before recursing.
func childNodes(n ast.Node) []ast.Node {
	var out []ast.Node
	first := true
	ast.Inspect(n, func(c ast.Node) bool {
		if first {
			first = false
			return true
		}
		if c != nil {
			out = append(out, c)
		}
		return false
	})
	return out
}

// posLine formats a position as file-less "line N" for messages that
// already carry the file through the diagnostic position.
func posLine(fset *token.FileSet, pos token.Pos) string {
	return fmt.Sprintf("line %d", fset.Position(pos).Line)
}
