package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// Fptaint is the interprocedural companion to maporder, noclock, and
// randsource: it tracks nondeterministic values across call boundaries
// into fingerprint sinks. The single-function checks catch a map
// iteration or time.Now feeding a hash in the same body; they are blind
// when the nondeterminism is produced in a helper — a function that
// returns a slice built in map-iteration order, or a timestamp-derived
// value — and the hashing happens in the caller. A fingerprint that
// ingests such a value drifts run to run, which breaks the served
// determinism contract (warm==cold traces, BENCH identity) without any
// single function looking wrong.
//
// Mechanics: the module fact NondetRet marks functions whose return
// value derives from a nondeterministic source — time.Now/time.Since,
// math/rand, a slice appended to while ranging over a map (and not
// sorted before return), or a call to another NondetRet function —
// propagated to a fixpoint over the static call graph. The per-package
// pass then taints local variables assigned from NondetRet calls
// (propagating through assignments and range statements) and reports
// any sink argument — hash.Write*/Sum* methods, functions with
// hash/fingerprint names — that mentions a tainted variable or calls a
// NondetRet function directly. Intra-function sources are deliberately
// NOT reported here: those belong to maporder/noclock/randsource, and
// double-reporting the same site would turn one fix into three
// suppressions. The xrand package is the sanctioned deterministic
// randomness source and is exempt as a matter of policy.
var Fptaint = &Check{
	Name: "fptaint",
	Doc: "nondeterministic value (map order, wall clock, math/rand) " +
		"flowing through a call chain into a fingerprint/hash/selection sink",
	Run: runFptaint,
}

func runFptaint(pass *Pass) {
	if pass.Mod == nil {
		return
	}
	nondet := pass.Mod.NondetRet()
	if len(nondet) == 0 {
		return
	}
	for _, file := range pass.Pkg.Files {
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			fptaintFunc(pass, fd, nondet)
		}
	}
}

// fptaintFunc taints the locals of one function from NondetRet call
// results and reports tainted sink arguments.
func fptaintFunc(pass *Pass, fd *ast.FuncDecl, nondet map[*types.Func]string) {
	tainted := taintedLocals(pass.Pkg, fd.Body, nondet)

	ast.Inspect(fd.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		sink, ok := fpSink(pass, call)
		if !ok {
			return true
		}
		for _, arg := range call.Args {
			if w, ok := taintWitness(pass.Pkg, arg, tainted, nondet, pass.Mod); ok {
				pass.Report(arg.Pos(),
					"nondeterministic value reaches %s: %s; sort or derive the value deterministically before hashing, or suppress with a reason",
					sink, w)
			}
		}
		return true
	})
}

// taintedLocals computes the function's tainted variables: seeded by
// assignments whose right-hand side calls a NondetRet function, then
// propagated through assignments and range statements to a local
// fixpoint.
func taintedLocals(pkg *Package, body *ast.BlockStmt, nondet map[*types.Func]string) map[types.Object]string {
	tainted := map[types.Object]string{}
	taintLHS := func(lhs ast.Expr, w string) bool {
		id, ok := ast.Unparen(lhs).(*ast.Ident)
		if !ok || id.Name == "_" {
			return false
		}
		obj := pkg.Info.Defs[id]
		if obj == nil {
			obj = pkg.Info.Uses[id]
		}
		if obj == nil {
			return false
		}
		if _, done := tainted[obj]; done {
			return false
		}
		tainted[obj] = w
		return true
	}
	for changed := true; changed; {
		changed = false
		ast.Inspect(body, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.AssignStmt:
				// Multi-value assignment from one call taints every LHS;
				// otherwise pair positionally.
				if len(n.Lhs) > 1 && len(n.Rhs) == 1 {
					if w, ok := exprTaint(pkg, n.Rhs[0], tainted, nondet); ok {
						for _, lhs := range n.Lhs {
							if taintLHS(lhs, w) {
								changed = true
							}
						}
					}
					return true
				}
				for i, rhs := range n.Rhs {
					if i >= len(n.Lhs) {
						break
					}
					if w, ok := exprTaint(pkg, rhs, tainted, nondet); ok {
						if taintLHS(n.Lhs[i], w) {
							changed = true
						}
					}
				}
			case *ast.RangeStmt:
				// Ranging over a tainted slice taints the element (and key)
				// variables: the iteration order is the tainted order.
				if w, ok := exprTaint(pkg, n.X, tainted, nondet); ok {
					for _, v := range []ast.Expr{n.Key, n.Value} {
						if v != nil && taintLHS(v, w) {
							changed = true
						}
					}
				}
			}
			return true
		})
	}
	return tainted
}

// exprTaint reports whether an expression's value is tainted: it
// mentions a tainted variable, or (sub)calls a NondetRet function. The
// witness explains the chain's first link.
func exprTaint(pkg *Package, e ast.Expr, tainted map[types.Object]string, nondet map[*types.Func]string) (string, bool) {
	var w string
	ast.Inspect(e, func(n ast.Node) bool {
		if w != "" {
			return false
		}
		switch n := n.(type) {
		case *ast.Ident:
			if obj := pkg.Info.Uses[n]; obj != nil {
				if tw, ok := tainted[obj]; ok {
					w = tw
				}
			}
		case *ast.CallExpr:
			if fn := pkg.FuncOf(n); fn != nil {
				if fw, ok := nondet[fn]; ok {
					w = "call to " + fn.Name() + ", which " + headline(fw)
				}
			}
		}
		return w == ""
	})
	return w, w != ""
}

// taintWitness is exprTaint with the module's funcLabel rendering for
// report text.
func taintWitness(pkg *Package, e ast.Expr, tainted map[types.Object]string, nondet map[*types.Func]string, mod *Module) (string, bool) {
	var w string
	ast.Inspect(e, func(n ast.Node) bool {
		if w != "" {
			return false
		}
		switch n := n.(type) {
		case *ast.Ident:
			if obj := pkg.Info.Uses[n]; obj != nil {
				if tw, ok := tainted[obj]; ok {
					w = obj.Name() + " holds the result of a " + tw
				}
			}
		case *ast.CallExpr:
			if fn := pkg.FuncOf(n); fn != nil {
				if fw, ok := nondet[fn]; ok {
					w = "call to " + mod.funcLabel(fn) + ", which " + headline(fw)
				}
			}
		}
		return w == ""
	})
	return w, w != ""
}

// fpSink recognizes fingerprint sinks with the same writer/hash method
// shapes as maporder's sinkCall (a hash state's Write method resolves
// to the embedded io.Writer, so the method set — not the package — is
// what identifies the sink), plus anything hash/fingerprint-named.
func fpSink(pass *Pass, call *ast.CallExpr) (string, bool) {
	fn := pass.Pkg.FuncOf(call)
	if fn == nil {
		return "", false
	}
	name := fn.Name()
	if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() != nil {
		if strings.HasPrefix(name, "Write") || strings.HasPrefix(name, "Sum") {
			return recvName(sig) + "." + name, true
		}
		if isHashy(name) || isHashy(recvName(sig)) {
			return recvName(sig) + "." + name, true
		}
		return "", false
	}
	if isHashy(name) {
		return name, true
	}
	return "", false
}

// NondetRet returns the nondeterministic-return fact table: fn ->
// witness when fn's return value derives from map-iteration order, the
// wall clock, or unseeded randomness. The xrand package (the module's
// deterministic seeded source) is exempt by policy.
func (m *Module) NondetRet() map[*types.Func]string {
	if m.nondet != nil {
		return m.nondet
	}
	facts := map[*types.Func]string{}
	for changed := true; changed; {
		changed = false
		for _, fi := range m.order {
			if _, ok := facts[fi.Fn]; ok {
				continue
			}
			if fi.Fn.Pkg() != nil && strings.HasSuffix(fi.Fn.Pkg().Path(), "/xrand") {
				continue
			}
			if w, ok := nondetReturn(fi, facts); ok {
				facts[fi.Fn] = w
				changed = true
			}
		}
	}
	m.nondet = facts
	return facts
}

// nondetReturn decides one function's direct NondetRet fact: does any
// return expression mention a nondeterministic source — directly, via a
// tainted local, or via a call to an already-facted function?
func nondetReturn(fi *FuncInfo, facts map[*types.Func]string) (string, bool) {
	pkg := fi.Pkg
	// Local taint: order-tainted slices (appended under a map range and
	// not sorted later) plus values from nondet sources.
	tainted := map[types.Object]string{}
	ast.Inspect(fi.Decl.Body, func(n ast.Node) bool {
		rs, ok := n.(*ast.RangeStmt)
		if !ok {
			return true
		}
		if t := pkg.Info.TypeOf(rs.X); t != nil {
			if _, isMap := t.Underlying().(*types.Map); !isMap {
				return true
			}
		} else {
			return true
		}
		ast.Inspect(rs.Body, func(b ast.Node) bool {
			call, ok := b.(*ast.CallExpr)
			if !ok {
				return true
			}
			if obj := appendTargetPkg(pkg, call); obj != nil {
				if !sortedLater(pkg, fi.Decl.Body, rs.End(), obj) {
					tainted[obj] = "returns a slice built in map-iteration order"
				}
			}
			return true
		})
		return true
	})

	seed := func(e ast.Expr) (string, bool) {
		var w string
		ast.Inspect(e, func(n ast.Node) bool {
			if w != "" {
				return false
			}
			switch n := n.(type) {
			case *ast.Ident:
				if obj := pkg.Info.Uses[n]; obj != nil {
					if tw, ok := tainted[obj]; ok {
						w = tw
					}
				}
			case *ast.CallExpr:
				if fn := pkg.FuncOf(n); fn != nil {
					if fw, ok := facts[fn]; ok {
						w = "returns a value from " + fn.Name() + ", which " + headline(fw)
						return false
					}
					if fn.Pkg() != nil {
						switch {
						case fn.Pkg().Path() == "time" && (fn.Name() == "Now" || fn.Name() == "Since"):
							w = "returns a value derived from time." + fn.Name()
						case fn.Pkg().Path() == "math/rand" || fn.Pkg().Path() == "math/rand/v2":
							w = "returns a value derived from math/rand." + fn.Name()
						}
					}
				}
			}
			return w == ""
		})
		return w, w != ""
	}

	// Propagate through straight assignments so `t := time.Now(); ...;
	// return t.Unix()` is caught.
	for changed := true; changed; {
		changed = false
		ast.Inspect(fi.Decl.Body, func(n ast.Node) bool {
			as, ok := n.(*ast.AssignStmt)
			if !ok {
				return true
			}
			for i, rhs := range as.Rhs {
				if i >= len(as.Lhs) {
					break
				}
				w, ok := seed(rhs)
				if !ok {
					continue
				}
				id, ok := ast.Unparen(as.Lhs[i]).(*ast.Ident)
				if !ok || id.Name == "_" {
					continue
				}
				obj := pkg.Info.Defs[id]
				if obj == nil {
					obj = pkg.Info.Uses[id]
				}
				if obj == nil {
					continue
				}
				if _, done := tainted[obj]; !done {
					tainted[obj] = w
					changed = true
				}
			}
			return true
		})
	}

	var witness string
	ast.Inspect(fi.Decl.Body, func(n ast.Node) bool {
		if witness != "" {
			return false
		}
		if _, ok := n.(*ast.FuncLit); ok {
			return false
		}
		ret, ok := n.(*ast.ReturnStmt)
		if !ok {
			return true
		}
		for _, e := range ret.Results {
			if w, ok := seed(e); ok {
				witness = w
				return false
			}
		}
		return true
	})
	if witness == "" {
		return "", false
	}
	if !strings.HasPrefix(witness, "returns ") {
		witness = "returns " + witness
	}
	return witness, true
}

// appendTargetPkg is appendTarget without a Pass: the object a
// `x = append(x, ...)` call grows, or nil.
func appendTargetPkg(pkg *Package, call *ast.CallExpr) types.Object {
	id, ok := ast.Unparen(call.Fun).(*ast.Ident)
	if !ok || id.Name != "append" || len(call.Args) == 0 {
		return nil
	}
	obj := pkg.Info.Uses[id]
	if obj == nil {
		obj = pkg.Info.Defs[id]
	}
	if b, ok := obj.(*types.Builtin); !ok || b.Name() != "append" {
		return nil
	}
	arg, ok := ast.Unparen(call.Args[0]).(*ast.Ident)
	if !ok {
		return nil
	}
	return pkg.Info.Uses[arg]
}

// sortedLater reports whether obj is passed to a sort-style call after
// pos within body — the approved collect-then-sort pattern, which
// launders map-iteration order back into determinism.
func sortedLater(pkg *Package, body *ast.BlockStmt, pos token.Pos, obj types.Object) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		if found {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok || call.Pos() < pos {
			return true
		}
		fn := pkg.FuncOf(call)
		if fn == nil {
			return true
		}
		isSort := strings.HasPrefix(strings.ToLower(fn.Name()), "sort")
		if fn.Pkg() != nil && (fn.Pkg().Path() == "sort" || fn.Pkg().Path() == "slices") {
			isSort = true
		}
		if !isSort {
			return true
		}
		for _, a := range call.Args {
			if id, ok := ast.Unparen(a).(*ast.Ident); ok && pkg.Info.Uses[id] == obj {
				found = true
			}
		}
		return !found
	})
	return found
}
