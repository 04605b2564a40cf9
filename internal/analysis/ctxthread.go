package analysis

import (
	"go/ast"
	"go/types"
	"strings"
)

// ctxthreadPackages are the solver-core packages whose exported entry
// points must be cancellable: branch-and-bound search (assign), the
// VO-formation mechanism (mechanism), and the power-method reputation
// kernels (reputation).
var ctxthreadPackages = map[string]bool{
	"assign":     true,
	"mechanism":  true,
	"reputation": true,
}

// Ctxthread flags exported functions in the solver-core packages that
// iterate — a non-range for loop driving module code — without
// accepting a context. Those loops are exactly where solves burn time,
// and an entry point that cannot observe cancellation stalls every
// deadline the service layer promises (SolveCtx's per-request budgets,
// gridvod's 504 path). The fix is to take a ctx and poll it, as the
// *Context/*Ctx entry points do; a context-free twin of such an entry
// point is a second name that silently drops cancellation, so none is
// kept. Bounded utility loops can instead carry //gridvolint:ignore
// ctxthread <reason> on the declaration.
//
// Heuristic: only `for {}`, `for cond {}`, and `for i := …; cond; …`
// loops count (the search/iteration shape in this codebase), and only
// when the loop body calls back into module code — a loop over
// stdlib-only calls cannot hide a solve. A function satisfies the check
// when a parameter or receiver is context.Context or a named type
// ending in Ctx or Context.
var Ctxthread = &Check{
	Name: "ctxthread",
	Doc: "exported solver-core function iterates over module code " +
		"without accepting a context.Context (uncancellable blocking)",
	Run: runCtxthread,
}

func runCtxthread(pass *Pass) {
	if !ctxthreadPackages[pass.Pkg.Types.Name()] {
		return
	}
	for _, file := range pass.Pkg.Files {
		for _, decl := range file.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Body == nil || !fn.Name.IsExported() {
				continue
			}
			if acceptsContext(pass, fn) {
				continue
			}
			if loop := blockingLoop(pass, fn.Body); loop != nil {
				pass.Report(fn.Name.Pos(),
					"exported %s.%s iterates over module code (loop at line %d) but accepts no context.Context; add a Ctx variant or suppress with a reason",
					pass.Pkg.Types.Name(), fn.Name.Name, pass.Fset.Position(loop.Pos()).Line)
			}
		}
	}
}

// acceptsContext reports whether any parameter or the receiver has a
// context-carrying type: context.Context itself or a named type ending
// in Ctx/Context.
func acceptsContext(pass *Pass, fn *ast.FuncDecl) bool {
	var fields []*ast.Field
	if fn.Recv != nil {
		fields = append(fields, fn.Recv.List...)
	}
	if fn.Type.Params != nil {
		fields = append(fields, fn.Type.Params.List...)
	}
	for _, f := range fields {
		if isContextType(pass.TypeOf(f.Type)) {
			return true
		}
	}
	return false
}

// isContextType recognizes context.Context and named *Ctx/*Context
// types (through one level of pointer).
func isContextType(t types.Type) bool {
	if t == nil {
		return false
	}
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	n, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := n.Obj()
	if obj.Pkg() != nil && obj.Pkg().Path() == "context" && obj.Name() == "Context" {
		return true
	}
	return strings.HasSuffix(obj.Name(), "Ctx") || strings.HasSuffix(obj.Name(), "Context")
}

// blockingLoop returns a non-range for statement in body whose subtree
// calls module code, or nil.
func blockingLoop(pass *Pass, body *ast.BlockStmt) *ast.ForStmt {
	var found *ast.ForStmt
	ast.Inspect(body, func(n ast.Node) bool {
		if found != nil {
			return false
		}
		fs, ok := n.(*ast.ForStmt)
		if !ok {
			return true
		}
		calls := false
		ast.Inspect(fs.Body, func(m ast.Node) bool {
			if calls {
				return false
			}
			if call, ok := m.(*ast.CallExpr); ok && pass.IsModuleCall(call) {
				calls = true
				return false
			}
			return true
		})
		if calls {
			found = fs
			return false
		}
		return true
	})
	return found
}
