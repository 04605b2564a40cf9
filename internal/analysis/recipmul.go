package analysis

import (
	"go/ast"
	"go/constant"
	"go/token"
	"go/types"
)

// Recipmul flags computing a reciprocal into a variable (v := 1 / x)
// that is later used as a multiplier (y * v or y *= v). For subnormal x,
// 1/x overflows to +Inf even though y/x would have been finite — the
// exact bug PR 4's trust-normalization fuzzer found in
// matrix.NormalizeRows, where a subnormal row sum turned a whole trust
// row into +Inf. The reciprocal-then-multiply form buys one division at
// the cost of a silent range hazard; divide directly instead, or
// suppress with a //gridvolint:ignore recipmul <reason> if the operand
// range is provably bounded away from zero.
var Recipmul = &Check{
	Name: "recipmul",
	Doc: "reciprocal computed into a variable and used as a multiplier " +
		"(1/x overflows to +Inf for subnormal x; divide directly)",
	Run: runRecipmul,
}

func runRecipmul(pass *Pass) {
	for _, file := range pass.Pkg.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			fn, ok := n.(*ast.FuncDecl)
			if !ok || fn.Body == nil {
				return true
			}
			recipmulFunc(pass, fn.Body)
			return true
		})
	}
}

// recipmulFunc finds reciprocal assignments in one function body and
// reports those whose variable later appears as a multiplication
// operand.
func recipmulFunc(pass *Pass, body *ast.BlockStmt) {
	// First pass: variables assigned 1/x with float type.
	type recip struct {
		obj types.Object
		pos token.Pos
	}
	var recips []recip
	ast.Inspect(body, func(n ast.Node) bool {
		as, ok := n.(*ast.AssignStmt)
		if !ok || len(as.Lhs) != len(as.Rhs) {
			return true
		}
		for i, rhs := range as.Rhs {
			if !isReciprocal(pass, rhs) {
				continue
			}
			lhs, ok := ast.Unparen(as.Lhs[i]).(*ast.Ident)
			if !ok || lhs.Name == "_" {
				continue
			}
			if obj := pass.Pkg.ObjectOf(lhs); obj != nil {
				recips = append(recips, recip{obj, as.Pos()})
			}
		}
		return true
	})
	if len(recips) == 0 {
		return
	}

	// Second pass: any multiplication by one of those variables.
	reported := map[types.Object]bool{}
	useAsMultiplier := func(e ast.Expr) types.Object {
		id, ok := ast.Unparen(e).(*ast.Ident)
		if !ok {
			return nil
		}
		obj := pass.Pkg.ObjectOf(id)
		for _, r := range recips {
			if r.obj == obj {
				return obj
			}
		}
		return nil
	}
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.BinaryExpr:
			if n.Op != token.MUL {
				return true
			}
			for _, side := range []ast.Expr{n.X, n.Y} {
				if obj := useAsMultiplier(side); obj != nil && !reported[obj] {
					reported[obj] = true
					pass.Report(n.Pos(), "multiplying by reciprocal %q; divide directly (1/x overflows for subnormal x)", obj.Name())
				}
			}
		case *ast.AssignStmt:
			if n.Tok != token.MUL_ASSIGN {
				return true
			}
			for _, rhs := range n.Rhs {
				if obj := useAsMultiplier(rhs); obj != nil && !reported[obj] {
					reported[obj] = true
					pass.Report(n.Pos(), "multiplying by reciprocal %q; divide directly (1/x overflows for subnormal x)", obj.Name())
				}
			}
		}
		return true
	})
}

// isReciprocal reports whether e is a float division with constant
// numerator 1.
func isReciprocal(pass *Pass, e ast.Expr) bool {
	be, ok := ast.Unparen(e).(*ast.BinaryExpr)
	if !ok || be.Op != token.QUO || !pass.IsFloat(be) {
		return false
	}
	tv, ok := pass.Pkg.Info.Types[be.X]
	if !ok || tv.Value == nil {
		return false
	}
	// The denominator must be non-constant: 1/2.0 is compile-time math.
	if dtv, ok := pass.Pkg.Info.Types[be.Y]; ok && dtv.Value != nil {
		return false
	}
	return constant.Compare(constant.ToFloat(tv.Value), token.EQL, constant.MakeFloat64(1))
}
