package analysis

import (
	"go/ast"
	"go/types"
	"strings"
)

// Maporder flags ranging over a map where the loop body does something
// order-sensitive: appends to a slice that is never sorted afterwards,
// writes serialized output (fmt print family, Write/WriteString-style
// methods), or feeds a fingerprint or hash. Go randomizes map iteration
// order, so any of these makes output — and therefore the repo's
// bit-reproducibility guarantees (warm==cold solves, chaos fingerprint
// identity) — depend on the run. The approved pattern is to collect the
// keys, sort them, and range over the sorted slice; an append whose
// target is later passed to a sort call in the same function is
// recognized as exactly that and not reported.
var Maporder = &Check{
	Name: "maporder",
	Doc: "range over a map feeding a slice, serialized output, or a hash " +
		"without an intervening sort (map order is nondeterministic)",
	Run: runMaporder,
}

func runMaporder(pass *Pass) {
	for _, file := range pass.Pkg.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			fn, ok := n.(*ast.FuncDecl)
			if !ok || fn.Body == nil {
				return true
			}
			maporderFunc(pass, fn.Body)
			return true
		})
	}
}

// maporderFunc checks every map-range statement inside one function
// body.
func maporderFunc(pass *Pass, body *ast.BlockStmt) {
	ast.Inspect(body, func(n ast.Node) bool {
		rs, ok := n.(*ast.RangeStmt)
		if !ok {
			return true
		}
		t := pass.TypeOf(rs.X)
		if t == nil {
			return true
		}
		if _, isMap := t.Underlying().(*types.Map); !isMap {
			return true
		}
		checkMapRange(pass, body, rs)
		return true
	})
}

// checkMapRange inspects one map-range loop body for order-sensitive
// sinks.
func checkMapRange(pass *Pass, fnBody *ast.BlockStmt, rs *ast.RangeStmt) {
	ast.Inspect(rs.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.CallExpr:
			if name, sink := sinkCall(pass, n); sink {
				pass.Report(n.Pos(), "map iteration order reaches %s; iterate sorted keys instead", name)
				return true
			}
			if target := appendTarget(pass, n); target != nil {
				if !sortedAfter(pass, fnBody, rs, target) {
					pass.Report(n.Pos(), "append to %q inside map range without a later sort; element order is nondeterministic", target.Name())
				}
			}
		}
		return true
	})
}

// appendTarget returns the object a call appends to when call is
// append(x, ...) with x an identifier, else nil.
func appendTarget(pass *Pass, call *ast.CallExpr) types.Object {
	id, ok := ast.Unparen(call.Fun).(*ast.Ident)
	if !ok || id.Name != "append" || len(call.Args) == 0 {
		return nil
	}
	if b, ok := pass.ObjectOf(id).(*types.Builtin); !ok || b.Name() != "append" {
		return nil
	}
	arg, ok := ast.Unparen(call.Args[0]).(*ast.Ident)
	if !ok {
		return nil
	}
	return pass.ObjectOf(arg)
}

// sinkCall reports whether a call emits bytes whose order the reader
// observes: the fmt print family, writer methods (Write, WriteString,
// …), hash-style Sum methods, and anything on a type or function whose
// name mentions hashing or fingerprinting.
func sinkCall(pass *Pass, call *ast.CallExpr) (string, bool) {
	fn := pass.Pkg.FuncOf(call)
	if fn == nil {
		return "", false
	}
	name := fn.Name()
	if fn.Pkg() != nil && fn.Pkg().Path() == "fmt" &&
		(strings.HasPrefix(name, "Print") || strings.HasPrefix(name, "Fprint")) {
		return "fmt." + name, true
	}
	if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() != nil {
		switch name {
		case "Write", "WriteString", "WriteByte", "WriteRune", "Sum", "Sum32", "Sum64":
			return recvName(sig) + "." + name, true
		}
		if isHashy(recvName(sig)) {
			return recvName(sig) + "." + name, true
		}
	}
	if isHashy(name) {
		return name, true
	}
	return "", false
}

// recvName names a method's receiver type without pointers or package
// qualifiers.
func recvName(sig *types.Signature) string {
	t := sig.Recv().Type()
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	if n, ok := t.(*types.Named); ok {
		return n.Obj().Name()
	}
	return t.String()
}

// isHashy reports whether an identifier smells like hashing or
// fingerprinting.
func isHashy(name string) bool {
	low := strings.ToLower(name)
	return strings.Contains(low, "hash") || strings.Contains(low, "fingerprint")
}

// sortedAfter reports whether obj is passed to a sort call (sort.*,
// slices.Sort*, or any function whose name starts with "sort") after
// the range statement, inside the same function body — the approved
// collect-then-sort pattern.
func sortedAfter(pass *Pass, fnBody *ast.BlockStmt, rs *ast.RangeStmt, obj types.Object) bool {
	found := false
	ast.Inspect(fnBody, func(n ast.Node) bool {
		if found {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok || call.Pos() < rs.End() {
			return true
		}
		if !isSortCall(pass, call) {
			return true
		}
		for _, arg := range call.Args {
			if id, ok := ast.Unparen(arg).(*ast.Ident); ok && pass.ObjectOf(id) == obj {
				found = true
				return false
			}
		}
		return true
	})
	return found
}

// isSortCall recognizes sort.X(...), slices.SortX(...), and local
// helpers named sort*/Sort*.
func isSortCall(pass *Pass, call *ast.CallExpr) bool {
	fn := pass.Pkg.FuncOf(call)
	if fn == nil {
		return false
	}
	if pkg := fn.Pkg(); pkg != nil && (pkg.Path() == "sort" || pkg.Path() == "slices") {
		return true
	}
	return strings.HasPrefix(strings.ToLower(fn.Name()), "sort")
}
