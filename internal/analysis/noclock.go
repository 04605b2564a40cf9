package analysis

import (
	"go/ast"
)

// noclockAllowed names the packages that own wall-clock time: the HTTP
// service layer (uptime, latency histograms, deadlines), the stats
// helpers, the fault layer (latency injection sleeps against real
// clocks), and command/example binaries (package main). Everything else
// in the module must be replayable: a wall-clock read inside a solver or
// simulation package makes fault schedules and traces impossible to
// reproduce bit-for-bit.
var noclockAllowed = map[string]bool{
	"server": true,
	"stats":  true,
	"fault":  true,
	"main":   true,
}

// Noclock flags time.Now and time.Since outside the allowlisted
// packages. Wall-time measurement of a solve (Stats.WallTime-style) is a
// legitimate exception — mark it with //gridvolint:ignore noclock
// <reason> on the declaration so the exception stays visible in review.
var Noclock = &Check{
	Name: "noclock",
	Doc: "time.Now/time.Since outside the server/stats/fault/main " +
		"allowlist (wall-clock reads break replayable schedules)",
	Run: runNoclock,
}

func runNoclock(pass *Pass) {
	if noclockAllowed[pass.Pkg.Types.Name()] {
		return
	}
	for _, file := range pass.Pkg.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			fn := pass.Pkg.FuncOf(call)
			if fn == nil || fn.Pkg() == nil || fn.Pkg().Path() != "time" {
				return true
			}
			switch fn.Name() {
			case "Now", "Since":
				pass.Report(call.Pos(),
					"time.%s in package %s (outside the clock allowlist); inject time or suppress with a reason",
					fn.Name(), pass.Pkg.Types.Name())
			}
			return true
		})
	}
}
