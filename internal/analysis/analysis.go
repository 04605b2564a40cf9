package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// Diagnostic is one finding: a position, the check that produced it, and
// a human-readable message. The JSON form is what cmd/gridvolint -json
// emits.
type Diagnostic struct {
	File    string `json:"file"`
	Line    int    `json:"line"`
	Col     int    `json:"col"`
	Check   string `json:"check"`
	Message string `json:"message"`
}

// String renders the diagnostic in the canonical
// "file:line:col  [check]  message" form.
func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d  [%s]  %s", d.File, d.Line, d.Col, d.Check, d.Message)
}

// Check is one static analysis pass. Checks are pure functions of a
// type-checked package: they inspect the syntax trees through Pass and
// report diagnostics; they never mutate anything.
type Check struct {
	// Name is the identifier used on the command line, in output, and in
	// //gridvolint:ignore directives.
	Name string
	// Doc is a one-paragraph description of what the check flags and why.
	Doc string
	// Run inspects pass and reports findings via pass.Report.
	Run func(pass *Pass)
}

// All lists every check in the suite, in output order. The first five
// are single-function syntactic checks; fptaint and allocguard ride the
// interprocedural Module layer (call graph + fact store) built once per
// RunChecks. Each check earns its place by a regression case under
// testdata/regress or by guarding a determinism contract no test pins
// (TestEveryCheckEarnsItsPlace).
var All = []*Check{
	Maporder,
	Recipmul,
	Ctxthread,
	Noclock,
	Randsource,
	Fptaint,
	Allocguard,
}

// ByName returns the named check, or nil.
func ByName(name string) *Check {
	for _, c := range All {
		if c.Name == name {
			return c
		}
	}
	return nil
}

// Pass is the per-package context handed to every check.
type Pass struct {
	Fset *token.FileSet
	Pkg  *Package
	// ModulePath is the path prefix identifying module-internal
	// packages; checks use it to tell local calls from stdlib calls.
	ModulePath string
	// Mod is the module-wide call graph and fact store, built once per
	// RunChecks invocation and shared by every check. The interprocedural
	// checks (fptaint, allocguard) consult its fact tables;
	// single-function checks can ignore it.
	Mod *Module

	check *Check
	diags *[]Diagnostic
}

// Report records a finding of the running check at pos.
func (p *Pass) Report(pos token.Pos, format string, args ...any) {
	position := p.Fset.Position(pos)
	*p.diags = append(*p.diags, Diagnostic{
		File:    position.Filename,
		Line:    position.Line,
		Col:     position.Column,
		Check:   p.check.Name,
		Message: fmt.Sprintf(format, args...),
	})
}

// TypeOf returns the type of e, or nil.
func (p *Pass) TypeOf(e ast.Expr) types.Type { return p.Pkg.Info.TypeOf(e) }

// ObjectOf returns the object an identifier denotes (use or def), or nil.
func (p *Pass) ObjectOf(id *ast.Ident) types.Object {
	if obj := p.Pkg.Info.Uses[id]; obj != nil {
		return obj
	}
	return p.Pkg.Info.Defs[id]
}

// IsFloat reports whether e has floating-point type (after unwrapping
// named types); untyped float constants count.
func (p *Pass) IsFloat(e ast.Expr) bool {
	t := p.TypeOf(e)
	if t == nil {
		return false
	}
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsFloat != 0
}

// IsModuleCall reports whether call invokes a function or method defined
// in this module (as opposed to the standard library or a builtin).
// Iteration around module-internal calls is what the ctxthread check
// treats as "can block".
func (p *Pass) IsModuleCall(call *ast.CallExpr) bool {
	fn := p.Pkg.FuncOf(call)
	if fn == nil || fn.Pkg() == nil {
		return false
	}
	path := fn.Pkg().Path()
	return path == p.ModulePath || strings.HasPrefix(path, p.ModulePath+"/")
}

// ignoreDirective is one well-formed //gridvolint:ignore comment.
type ignoreDirective struct {
	pos    token.Position
	check  string
	reason string
	// fromLine/toLine is the suppressed range: the comment's own line and
	// the line below, widened to a whole declaration when the directive
	// appears in that declaration's doc comment.
	fromLine, toLine int
}

const ignorePrefix = "//gridvolint:ignore"

// parseIgnores collects suppression directives from a file. A directive
// has the form
//
//	//gridvolint:ignore <check> <reason>
//
// and suppresses <check> on its own line and the line below — or, when
// it appears in the doc comment of a function, type, var, or const
// declaration, across that whole declaration. The reason is mandatory;
// malformed directives come back as diagnostics of the pseudo-check
// "ignore" so silent, unexplained suppressions cannot accumulate.
func parseIgnores(fset *token.FileSet, file *ast.File) ([]ignoreDirective, []Diagnostic) {
	var out []ignoreDirective
	var bad []Diagnostic

	// Declaration ranges, so doc-comment directives can cover the decl.
	type declRange struct {
		doc      *ast.CommentGroup
		from, to int
	}
	var decls []declRange
	for _, d := range file.Decls {
		var doc *ast.CommentGroup
		switch d := d.(type) {
		case *ast.FuncDecl:
			doc = d.Doc
		case *ast.GenDecl:
			doc = d.Doc
		}
		if doc != nil {
			decls = append(decls, declRange{doc, fset.Position(d.Pos()).Line, fset.Position(d.End()).Line})
		}
	}

	for _, cg := range file.Comments {
		for _, c := range cg.List {
			rest, ok := strings.CutPrefix(c.Text, ignorePrefix)
			if !ok {
				continue
			}
			pos := fset.Position(c.Pos())
			fields := strings.Fields(rest)
			if len(fields) < 2 || ByName(fields[0]) == nil {
				bad = append(bad, ignoreDiag(pos, "malformed suppression %q: want %s <check> <reason> with a known check", c.Text, ignorePrefix))
				continue
			}
			dir := ignoreDirective{pos: pos, check: fields[0], reason: strings.Join(fields[1:], " "), fromLine: pos.Line, toLine: pos.Line + 1}
			for _, dr := range decls {
				if dr.doc.Pos() <= c.Pos() && c.Pos() <= dr.doc.End() {
					dir.fromLine, dir.toLine = dr.from, dr.to
					break
				}
			}
			out = append(out, dir)
		}
	}
	return out, bad
}

// ignoreDiag builds a finding of the pseudo-check "ignore" at pos.
func ignoreDiag(pos token.Position, format string, args ...any) Diagnostic {
	return Diagnostic{File: pos.Filename, Line: pos.Line, Col: pos.Column, Check: "ignore", Message: fmt.Sprintf(format, args...)}
}

// Suppression is one well-formed //gridvolint:ignore directive, as
// inventoried by Suppressions for the suppression audit.
type Suppression struct {
	File   string `json:"file"`
	Line   int    `json:"line"`
	Check  string `json:"check"`
	Reason string `json:"reason"`
}

// Suppressions inventories every suppression directive in the packages,
// in file/line order. Malformed directives (unknown check, missing
// reason) and perfunctory ones (a reason under three words) come back as
// diagnostics of the pseudo-check "ignore": the reason is the only
// review artifact explaining why a determinism check does not apply at
// that site, so a token reason defeats the audit's purpose.
func Suppressions(fset *token.FileSet, pkgs []*Package) ([]Suppression, []Diagnostic) {
	var sups []Suppression
	var diags []Diagnostic
	for _, pkg := range pkgs {
		for _, f := range pkg.Files {
			dirs, bad := parseIgnores(fset, f)
			diags = append(diags, bad...)
			for _, d := range dirs {
				if len(strings.Fields(d.reason)) < 3 {
					diags = append(diags, ignoreDiag(d.pos, "perfunctory suppression reason %q: explain why %s does not apply at this site", d.reason, d.check))
					continue
				}
				sups = append(sups, Suppression{File: d.pos.Filename, Line: d.pos.Line, Check: d.check, Reason: d.reason})
			}
		}
	}
	sort.Slice(sups, func(i, j int) bool {
		if sups[i].File != sups[j].File {
			return sups[i].File < sups[j].File
		}
		return sups[i].Line < sups[j].Line
	})
	sort.Slice(diags, func(i, j int) bool {
		if diags[i].File != diags[j].File {
			return diags[i].File < diags[j].File
		}
		return diags[i].Line < diags[j].Line
	})
	return sups, diags
}

// RunChecks runs the given checks (all of them when checks is nil) over
// the packages and returns surviving diagnostics sorted by file, line,
// column, and check name. Suppression directives are applied here, and
// malformed directives surface as diagnostics of the pseudo-check
// "ignore".
func RunChecks(fset *token.FileSet, modulePath string, pkgs []*Package, checks []*Check) []Diagnostic {
	if checks == nil {
		checks = All
	}
	var diags []Diagnostic
	var ignores []ignoreDirective

	// One call graph and one set of fact tables for the whole run: every
	// interprocedural check shares them, so the marginal cost of another
	// check is a pass over the facts, not another module traversal.
	mod := BuildModule(fset, modulePath, pkgs)

	for _, pkg := range pkgs {
		for _, c := range checks {
			pass := &Pass{Fset: fset, Pkg: pkg, ModulePath: modulePath, Mod: mod, check: c, diags: &diags}
			c.Run(pass)
		}
		for _, f := range pkg.Files {
			dirs, bad := parseIgnores(fset, f)
			ignores = append(ignores, dirs...)
			diags = append(diags, bad...)
		}
	}

	kept := diags[:0]
	for _, d := range diags {
		suppressed := false
		for _, ig := range ignores {
			if ig.check == d.Check && ig.pos.Filename == d.File && ig.fromLine <= d.Line && d.Line <= ig.toLine {
				suppressed = true
				break
			}
		}
		if !suppressed {
			kept = append(kept, d)
		}
	}
	diags = kept

	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i], diags[j]
		if a.File != b.File {
			return a.File < b.File
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		if a.Col != b.Col {
			return a.Col < b.Col
		}
		return a.Check < b.Check
	})
	return diags
}
