// Package analysis is agcmlint's static-analysis framework plus the three
// AGCM-specific analyzers (nondeterm, commtag, collective) that
// machine-check the simulator's determinism and communication-protocol
// invariants (see internal/sim and internal/comm package docs for the rules
// being enforced).
//
// The framework mirrors the shape of golang.org/x/tools/go/analysis —
// Analyzer, Pass, Diagnostic — but is built on the standard library alone:
// this tree must build with no module downloads, so x/tools cannot be a
// dependency (see the note in go.mod).  The API is kept signature-compatible
// enough that each analyzer's Run function could be ported to the real
// framework by changing only the package names.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// An Analyzer describes one static check.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and in
	// //lint:allow <name> <reason> suppression comments.
	Name string
	// Doc is the analyzer's help text; the first line is a summary.
	Doc string
	// Run applies the check to one package, reporting findings via
	// pass.Report / pass.Reportf.
	Run func(pass *Pass) error
}

// A Package is one type-checked package ready for analysis, as produced by
// the load subpackage.
type Package struct {
	Fset      *token.FileSet
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info
}

// A Pass connects one Analyzer to one Package.
type Pass struct {
	Analyzer  *Analyzer
	Fset      *token.FileSet
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info
	Report    func(Diagnostic)
}

// Reportf reports a diagnostic at pos with a formatted message.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.Report(Diagnostic{Pos: pos, Message: fmt.Sprintf(format, args...)})
}

// A Diagnostic is one finding.  Analyzer is filled in by Run.
type Diagnostic struct {
	Pos      token.Pos
	Analyzer string
	Message  string
}

// Position resolves the diagnostic's file position against fset.
func (d Diagnostic) Position(fset *token.FileSet) token.Position {
	return fset.Position(d.Pos)
}

// AllowDirective is one parsed //lint:allow comment.
type AllowDirective struct {
	Line     int    // line the comment sits on
	Analyzer string // analyzer being suppressed
	Reason   string // mandatory justification
}

// allowPrefix introduces a suppression comment:
//
//	//lint:allow <analyzer> <reason>
//
// A directive suppresses diagnostics of that analyzer on its own line and on
// the line directly below it (so it can ride at the end of the offending
// line or on the line above it).  The reason is mandatory: an allow without
// a justification is itself reported.
const allowPrefix = "//lint:allow"

// parseAllows extracts the suppression directives of one file, reporting
// malformed ones (missing analyzer or reason) through report.
func parseAllows(fset *token.FileSet, file *ast.File, report func(Diagnostic)) []AllowDirective {
	var out []AllowDirective
	for _, cg := range file.Comments {
		for _, c := range cg.List {
			if !strings.HasPrefix(c.Text, allowPrefix) {
				continue
			}
			rest := strings.TrimPrefix(c.Text, allowPrefix)
			if rest != "" && rest[0] != ' ' && rest[0] != '\t' {
				continue // e.g. //lint:allowance — not ours
			}
			fields := strings.Fields(rest)
			if len(fields) < 2 {
				report(Diagnostic{
					Pos:      c.Pos(),
					Analyzer: "lintdirective",
					Message:  "malformed //lint:allow: need \"//lint:allow <analyzer> <reason>\" with a non-empty reason",
				})
				continue
			}
			out = append(out, AllowDirective{
				Line:     fset.Position(c.Pos()).Line,
				Analyzer: fields[0],
				Reason:   strings.Join(fields[1:], " "),
			})
		}
	}
	return out
}

// Run applies each analyzer to each package, filters out diagnostics
// suppressed by //lint:allow directives, and returns the remainder sorted by
// position.  Malformed directives are reported as diagnostics of the pseudo
// analyzer "lintdirective".
func Run(pkgs []*Package, analyzers []*Analyzer) ([]Diagnostic, error) {
	var all []Diagnostic
	for _, pkg := range pkgs {
		// The analyzers check non-test code only: tests legitimately use
		// wall clocks, randomness, and deliberately-invalid protocol calls
		// (e.g. sending a reserved tag to assert the panic).  The
		// standalone loader never reads _test.go files, but under `go vet`
		// cmd/go includes them in the unit, so filter here to keep the two
		// modes consistent.
		files := pkg.Files[:0:0]
		for _, f := range pkg.Files {
			name := pkg.Fset.Position(f.Package).Filename
			if !strings.HasSuffix(name, "_test.go") {
				files = append(files, f)
			}
		}
		// allowed[line] lists analyzers suppressed on that line.
		allowed := make(map[int][]string)
		for _, f := range files {
			for _, d := range parseAllows(pkg.Fset, f, func(d Diagnostic) { all = append(all, d) }) {
				allowed[d.Line] = append(allowed[d.Line], d.Analyzer)
				allowed[d.Line+1] = append(allowed[d.Line+1], d.Analyzer)
			}
		}
		for _, a := range analyzers {
			pass := &Pass{
				Analyzer:  a,
				Fset:      pkg.Fset,
				Files:     files,
				Pkg:       pkg.Pkg,
				TypesInfo: pkg.TypesInfo,
			}
			pass.Report = func(d Diagnostic) {
				d.Analyzer = a.Name
				line := pkg.Fset.Position(d.Pos).Line
				for _, name := range allowed[line] {
					if name == a.Name {
						return
					}
				}
				all = append(all, d)
			}
			if err := a.Run(pass); err != nil {
				return nil, fmt.Errorf("analyzer %s on %s: %w", a.Name, pkg.Pkg.Path(), err)
			}
		}
	}
	sort.Slice(all, func(i, j int) bool { return all[i].Pos < all[j].Pos })
	return all, nil
}

// funcBodies yields every function body in the file exactly once: each
// FuncDecl body and each FuncLit body is visited as its own unit, with
// nested FuncLits excluded from the enclosing walk (they get their own
// visit).  Analyzers that reason about intra-function control or data flow
// use this so a closure's conditions do not leak into its enclosing
// function's analysis.
func funcBodies(file *ast.File, visit func(body *ast.BlockStmt)) {
	ast.Inspect(file, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncDecl:
			if n.Body != nil {
				visit(n.Body)
			}
		case *ast.FuncLit:
			visit(n.Body)
		}
		return true
	})
}

// inspectSkippingFuncLits walks the statements of one function body without
// descending into nested function literals.
func inspectSkippingFuncLits(body *ast.BlockStmt, fn func(ast.Node) bool) {
	ast.Inspect(body, func(n ast.Node) bool {
		if _, ok := n.(*ast.FuncLit); ok {
			return false
		}
		return fn(n)
	})
}

// methodOn reports whether call is a method call named one of names on a
// named type typeName declared in a package named pkgName, returning the
// method name.  Matching is by package *name* rather than import path so the
// analyzers also work on test fixtures and forks of the module.
func methodOn(info *types.Info, call *ast.CallExpr, pkgName, typeName string, names ...string) (string, bool) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return "", false
	}
	selection, ok := info.Selections[sel]
	if !ok || selection.Kind() != types.MethodVal {
		return "", false
	}
	obj := selection.Obj()
	if obj.Pkg() == nil || obj.Pkg().Name() != pkgName {
		return "", false
	}
	recv := selection.Recv()
	for {
		if p, ok := recv.(*types.Pointer); ok {
			recv = p.Elem()
			continue
		}
		break
	}
	named, ok := recv.(*types.Named)
	if !ok || named.Obj().Name() != typeName {
		return "", false
	}
	for _, n := range names {
		if obj.Name() == n {
			return n, true
		}
	}
	return "", false
}
