// Package lint is tessel-lint: repo-specific static analyzers for the two
// invariants of the search stack that no test can state — byte-identical
// determinism and context plumbing. The API deliberately mirrors
// golang.org/x/tools/go/analysis (Analyzer, Pass, Diagnostic) so the
// analyzers read idiomatically and could be ported to the real framework if
// this module ever takes the dependency; the framework itself is
// reimplemented here on the standard library because the build environment
// is offline and the module is dependency-free.
//
// The analyzers and the invariants they guard:
//
//   - determinism: schedule search must be a pure function of its inputs.
//     Map iteration feeding results, time.Now/math/rand in search code,
//     and sort.Slice without a total-order comparator are flagged in the
//     search packages (solver, repetend, core, sched, engine).
//   - ctxflow: exported search entry points accept context.Context, and
//     library code never conjures context.Background()/TODO() (modulo the
//     nil-guard and Context-suffix convenience-wrapper idioms).
//
// The zero-allocation hot paths and the effort counters' way to the wire
// are held by tests instead: the SteadyStateAllocs tests, and
// TestEffortAddCoversEveryField with TestSearchStatsWireCarriesEveryCounter.
//
// See CONTRIBUTING.md for the directive vocabulary (//tessel:orderfree,
// //tessel:totalorder, //tessel:waive:<analyzer>).
package lint

import (
	"context"
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
)

// Analyzer is one static check, shaped like analysis.Analyzer.
type Analyzer struct {
	// Name identifies the analyzer in findings and waiver directives.
	Name string
	// Doc is a one-paragraph description.
	Doc string
	// Applies filters the packages the driver runs the analyzer on (nil =
	// every target package). Tests bypass it and run on fixtures directly.
	Applies func(pkgPath string) bool
	// Run reports the analyzer's diagnostics for one package.
	Run func(pass *Pass) error
}

// Pass carries one analyzer's view of one package, shaped like
// analysis.Pass.
type Pass struct {
	Analyzer *Analyzer
	Fset     *token.FileSet
	Files    []*ast.File
	Pkg      *types.Package
	Info     *types.Info

	pkg   *Package
	diags *[]Diagnostic
}

// Reportf records a diagnostic at pos unless a waiver directive covers it.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	if p.pkg.waived(pos, p.Analyzer.Name) {
		return
	}
	*p.diags = append(*p.diags, Diagnostic{
		Analyzer: p.Analyzer.Name,
		Pos:      p.Fset.Position(pos),
		Message:  fmt.Sprintf(format, args...),
	})
}

// hasDirective reports whether a line-level directive of the given kind
// covers pos in the package under analysis.
func (p *Pass) hasDirective(pos token.Pos, kind string) bool {
	return p.pkg.hasDirective(pos, kind)
}

// Diagnostic is one finding.
type Diagnostic struct {
	Analyzer string
	Pos      token.Position
	Message  string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: %s: %s", d.Pos.Filename, d.Pos.Line, d.Pos.Column, d.Analyzer, d.Message)
}

// Analyzers returns the full tessel-lint suite.
func Analyzers() []*Analyzer {
	return []*Analyzer{
		DeterminismAnalyzer,
		CtxFlowAnalyzer,
	}
}

// Run loads the packages matching patterns (relative to dir) and applies
// every analyzer to each target package it covers, returning the surviving
// (non-waived) findings sorted by position. Malformed waiver directives
// are findings in their own right.
func Run(ctx context.Context, dir string, patterns ...string) ([]Diagnostic, error) {
	pkgs, err := Load(ctx, dir, patterns...)
	if err != nil {
		return nil, err
	}
	var diags []Diagnostic
	analyzers := Analyzers()
	known := make(map[string]bool, len(analyzers))
	for _, a := range analyzers {
		known[a.Name] = true
	}
	for _, pkg := range pkgs {
		if !pkg.Target {
			continue
		}
		diags = append(diags, auditDirectives(pkg, known)...)
		for _, a := range analyzers {
			if a.Applies != nil && !a.Applies(pkg.Path) {
				continue
			}
			if err := runAnalyzer(a, pkg, &diags); err != nil {
				return nil, err
			}
		}
	}
	sort.Slice(diags, func(i, j int) bool { //tessel:totalorder position then analyzer name is a total order over distinct findings
		a, b := diags[i], diags[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		if a.Analyzer != b.Analyzer {
			return a.Analyzer < b.Analyzer
		}
		return a.Message < b.Message
	})
	return diags, nil
}

func runAnalyzer(a *Analyzer, pkg *Package, diags *[]Diagnostic) error {
	pass := &Pass{
		Analyzer: a,
		Fset:     pkg.Fset,
		Files:    pkg.Files,
		Pkg:      pkg.Types,
		Info:     pkg.Info,
		pkg:      pkg,
		diags:    diags,
	}
	if err := a.Run(pass); err != nil {
		return fmt.Errorf("%s: %s: %v", a.Name, pkg.Path, err)
	}
	return nil
}

// auditDirectives validates the waiver hygiene of a package: a waiver must
// name a known analyzer and must carry a justification.
func auditDirectives(pkg *Package, known map[string]bool) []Diagnostic {
	var out []Diagnostic
	report := func(pos token.Pos, format string, args ...any) {
		out = append(out, Diagnostic{
			Analyzer: "directives",
			Pos:      pkg.Fset.Position(pos),
			Message:  fmt.Sprintf(format, args...),
		})
	}
	for _, lines := range pkg.directives {
		for _, dirs := range lines {
			for _, d := range dirs {
				switch d.kind {
				case "waive":
					if !known[d.arg] {
						report(d.pos, "waiver names unknown analyzer %q", d.arg)
					}
					if d.reason == "" {
						report(d.pos, "waiver for %q has no justification; explain why the rule does not apply", d.arg)
					}
				case "orderfree", "totalorder":
					// Valid kinds; placement is interpreted by their analyzers.
				default:
					report(d.pos, "unknown directive //tessel:%s", d.kind)
				}
			}
		}
	}
	sort.Slice(out, func(i, j int) bool { //tessel:totalorder position then message is a total order over distinct findings
		a, b := out[i], out[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		return a.Message < b.Message
	})
	return out
}

// calleePkgFunc resolves a call to a package-level function of an imported
// package, returning the package path and function name ("" , "" when the
// call is anything else — method, builtin, local, conversion).
func calleePkgFunc(info *types.Info, call *ast.CallExpr) (pkgPath, name string) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return "", ""
	}
	ident, ok := sel.X.(*ast.Ident)
	if !ok {
		return "", ""
	}
	pn, ok := info.Uses[ident].(*types.PkgName)
	if !ok {
		return "", ""
	}
	return pn.Imported().Path(), sel.Sel.Name
}
