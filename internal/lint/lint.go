// Package lint holds the repo's two static checks, for the invariants of
// the search stack that no test can state on values — byte-identical
// determinism and context plumbing. TestRunOnRepo runs them over the
// module, so `go test ./internal/lint` is the gate.
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
// //tessel:totalorder, //tessel:waive:<rule>).
package lint

import (
	"cmp"
	"context"
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"slices"
	"strings"
)

// rules are the names a //tessel:waive: directive may carry.
var rules = map[string]bool{"determinism": true, "ctxflow": true}

// Finding is one violation of a rule at a source position.
type Finding struct {
	Rule    string
	Pos     token.Position
	Message string
}

func (f Finding) String() string {
	return fmt.Sprintf("%s:%d:%d: %s: %s", f.Pos.Filename, f.Pos.Line, f.Pos.Column, f.Rule, f.Message)
}

// reporter collects one package's findings, dropping those a justified
// waiver covers.
type reporter struct {
	pkg      *Package
	findings []Finding
}

func (r *reporter) report(rule string, pos token.Pos, format string, args ...any) {
	if r.pkg.waived(pos, rule) {
		return
	}
	r.findings = append(r.findings, Finding{Rule: rule, Pos: r.pkg.Fset.Position(pos), Message: fmt.Sprintf(format, args...)})
}

// Run loads the packages matching patterns (relative to dir) and applies
// each rule to the packages it covers, returning the surviving
// (non-waived) findings sorted by position. Malformed waiver directives
// are findings in their own right.
func Run(ctx context.Context, dir string, patterns ...string) ([]Finding, error) {
	pkgs, err := Load(ctx, dir, patterns...)
	if err != nil {
		return nil, err
	}
	var findings []Finding
	for _, pkg := range pkgs {
		findings = append(findings, auditDirectives(pkg)...)
		r := &reporter{pkg: pkg}
		if slices.Contains(determinismPackages, pkg.Path) {
			checkDeterminism(pkg, r)
		}
		// ctxflow covers every library package; mains legitimately
		// originate contexts, and by convention cmd/* and examples/* are mains.
		if !strings.Contains(pkg.Path, "/cmd/") && !strings.Contains(pkg.Path, "/examples/") {
			checkCtxFlow(pkg, r)
		}
		findings = append(findings, r.findings...)
	}
	slices.SortFunc(findings, func(a, b Finding) int {
		return cmp.Or(
			cmp.Compare(a.Pos.Filename, b.Pos.Filename),
			cmp.Compare(a.Pos.Line, b.Pos.Line),
			cmp.Compare(a.Pos.Column, b.Pos.Column),
			cmp.Compare(a.Rule, b.Rule),
			cmp.Compare(a.Message, b.Message))
	})
	return findings, nil
}

// auditDirectives validates the waiver hygiene of a package: a waiver must
// name a rule and must carry a justification.
func auditDirectives(pkg *Package) []Finding {
	var out []Finding
	report := func(pos token.Pos, format string, args ...any) {
		out = append(out, Finding{Rule: "directives", Pos: pkg.Fset.Position(pos), Message: fmt.Sprintf(format, args...)})
	}
	for _, lines := range pkg.directives {
		for _, dirs := range lines {
			for _, d := range dirs {
				switch d.kind {
				case "waive":
					if !rules[d.arg] {
						report(d.pos, "waiver names unknown analyzer %q", d.arg)
					}
					if d.reason == "" {
						report(d.pos, "waiver for %q has no justification; explain why the rule does not apply", d.arg)
					}
				case "orderfree", "totalorder":
					// Valid kinds; placement is interpreted by the determinism rule.
				default:
					report(d.pos, "unknown directive //tessel:%s", d.kind)
				}
			}
		}
	}
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
