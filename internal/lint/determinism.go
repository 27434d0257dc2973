package lint

// determinism: byte-identical schedule search is the repo's core guarantee
// (worker-count-independent sweeps, reproducible fingerprints), and the
// three constructs this rule flags are exactly the ones that have
// produced — or nearly produced — nondeterminism in past PRs:
//
//   - ranging over a map: Go randomizes iteration order, so any map-range
//     whose effect reaches an output must sort its keys first (or carry a
//     //tessel:orderfree directive asserting the loop is order-free, e.g.
//     because its results are sorted before use);
//   - time.Now and math/rand in search code: wall-clock and randomness
//     must never feed schedule bytes (telemetry uses are waived with a
//     justification);
//   - sort.Slice and slices.SortFunc: the unstable sorts are deterministic
//     only under a total order. PR 4 caught a shipping tie-break bug of
//     exactly this shape (ordersFromStarts), so each one in search code
//     must either become its stable counterpart or carry
//     //tessel:totalorder documenting that the comparator breaks every tie.

import (
	"go/ast"
	"go/types"
	"strings"
)

// determinismPackages are the search packages the rule covers: the ones
// whose outputs are covered by the byte-identical determinism guarantee.
var determinismPackages = []string{
	"tessel/internal/solver",
	"tessel/internal/repetend",
	"tessel/internal/core",
	"tessel/internal/sched",
	"tessel/internal/engine",
}

// checkDeterminism flags the nondeterminism sources in one package.
func checkDeterminism(pkg *Package, r *reporter) {
	const rule = "determinism"
	for _, file := range pkg.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.RangeStmt:
				tv, ok := pkg.Info.Types[n.X]
				if !ok {
					return true
				}
				if _, isMap := tv.Type.Underlying().(*types.Map); isMap && !pkg.hasDirective(n.Pos(), "orderfree") {
					r.report(rule, n.Pos(), "map iteration order is nondeterministic; sort the keys before ranging, or annotate //tessel:orderfree if the loop is order-independent")
				}
			case *ast.CallExpr:
				pkgPath, name := calleePkgFunc(pkg.Info, n)
				switch {
				case pkgPath == "time" && name == "Now":
					r.report(rule, n.Pos(), "time.Now in search code: wall-clock readings must never influence schedule bytes")
				case pkgPath == "math/rand" || strings.HasPrefix(pkgPath, "math/rand/"):
					r.report(rule, n.Pos(), "math/rand in search code: randomness breaks byte-identical search results")
				case pkgPath == "sort" && name == "Slice", pkgPath == "slices" && name == "SortFunc":
					if !pkg.hasDirective(n.Pos(), "totalorder") {
						r.report(rule, n.Pos(), "%s.%s is unstable; use the stable variant, or annotate //tessel:totalorder if the comparator breaks every tie", pkgPath, name)
					}
				}
			}
			return true
		})
	}
}
