package lint

// counterparity: every PR that adds an effort counter to the search stack
// has to hand-thread it through three layers — the producing struct
// (solver.Result or repetend.Repetend), the aggregate (core.Stats), and
// the serving payload (cmd/tessel's stats JSON) — and PRs 2, 3 and 4 each
// did this chore by hand. A counter that exists in one layer and not the
// next silently vanishes from /v1/search, which is how effort regressions
// escape dashboards. This analyzer closes the loop mechanically:
//
//  1. In the package that defines Stats (core): every int64 counter field
//     on the imported solver Result and repetend Repetend structs must
//     have a Stats field of the same name, or the name prefixed "Solver"
//     (the established Result.Nodes → Stats.SolverNodes convention).
//  2. In the package that defines the serve stats payload (a struct named
//     searchStatsJSON importing core): every int/int64 field of
//     core.Stats must appear among the payload's json tags as the
//     snake_case of its name, with the "Solver" prefix optionally
//     dropped (SolverMemoHits → memo_hits).
//
// The engine's own counters need no rule: /v1/stats embeds engine.Stats,
// whose json tags are the wire names, so an engine counter cannot exist
// without being served.
//
// A field that is genuinely not a counter is excluded with a
// //tessel:waive:counterparity directive on its declaration line.
//
// Packages are matched by role, not hard-coded path, so the analyzer works
// unchanged on its testdata fixtures: rule 1 fires in any package that
// declares a struct type Stats and imports packages whose last path
// element is "solver" and "repetend"; rule 2 fires in any package that
// declares searchStatsJSON and imports a package whose last element is
// "core".

import (
	"go/token"
	"go/types"
	"reflect"
	"strconv"
	"strings"
	"unicode"
)

// CounterParityAnalyzer cross-checks counter plumbing across the layers.
var CounterParityAnalyzer = &Analyzer{
	Name: "counterparity",
	Doc: "require every solver.Result/repetend.Repetend counter to have a " +
		"core.Stats counterpart and every core.Stats counter a serve JSON tag",
	Applies: func(pkgPath string) bool {
		return pkgPath == "tessel/internal/core" || pkgPath == "tessel/cmd/tessel"
	},
	Run: runCounterParity,
}

func runCounterParity(pass *Pass) error {
	checkStatsParity(pass)
	checkServeParity(pass)
	return nil
}

// importedStruct finds a struct type by name in a package of the import
// closure whose import path ends in base. The walk is transitive because
// the serve command reaches core.Stats through the tessel facade, not by
// importing core directly.
func importedStruct(pass *Pass, base, name string) (*types.Struct, bool) {
	seen := map[*types.Package]bool{}
	var walk func(pkgs []*types.Package) (*types.Struct, bool)
	walk = func(pkgs []*types.Package) (*types.Struct, bool) {
		for _, imp := range pkgs {
			if seen[imp] {
				continue
			}
			seen[imp] = true
			if pathBase(imp.Path()) == base {
				if tn, ok := imp.Scope().Lookup(name).(*types.TypeName); ok {
					st, ok := tn.Type().Underlying().(*types.Struct)
					return st, ok
				}
			}
			if st, ok := walk(imp.Imports()); ok {
				return st, ok
			}
		}
		return nil, false
	}
	return walk(pass.Pkg.Imports())
}

// localStruct finds a struct type declared in the package under analysis.
func localStruct(pass *Pass, name string) (*types.Struct, bool) {
	tn, ok := pass.Pkg.Scope().Lookup(name).(*types.TypeName)
	if !ok {
		return nil, false
	}
	st, ok := tn.Type().Underlying().(*types.Struct)
	return st, ok
}

// isCounterField reports whether a struct field is a counter for parity
// purposes: an exported field of plain int64 or uint64 (producer counter
// structs) or, when wide is set, int as well (aggregates carry small int
// counters and gauges too). Named types like time.Duration
// are excluded.
func isCounterField(f *types.Var, wide bool) bool {
	if !f.Exported() {
		return false
	}
	b, ok := f.Type().(*types.Basic)
	if !ok {
		return false
	}
	switch b.Kind() {
	case types.Int64, types.Uint64:
		return true
	case types.Int:
		return wide
	}
	return false
}

// checkStatsParity is rule 1: producer counters must reach Stats.
func checkStatsParity(pass *Pass) {
	stats, ok := localStruct(pass, "Stats")
	if !ok {
		return
	}
	statsFields := map[string]bool{}
	for i := 0; i < stats.NumFields(); i++ {
		statsFields[stats.Field(i).Name()] = true
	}
	check := func(base, typeName string) {
		st, ok := importedStruct(pass, base, typeName)
		if !ok {
			return
		}
		for i := 0; i < st.NumFields(); i++ {
			f := st.Field(i)
			if !isCounterField(f, false) {
				continue
			}
			if statsFields[f.Name()] || statsFields["Solver"+f.Name()] {
				continue
			}
			pos, ok := fieldReportPos(pass, f, "Stats")
			if !ok {
				continue
			}
			pass.Reportf(pos, "counter %s.%s.%s has no Stats counterpart; add a %s (or Solver%s) field to Stats and thread it through, or waive the field where it is declared", base, typeName, f.Name(), f.Name(), f.Name())
		}
	}
	check("solver", "Result")
	check("repetend", "Repetend")
}

// checkServeParity is rule 2: Stats counters must reach the serve payload.
func checkServeParity(pass *Pass) {
	payload, ok := localStruct(pass, "searchStatsJSON")
	if !ok {
		return
	}
	stats, ok := importedStruct(pass, "core", "Stats")
	if !ok {
		return
	}
	tags := map[string]bool{}
	for i := 0; i < payload.NumFields(); i++ {
		tag := reflect.StructTag(payload.Tag(i)).Get("json")
		if name, _, _ := strings.Cut(tag, ","); name != "" && name != "-" {
			tags[name] = true
		}
	}
	for i := 0; i < stats.NumFields(); i++ {
		f := stats.Field(i)
		if !isCounterField(f, true) {
			continue
		}
		want := camelToSnake(f.Name())
		alt := want
		if trimmed := strings.TrimPrefix(f.Name(), "Solver"); trimmed != f.Name() {
			alt = camelToSnake(trimmed)
		}
		if tags[want] || tags[alt] {
			continue
		}
		pos, ok := fieldReportPos(pass, f, "searchStatsJSON")
		if !ok {
			continue
		}
		pass.Reportf(pos, "Stats counter %s is not exposed by searchStatsJSON; add a field tagged json:%s (or waive the Stats field where it is declared)", f.Name(), strconv.Quote(want))
	}
}

// fieldReportPos maps a field to a reportable position: the field's own
// declaration when it lies in the package under analysis (so a waiver on
// the declaration line works), else the position of the named local anchor
// struct that should mirror it. ok is false when a waiver at the field's
// declaration in its home package suppresses the finding.
func fieldReportPos(pass *Pass, f *types.Var, anchor string) (pos token.Pos, ok bool) {
	if f.Pkg() == pass.Pkg {
		return f.Pos(), true
	}
	// The field lives in an imported package; honor a waiver at its
	// declaration there, else report at this package's anchor struct.
	for _, pkg := range pass.All {
		if pkg.Types == f.Pkg() && pkg.waived(f.Pos(), "counterparity") {
			return token.NoPos, false
		}
	}
	if tn, isType := pass.Pkg.Scope().Lookup(anchor).(*types.TypeName); isType {
		return tn.Pos(), true
	}
	return token.NoPos, false
}

// camelToSnake converts a Go field name to its snake_case JSON tag,
// keeping acronym runs together: SolverNodes → solver_nodes, NRSwept →
// nr_swept.
func camelToSnake(name string) string {
	var b strings.Builder
	runes := []rune(name)
	for i, r := range runes {
		if unicode.IsUpper(r) {
			boundary := i > 0 &&
				(!unicode.IsUpper(runes[i-1]) ||
					(i+1 < len(runes) && !unicode.IsUpper(runes[i+1])))
			if boundary {
				b.WriteByte('_')
			}
			b.WriteRune(unicode.ToLower(r))
		} else {
			b.WriteRune(r)
		}
	}
	return b.String()
}
