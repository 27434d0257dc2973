package lint

// ctxflow: PR 1 threaded context.Context through the whole search stack so
// a serving front-end can cancel any search promptly; that property decays
// one forgotten parameter at a time. This rule pins it:
//
//  1. Exported search entry points — functions or methods whose name
//     starts with Solve, Search, Extend, TimeOptimal or Run in the search
//     packages — must accept a context.Context parameter.
//  2. Library packages must not conjure context.Background() or
//     context.TODO(): a context minted mid-stack silently detaches
//     everything below it from the caller's cancellation.
//
// Two established idioms are recognized and allowed:
//
//   - the nil-guard: `if ctx == nil { ctx = context.Background() }`, the
//     defensive default at a stack's outermost entry;
//   - the convenience wrapper: a function Foo whose package also exports
//     FooContext taking a context.Context — the documented pattern for
//     context-free convenience APIs (tessel.Search / tessel.SearchContext).
//
// Anything else needs //tessel:waive:ctxflow with a justification.

import (
	"go/ast"
	"go/types"
	"path"
	"strings"
)

// ctxEntryPrefixes are the exported-name prefixes treated as search entry
// points by rule 1.
var ctxEntryPrefixes = []string{"Solve", "Search", "Extend", "TimeOptimal", "Run"}

// ctxEntryPackages are the packages whose entry points rule 1 covers. A
// package is in scope on an exact path match or a matching last path
// element — role-based, so the rule follows the search packages if the
// tree is ever rearranged (and reaches the test fixtures).
var ctxEntryPackages = []string{
	"tessel",
	"tessel/internal/solver",
	"tessel/internal/repetend",
	"tessel/internal/core",
	"tessel/internal/engine",
	"tessel/internal/experiments",
	"tessel/internal/lint",
}

// checkCtxFlow enforces context plumbing in one library package.
func checkCtxFlow(pkg *Package, r *reporter) {
	const rule = "ctxflow"
	entryScope := false
	for _, p := range ctxEntryPackages {
		if pkg.Path == p || path.Base(pkg.Path) == path.Base(p) {
			entryScope = true
		}
	}
	for _, file := range pkg.Files {
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok {
				continue
			}
			if entryScope && fd.Name.IsExported() && hasEntryPrefix(fd.Name.Name) &&
				!hasContextParam(pkg.Info, fd) && !isConvenienceWrapper(pkg.Types, fd) {
				r.report(rule, fd.Name.Pos(), "exported search entry point %s must accept a context.Context (add one, or provide a %sContext variant and delegate)", fd.Name.Name, fd.Name.Name)
			}
			if fd.Body == nil {
				continue
			}
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				pkgPath, name := calleePkgFunc(pkg.Info, call)
				if pkgPath != "context" || (name != "Background" && name != "TODO") {
					return true
				}
				if name == "Background" && (nilGuarded(file, call) || isConvenienceWrapper(pkg.Types, fd)) {
					return true
				}
				r.report(rule, call.Pos(), "context.%s() in library code detaches callees from the caller's cancellation; accept and forward a context.Context instead", name)
				return true
			})
		}
	}
}

func hasEntryPrefix(name string) bool {
	for _, p := range ctxEntryPrefixes {
		if strings.HasPrefix(name, p) {
			return true
		}
	}
	return false
}

// hasContextParam reports whether any parameter of fd is context.Context.
func hasContextParam(info *types.Info, fd *ast.FuncDecl) bool {
	if fd.Type.Params == nil {
		return false
	}
	for _, field := range fd.Type.Params.List {
		if tv, ok := info.Types[field.Type]; ok && isContextType(tv.Type) {
			return true
		}
	}
	return false
}

func isContextType(t types.Type) bool {
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Pkg() != nil && obj.Pkg().Path() == "context" && obj.Name() == "Context"
}

// isConvenienceWrapper reports whether fd is the context-free convenience
// form of a <Name>Context function in the same package: the sibling must
// exist, be a function (not a method), and itself take a context.Context.
func isConvenienceWrapper(tpkg *types.Package, fd *ast.FuncDecl) bool {
	if fd.Recv != nil {
		return false
	}
	sibling, ok := tpkg.Scope().Lookup(fd.Name.Name + "Context").(*types.Func)
	if !ok {
		return false
	}
	sig := sibling.Type().(*types.Signature)
	for i := 0; i < sig.Params().Len(); i++ {
		if isContextType(sig.Params().At(i).Type()) {
			return true
		}
	}
	return false
}

// nilGuarded reports whether the Background() call is the classic nil
// default: the right-hand side of an assignment to a variable x inside an
// if statement whose condition is `x == nil` (or `nil == x`).
func nilGuarded(file *ast.File, call *ast.CallExpr) bool {
	guarded := false
	ast.Inspect(file, func(n ast.Node) bool {
		if guarded {
			return false
		}
		ifs, ok := n.(*ast.IfStmt)
		if !ok || !(ifs.Body.Pos() <= call.Pos() && call.Pos() <= ifs.Body.End()) {
			return true
		}
		bin, ok := ifs.Cond.(*ast.BinaryExpr)
		if !ok || bin.Op.String() != "==" {
			return true
		}
		var target string
		switch {
		case isNilIdent(bin.Y):
			target = exprString(bin.X)
		case isNilIdent(bin.X):
			target = exprString(bin.Y)
		default:
			return true
		}
		if target == "" {
			return true
		}
		// The guarded body must assign the Background() result to the
		// nil-checked variable.
		ast.Inspect(ifs.Body, func(m ast.Node) bool {
			as, ok := m.(*ast.AssignStmt)
			if !ok {
				return true
			}
			for i, rhs := range as.Rhs {
				if rhs == ast.Expr(call) && i < len(as.Lhs) && exprString(as.Lhs[i]) == target {
					guarded = true
					return false
				}
			}
			return true
		})
		return !guarded
	})
	return guarded
}

func isNilIdent(e ast.Expr) bool {
	id, ok := e.(*ast.Ident)
	return ok && id.Name == "nil"
}

// exprString renders the variable a nil-guard checks and assigns —
// identifier/selector chains such as ctx or opts.Ctx; other shapes return ""
// (never considered equal).
func exprString(e ast.Expr) string {
	switch e := e.(type) {
	case *ast.Ident:
		return e.Name
	case *ast.SelectorExpr:
		if x := exprString(e.X); x != "" {
			return x + "." + e.Sel.Name
		}
	case *ast.ParenExpr:
		return exprString(e.X)
	}
	return ""
}
