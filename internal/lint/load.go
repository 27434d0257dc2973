package lint

// Package loading for the analyzers. The canonical driver for
// golang.org/x/tools analyzers is go/packages, which this module cannot
// depend on (the build environment is offline and the module is
// intentionally dependency-free), so the loader reimplements the slice of
// it the analyzers need on the standard library alone:
//
//   - `go list -deps -export -json` enumerates the packages matching the
//     requested patterns plus their full dependency closure, and — because
//     of -export — compiles them, yielding an export-data file per
//     dependency;
//   - packages that belong to this module are parsed and type-checked from
//     source (the analyzers need syntax and full types.Info), in dependency
//     order, so a module package importing another module package resolves
//     to the very same *types.Package;
//   - everything else (the standard library) is imported from the export
//     data via the compiler importer, exactly as a real driver would.
//
// Test packages are deliberately not loaded: the invariants the analyzers
// enforce are production-code invariants, and tests legitimately use maps,
// fmt, math/rand and ad-hoc allocation.

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
)

// Package is one analyzed (or dependency) package: syntax, type
// information, and the tessel directives parsed from its comments.
type Package struct {
	// Path is the package's import path.
	Path string
	// Dir is the package's source directory.
	Dir string
	// Target reports whether the package was matched by the load patterns
	// (true) or pulled in only as a dependency (false). Analyzers run on
	// target packages; dependencies exist for type information.
	Target bool
	// Fset is the file set shared by every package of the load.
	Fset *token.FileSet
	// Files is the parsed syntax of the package's non-test Go files.
	Files []*ast.File
	// Types is the type-checked package.
	Types *types.Package
	// Info holds the type-checker's expression/object tables.
	Info *types.Info
	// directives indexes the //tessel: directives by file and line.
	directives directiveIndex
}

// listedPkg is the subset of `go list -json` output the loader consumes.
type listedPkg struct {
	ImportPath string
	Dir        string
	Export     string
	GoFiles    []string
	Standard   bool
	DepOnly    bool
	Imports    []string
	Module     *struct{ Path string }
	Error      *struct{ Err string }
}

// Load runs `go list` on the patterns and type-checks every matched module
// package (plus its module dependencies) from source. It returns the
// loaded packages in dependency order, targets marked.
func Load(ctx context.Context, dir string, patterns ...string) ([]*Package, error) {
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	listed, err := goList(ctx, dir, patterns)
	if err != nil {
		return nil, err
	}

	fset := token.NewFileSet()
	ld := &loader{
		ctx:     ctx,
		fset:    fset,
		listed:  make(map[string]*listedPkg, len(listed)),
		checked: make(map[string]*Package),
		exports: make(map[string]string, len(listed)),
	}
	for _, lp := range listed {
		ld.listed[lp.ImportPath] = lp
		if lp.Export != "" {
			ld.exports[lp.ImportPath] = lp.Export
		}
	}
	ld.imp = importer.ForCompiler(fset, "gc", func(path string) (io.ReadCloser, error) {
		f, ok := ld.exports[path]
		if !ok {
			return nil, fmt.Errorf("no export data for %q", path)
		}
		return os.Open(f)
	})

	var out []*Package
	for _, lp := range listed {
		if !moduleLocal(lp) {
			continue
		}
		pkg, err := ld.check(lp.ImportPath)
		if err != nil {
			return nil, err
		}
		pkg.Target = !lp.DepOnly
		out = append(out, pkg)
	}
	return out, nil
}

// moduleLocal reports whether a listed package is part of the module under
// analysis (as opposed to the standard library).
func moduleLocal(lp *listedPkg) bool {
	return !lp.Standard && lp.Module != nil
}

func goList(ctx context.Context, dir string, patterns []string) ([]*listedPkg, error) {
	args := append([]string{
		"list", "-deps", "-export",
		"-json=ImportPath,Dir,Export,GoFiles,Standard,DepOnly,Imports,Module,Error",
	}, patterns...)
	cmd := exec.CommandContext(ctx, "go", args...)
	cmd.Dir = dir
	var stdout, stderr bytes.Buffer
	cmd.Stdout = &stdout
	cmd.Stderr = &stderr
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("go list %v: %v\n%s", patterns, err, stderr.Bytes())
	}
	var out []*listedPkg
	dec := json.NewDecoder(&stdout)
	for {
		lp := new(listedPkg)
		if err := dec.Decode(lp); err == io.EOF {
			break
		} else if err != nil {
			return nil, fmt.Errorf("go list: decoding output: %v", err)
		}
		if lp.Error != nil {
			return nil, fmt.Errorf("go list: package %s: %s", lp.ImportPath, lp.Error.Err)
		}
		out = append(out, lp)
	}
	return out, nil
}

// loader type-checks module packages from source, memoized, resolving
// module imports to already-checked packages and everything else through
// the export-data importer.
type loader struct {
	ctx     context.Context
	fset    *token.FileSet
	listed  map[string]*listedPkg
	checked map[string]*Package
	exports map[string]string
	imp     types.Importer
}

// Import implements types.Importer: module packages resolve to their
// source-checked types (dependency order guarantees they exist by the time
// an importer asks), the rest to export data.
func (ld *loader) Import(path string) (*types.Package, error) {
	if lp, ok := ld.listed[path]; ok && moduleLocal(lp) {
		pkg, err := ld.check(path)
		if err != nil {
			return nil, err
		}
		return pkg.Types, nil
	}
	return ld.imp.Import(path)
}

func (ld *loader) check(path string) (*Package, error) {
	if pkg, ok := ld.checked[path]; ok {
		return pkg, nil
	}
	lp := ld.listed[path]
	if lp == nil {
		return nil, fmt.Errorf("package %q not in go list output", path)
	}
	// Check module dependencies first so Import never recurses mid-check.
	for _, imp := range lp.Imports {
		if dep, ok := ld.listed[imp]; ok && moduleLocal(dep) {
			if _, err := ld.check(imp); err != nil {
				return nil, err
			}
		}
	}
	files := make([]*ast.File, 0, len(lp.GoFiles))
	for _, name := range lp.GoFiles {
		f, err := parser.ParseFile(ld.fset, filepath.Join(lp.Dir, name), nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	info := &types.Info{
		Types:  make(map[ast.Expr]types.TypeAndValue),
		Defs:   make(map[*ast.Ident]types.Object),
		Uses:   make(map[*ast.Ident]types.Object),
		Scopes: make(map[ast.Node]*types.Scope),
	}
	conf := types.Config{
		Importer: ld,
		Sizes:    types.SizesFor("gc", runtime.GOARCH),
	}
	tpkg, err := conf.Check(path, ld.fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("type-checking %s: %v", path, err)
	}
	pkg := &Package{
		Path:       path,
		Dir:        lp.Dir,
		Fset:       ld.fset,
		Files:      files,
		Types:      tpkg,
		Info:       info,
		directives: indexDirectives(ld.fset, files),
	}
	ld.checked[path] = pkg
	return pkg, nil
}
