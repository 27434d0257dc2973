package lint

// Package loading, the way go vet does it, on the standard library alone.
// `go list -deps -export` compiles the matched packages and their
// dependencies, yielding an export-data file per package. The matched
// packages are type-checked from source (the rules need syntax and full
// types.Info); every import, standard library or module, resolves through
// the compiler importer over those export files. Neither rule needs
// cross-package *types.Package identity: both compare import paths and look
// names up in the package's own scope. Test files are not loaded: the
// invariants are production-code invariants.

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

// Package is one matched package: its import path, the non-test syntax,
// the type-checked package and its tables, and the //tessel: directives
// indexed by file and line. Fset is shared by every package of a load.
type Package struct {
	Path       string
	Fset       *token.FileSet
	Files      []*ast.File
	Types      *types.Package
	Info       *types.Info
	directives directiveIndex
}

// listedPkg is the subset of `go list -json` output the loader consumes.
type listedPkg struct {
	ImportPath, Dir, Export string
	GoFiles                 []string
	DepOnly                 bool
}

// Load runs `go list` on the patterns (relative to dir) and type-checks
// every matched package from source, in `go list` order.
func Load(ctx context.Context, dir string, patterns ...string) ([]*Package, error) {
	cmd := exec.CommandContext(ctx, "go", append([]string{"list", "-deps", "-export", "-json=ImportPath,Dir,Export,GoFiles,DepOnly"}, patterns...)...)
	cmd.Dir = dir
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("go list %v: %v\n%s", patterns, err, stderr.Bytes())
	}
	var listed []*listedPkg
	exports := map[string]string{}
	for dec := json.NewDecoder(&stdout); ; {
		lp := new(listedPkg)
		if err := dec.Decode(lp); err == io.EOF {
			break
		} else if err != nil {
			return nil, fmt.Errorf("go list: decoding output: %v", err)
		}
		listed = append(listed, lp)
		exports[lp.ImportPath] = lp.Export
	}
	fset := token.NewFileSet()
	imp := importer.ForCompiler(fset, "gc", func(path string) (io.ReadCloser, error) {
		if exports[path] == "" {
			return nil, fmt.Errorf("no export data for %q", path)
		}
		return os.Open(exports[path])
	})
	var out []*Package
	for _, lp := range listed {
		if lp.DepOnly {
			continue
		}
		pkg, err := check(fset, imp, lp)
		if err != nil {
			return nil, err
		}
		out = append(out, pkg)
	}
	return out, nil
}

// check parses and type-checks one listed package from source.
func check(fset *token.FileSet, imp types.Importer, lp *listedPkg) (*Package, error) {
	files := make([]*ast.File, 0, len(lp.GoFiles))
	for _, name := range lp.GoFiles {
		f, err := parser.ParseFile(fset, filepath.Join(lp.Dir, name), nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	info := &types.Info{
		Types: make(map[ast.Expr]types.TypeAndValue),
		Uses:  make(map[*ast.Ident]types.Object),
	}
	conf := types.Config{Importer: imp, Sizes: types.SizesFor("gc", runtime.GOARCH)}
	tpkg, err := conf.Check(lp.ImportPath, fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("type-checking %s: %v", lp.ImportPath, err)
	}
	return &Package{Path: lp.ImportPath, Fset: fset, Files: files, Types: tpkg, Info: info, directives: indexDirectives(fset, files)}, nil
}
