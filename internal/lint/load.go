package lint

import (
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/scanner"
	"go/token"
	"go/types"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// Package is one parsed, type-checked, non-test package of the module.
type Package struct {
	// Name is the package clause name ("webgen").
	Name string
	// Path is the import path ("repro/internal/webgen").
	Path string
	// Dir is the absolute directory.
	Dir string
	// Fset positions every file; filenames are module-relative.
	Fset *token.FileSet
	// Files holds the parsed non-test sources, sorted by filename.
	Files []*ast.File
	// Filenames are the module-relative paths, parallel to Files.
	Filenames []string

	// Types is the go/types view of the package; nil when it has Errs.
	Types *types.Package
	// TypesInfo records Uses, Defs, Types, and Selections for every
	// file in Files; nil when the package has Errs.
	TypesInfo *types.Info
	// Errs holds parse and type-check failures as diagnostics
	// (analyzer "load"). Run reports them and lints nothing else in
	// the package.
	Errs []Diagnostic
}

// Typed reports whether the package parsed and type-checked cleanly,
// which every analyzer relies on.
func (p *Package) Typed() bool {
	return p.TypesInfo != nil && p.Types != nil
}

// ModuleRoot walks up from start until it finds a go.mod.
func ModuleRoot(start string) (string, error) {
	dir, err := filepath.Abs(start)
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("lint: no go.mod found at or above %s", start)
		}
		dir = parent
	}
}

// moduleName extracts the module path from root's go.mod.
func moduleName(root string) (string, error) {
	data, err := os.ReadFile(filepath.Join(root, "go.mod"))
	if err != nil {
		return "", err
	}
	for _, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		if rest, ok := strings.CutPrefix(line, "module "); ok {
			return strings.TrimSpace(rest), nil
		}
	}
	return "", fmt.Errorf("lint: no module directive in %s/go.mod", root)
}

// skipDir reports whether a directory is outside the lint surface:
// VCS metadata, vendored code, and testdata fixtures.
func skipDir(name string) bool {
	return name == "testdata" || name == "vendor" ||
		(strings.HasPrefix(name, ".") && name != ".")
}

// lintableFile reports whether a file is a non-test Go source.
func lintableFile(name string) bool {
	return strings.HasSuffix(name, ".go") &&
		!strings.HasSuffix(name, "_test.go") &&
		!strings.HasPrefix(name, ".") &&
		!strings.HasPrefix(name, "_")
}

// parseDiags converts a parser error (usually a scanner.ErrorList) into
// positioned "load" diagnostics so one broken file degrades into
// findings instead of aborting the whole run.
func parseDiags(file string, err error) []Diagnostic {
	var out []Diagnostic
	if list, ok := err.(scanner.ErrorList); ok {
		for i, e := range list {
			if i == 3 { // a corrupt file can produce hundreds; keep the head
				out = append(out, Diagnostic{
					File: file, Line: e.Pos.Line, Col: e.Pos.Column,
					Analyzer: "load",
					Message:  fmt.Sprintf("parse: %d further errors in this file omitted", len(list)-i),
				})
				break
			}
			out = append(out, Diagnostic{
				File: file, Line: e.Pos.Line, Col: e.Pos.Column,
				Analyzer: "load",
				Message:  "parse: " + e.Msg,
			})
		}
		return out
	}
	return []Diagnostic{{File: file, Line: 1, Col: 1, Analyzer: "load", Message: "parse: " + err.Error()}}
}

// LoadModule parses and type-checks every non-test Go file under root
// into packages, one per directory, with import paths derived from the
// module name in go.mod. testdata, vendor, and dot directories are
// skipped. Files are positioned by module-relative path so diagnostics
// print cleanly. Module-internal imports are type-checked from source
// (dependency order falls out of the recursion); stdlib imports resolve
// through the host toolchain's compiled export data.
//
// Parse and type errors do not abort the load: they are recorded on the
// package's Errs as "load" diagnostics, the package stays untyped, and
// every other package is still checked and linted.
func LoadModule(root string) ([]*Package, error) {
	root, err := filepath.Abs(root)
	if err != nil {
		return nil, err
	}
	mod, err := moduleName(root)
	if err != nil {
		return nil, err
	}
	perDir := map[string][]string{}
	err = filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != root && skipDir(d.Name()) {
				return filepath.SkipDir
			}
			return nil
		}
		if lintableFile(d.Name()) {
			dir := filepath.Dir(path)
			perDir[dir] = append(perDir[dir], path)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}

	dirs := make([]string, 0, len(perDir))
	for dir := range perDir {
		dirs = append(dirs, dir)
	}
	sort.Strings(dirs)

	fset := token.NewFileSet()
	var pkgs []*Package
	for _, dir := range dirs {
		files := perDir[dir]
		sort.Strings(files)
		rel, err := filepath.Rel(root, dir)
		if err != nil {
			return nil, err
		}
		pkg := &Package{
			Dir:  dir,
			Path: mod,
			Fset: fset,
		}
		if rel != "." {
			pkg.Path = mod + "/" + filepath.ToSlash(rel)
		}
		for _, path := range files {
			src, err := os.ReadFile(path)
			if err != nil {
				return nil, err
			}
			relFile, err := filepath.Rel(root, path)
			if err != nil {
				return nil, err
			}
			name := filepath.ToSlash(relFile)
			f, err := parser.ParseFile(fset, name, src, parser.ParseComments)
			if err != nil {
				pkg.Errs = append(pkg.Errs, parseDiags(name, err)...)
				continue
			}
			pkg.Files = append(pkg.Files, f)
			pkg.Filenames = append(pkg.Filenames, name)
		}
		if len(pkg.Files) > 0 {
			pkg.Name = pkg.Files[0].Name.Name
		}
		if len(pkg.Files) > 0 || len(pkg.Errs) > 0 {
			pkgs = append(pkgs, pkg)
		}
	}
	typeCheck(fset, pkgs)
	return pkgs, nil
}

// maxTypeErrs caps the type-check diagnostics recorded per package; a
// single missing symbol tends to cascade.
const maxTypeErrs = 5

// typeChecker resolves imports: module-internal paths are type-checked
// from source on demand (dependency order falls out of the recursion),
// and everything else goes to the compiled-export-data importer for the
// host toolchain's stdlib.
type typeChecker struct {
	byPath map[string]*Package // module packages, checked on demand
	std    types.ImporterFrom
	busy   map[string]bool // import-cycle guard
	done   map[string]bool
}

// typeCheck type-checks pkgs (which share fset) against each other and
// the host toolchain's compiled stdlib. Packages that are already typed
// are served as they are.
func typeCheck(fset *token.FileSet, pkgs []*Package) {
	tc := &typeChecker{
		byPath: map[string]*Package{},
		std:    importer.ForCompiler(fset, "gc", nil).(types.ImporterFrom),
		busy:   map[string]bool{},
		done:   map[string]bool{},
	}
	for _, p := range pkgs {
		tc.byPath[p.Path] = p
	}
	for _, p := range pkgs {
		tc.ensure(p)
	}
}

func (tc *typeChecker) Import(path string) (*types.Package, error) {
	return tc.ImportFrom(path, "", 0)
}

func (tc *typeChecker) ImportFrom(path, dir string, mode types.ImportMode) (*types.Package, error) {
	if p, ok := tc.byPath[path]; ok {
		if tc.busy[path] {
			return nil, fmt.Errorf("import cycle through %s", path)
		}
		tc.ensure(p)
		if p.Types == nil {
			return nil, fmt.Errorf("package %s has parse or type errors", path)
		}
		return p.Types, nil
	}
	return tc.std.ImportFrom(path, dir, mode)
}

// ensure type-checks p exactly once, recursing through module imports.
func (tc *typeChecker) ensure(p *Package) {
	if tc.done[p.Path] || p.Typed() {
		return
	}
	tc.busy[p.Path] = true
	defer func() {
		delete(tc.busy, p.Path)
		tc.done[p.Path] = true
	}()
	if len(p.Errs) > 0 || len(p.Files) == 0 {
		return // parse-broken: nothing to check
	}
	tc.check(p)
}

// check runs go/types over one package, recording failures as "load"
// diagnostics. On any error the package is left untyped so Run skips
// it rather than lint from partial information.
func (tc *typeChecker) check(p *Package) {
	info := &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
	}
	var terrs []Diagnostic
	conf := types.Config{
		Importer: tc,
		Error: func(err error) {
			te, ok := err.(types.Error)
			if !ok {
				terrs = append(terrs, Diagnostic{
					File: p.Path, Line: 1, Col: 1,
					Analyzer: "load", Message: "typecheck: " + err.Error(),
				})
				return
			}
			if len(terrs) >= maxTypeErrs {
				return
			}
			pos := te.Fset.Position(te.Pos)
			terrs = append(terrs, Diagnostic{
				File: pos.Filename, Line: pos.Line, Col: pos.Column,
				Analyzer: "load", Message: "typecheck: " + te.Msg,
			})
		},
	}
	tpkg, _ := conf.Check(p.Path, p.Fset, p.Files, info)
	if len(terrs) > 0 {
		p.Errs = append(p.Errs, terrs...)
		return
	}
	p.Types = tpkg
	p.TypesInfo = info
}
