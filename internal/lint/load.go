package lint

import (
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// Package is one loaded, type-checked package.
type Package struct {
	// Fset is the loader's shared file set.
	Fset *token.FileSet
	// Path is the import path.
	Path string
	// Dir is the directory the package was loaded from.
	Dir string
	// Files are the parsed non-test files.
	Files []*ast.File
	// Types is the type-checked package.
	Types *types.Package
	// Info carries the type-checker's facts.
	Info *types.Info
	// Nested is set when the package belongs to a module nested inside
	// the loaded one: a directory between it and the module root holds
	// its own go.mod.
	Nested bool
}

// Loader loads and type-checks packages of one module from source.
// Module-internal imports resolve against the module tree; standard
// library imports are type-checked from GOROOT source via the
// go/importer source importer, so the loader needs no compiled export
// data and no tooling beyond the stdlib.
type Loader struct {
	Fset *token.FileSet
	// ModuleRoot is the directory holding go.mod.
	ModuleRoot string
	// ModulePath is the module's import path ("omini").
	ModulePath string

	std   types.ImporterFrom
	cache map[string]*Package
	// loading guards against import cycles while type-checking.
	loading map[string]bool
}

// NewLoader locates the module containing dir and returns a loader
// for it.
func NewLoader(dir string) (*Loader, error) {
	root, modpath, err := findModule(dir)
	if err != nil {
		return nil, err
	}
	fset := token.NewFileSet()
	// The source importer type-checks the standard library from GOROOT
	// source. With cgo enabled it would try to preprocess cgo files in
	// net; the pure-Go fallbacks type-check identically for analysis
	// purposes, so force them.
	build.Default.CgoEnabled = false
	std, ok := importer.ForCompiler(fset, "source", nil).(types.ImporterFrom)
	if !ok {
		return nil, fmt.Errorf("lint: source importer unavailable")
	}
	return &Loader{
		Fset:       fset,
		ModuleRoot: root,
		ModulePath: modpath,
		std:        std,
		cache:      make(map[string]*Package),
		loading:    make(map[string]bool),
	}, nil
}

// findModule walks up from dir to the enclosing go.mod and returns the
// module root directory and module path.
func findModule(dir string) (root, modpath string, err error) {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return "", "", err
	}
	for d := abs; ; {
		data, err := os.ReadFile(filepath.Join(d, "go.mod"))
		if err == nil {
			for _, line := range strings.Split(string(data), "\n") {
				line = strings.TrimSpace(line)
				if rest, ok := strings.CutPrefix(line, "module "); ok {
					return d, strings.TrimSpace(rest), nil
				}
			}
			return "", "", fmt.Errorf("lint: %s/go.mod has no module line", d)
		}
		parent := filepath.Dir(d)
		if parent == d {
			return "", "", fmt.Errorf("lint: no go.mod found above %s", abs)
		}
		d = parent
	}
}

// Import resolves an import path for the type checker: module-internal
// paths load from the module tree, everything else from GOROOT source.
func (l *Loader) Import(path string) (*types.Package, error) {
	if path == l.ModulePath || strings.HasPrefix(path, l.ModulePath+"/") {
		rel := strings.TrimPrefix(strings.TrimPrefix(path, l.ModulePath), "/")
		pkg, err := l.LoadDir(filepath.Join(l.ModuleRoot, filepath.FromSlash(rel)), path)
		if err != nil {
			return nil, err
		}
		return pkg.Types, nil
	}
	return l.std.Import(path)
}

// ImportFrom implements types.ImporterFrom; the module has no vendor
// tree, so dir never changes resolution.
func (l *Loader) ImportFrom(path, _ string, _ types.ImportMode) (*types.Package, error) {
	return l.Import(path)
}

// LoadDir parses and type-checks the package in dir under the given
// import path. Test files (_test.go) are excluded: ominilint checks
// production invariants, and fixtures must be free to violate them in
// tests.
func (l *Loader) LoadDir(dir, importPath string) (*Package, error) {
	if pkg, ok := l.cache[importPath]; ok {
		return pkg, nil
	}
	if l.loading[importPath] {
		return nil, fmt.Errorf("lint: import cycle through %s", importPath)
	}
	l.loading[importPath] = true
	defer delete(l.loading, importPath)

	names, err := goFileNames(dir)
	if err != nil {
		return nil, err
	}
	if len(names) == 0 {
		return nil, fmt.Errorf("lint: no Go files in %s", dir)
	}
	files := make([]*ast.File, 0, len(names))
	for _, name := range names {
		f, err := parser.ParseFile(l.Fset, filepath.Join(dir, name), nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}

	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
	}
	conf := types.Config{Importer: l}
	tpkg, err := conf.Check(importPath, l.Fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("lint: typecheck %s: %w", importPath, err)
	}
	pkg := &Package{
		Fset:  l.Fset,
		Path:  importPath,
		Dir:   dir,
		Files: files,
		Types: tpkg,
		Info:  info,
	}
	l.cache[importPath] = pkg
	return pkg, nil
}

// goFileNames lists the non-test Go files of dir in sorted order.
func goFileNames(dir string) ([]string, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var names []string
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			continue
		}
		if strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") {
			continue
		}
		names = append(names, name)
	}
	sort.Strings(names)
	return names, nil
}

// LoadPatterns expands the package patterns (resolved relative to dir;
// a trailing "/..." walks recursively) and loads every matched
// package. testdata, hidden, and underscore-prefixed directories are
// skipped, matching the go tool's convention.
func (l *Loader) LoadPatterns(dir string, patterns []string) ([]*Package, error) {
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	seen := make(map[string]bool)
	var dirs []string
	for _, pat := range patterns {
		rec := false
		if rest, ok := strings.CutSuffix(pat, "/..."); ok {
			rec = true
			pat = rest
			if pat == "" {
				pat = "."
			}
		}
		base := pat
		if !filepath.IsAbs(base) {
			base = filepath.Join(dir, base)
		}
		abs, err := filepath.Abs(base)
		if err != nil {
			return nil, err
		}
		base = abs
		if !rec {
			if !seen[base] {
				seen[base] = true
				dirs = append(dirs, base)
			}
			continue
		}
		err = filepath.WalkDir(base, func(p string, d os.DirEntry, err error) error {
			if err != nil {
				return err
			}
			if !d.IsDir() {
				return nil
			}
			name := d.Name()
			if p != base && (name == "testdata" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
				return filepath.SkipDir
			}
			if !seen[p] {
				seen[p] = true
				dirs = append(dirs, p)
			}
			return nil
		})
		if err != nil {
			return nil, err
		}
	}

	var pkgs []*Package
	for _, d := range dirs {
		names, err := goFileNames(d)
		if err != nil || len(names) == 0 {
			continue // not a package directory
		}
		rel, err := filepath.Rel(l.ModuleRoot, d)
		if err != nil || strings.HasPrefix(rel, "..") {
			return nil, fmt.Errorf("lint: %s is outside module %s", d, l.ModuleRoot)
		}
		importPath := l.ModulePath
		if rel != "." {
			importPath = l.ModulePath + "/" + filepath.ToSlash(rel)
		}
		pkg, err := l.LoadDir(d, importPath)
		if err != nil {
			return nil, err
		}
		pkg.Nested = l.nested(d)
		pkgs = append(pkgs, pkg)
	}
	return pkgs, nil
}

// nested reports whether dir, inside the module root, lies in a nested
// module: dir or a parent below the root holds a go.mod.
func (l *Loader) nested(dir string) bool {
	for d := dir; len(d) > len(l.ModuleRoot); d = filepath.Dir(d) {
		if _, err := os.Stat(filepath.Join(d, "go.mod")); err == nil {
			return true
		}
	}
	return false
}
