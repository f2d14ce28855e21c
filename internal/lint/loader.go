package lint

import (
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// Package is one parsed and type-checked package ready for analysis.
type Package struct {
	// Path is the import path ("rtlock/internal/sim").
	Path string
	// Fset maps the files' positions.
	Fset *token.FileSet
	// Dir is the directory the sources were read from.
	Dir string
	// Files are the parsed sources, with comments, in file-name order.
	Files []*ast.File
	// Types and Info are the go/types results.
	Types *types.Package
	Info  *types.Info
}

// Loader parses and type-checks packages of a single module using only
// the standard library: module-internal imports are resolved from source
// relative to the module root, and everything else (the standard
// library) goes through go/importer's source importer, so no compiled
// export data or external tooling is needed.
type Loader struct {
	Fset    *token.FileSet
	ModRoot string
	ModPath string

	std  types.ImporterFrom
	pkgs map[string]*Package
	busy map[string]bool
}

// NewLoader returns a loader rooted at the module directory. The module
// path is read from go.mod.
func NewLoader(modRoot string) (*Loader, error) {
	modPath, err := modulePath(filepath.Join(modRoot, "go.mod"))
	if err != nil {
		return nil, err
	}
	fset := token.NewFileSet()
	std, ok := importer.ForCompiler(fset, "source", nil).(types.ImporterFrom)
	if !ok {
		return nil, fmt.Errorf("lint: source importer does not implement ImporterFrom")
	}
	return &Loader{
		Fset:    fset,
		ModRoot: modRoot,
		ModPath: modPath,
		std:     std,
		pkgs:    make(map[string]*Package),
		busy:    make(map[string]bool),
	}, nil
}

// modulePath extracts the module path from a go.mod file.
func modulePath(gomod string) (string, error) {
	data, err := os.ReadFile(gomod)
	if err != nil {
		return "", fmt.Errorf("lint: reading %s: %w", gomod, err)
	}
	for _, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		if rest, ok := strings.CutPrefix(line, "module"); ok {
			p := strings.TrimSpace(rest)
			p = strings.Trim(p, `"`)
			if p != "" {
				return p, nil
			}
		}
	}
	return "", fmt.Errorf("lint: no module line in %s", gomod)
}

// Import implements types.Importer so module-internal imports recurse
// through the loader while everything else uses the source importer.
func (l *Loader) Import(path string) (*types.Package, error) {
	if path == "unsafe" {
		return types.Unsafe, nil
	}
	if path == l.ModPath || strings.HasPrefix(path, l.ModPath+"/") {
		pkg, err := l.Load(path)
		if err != nil {
			return nil, err
		}
		return pkg.Types, nil
	}
	return l.std.ImportFrom(path, l.ModRoot, 0)
}

// dirFor maps an in-module import path to its directory.
func (l *Loader) dirFor(path string) string {
	if path == l.ModPath {
		return l.ModRoot
	}
	rel := strings.TrimPrefix(path, l.ModPath+"/")
	return filepath.Join(l.ModRoot, filepath.FromSlash(rel))
}

// Load parses and type-checks the in-module package with the given
// import path, memoized.
func (l *Loader) Load(path string) (*Package, error) {
	if pkg, ok := l.pkgs[path]; ok {
		return pkg, nil
	}
	if l.busy[path] {
		return nil, fmt.Errorf("lint: import cycle through %s", path)
	}
	l.busy[path] = true
	defer delete(l.busy, path)

	dir := l.dirFor(path)
	pkg, err := l.loadDir(dir, path)
	if err != nil {
		return nil, err
	}
	l.pkgs[path] = pkg
	return pkg, nil
}

// LoadDir parses and type-checks an ad-hoc directory (used by the
// fixture test harness) under a display import path. The package may
// import the standard library only.
func (l *Loader) LoadDir(dir, displayPath string) (*Package, error) {
	return l.loadDir(dir, displayPath)
}

func (l *Loader) loadDir(dir, path string) (*Package, error) {
	names, err := goFilesIn(dir)
	if err != nil {
		return nil, err
	}
	if len(names) == 0 {
		return nil, fmt.Errorf("lint: no Go files in %s", dir)
	}
	var files []*ast.File
	var pkgName string
	for _, name := range names {
		full := filepath.Join(dir, name)
		f, err := parser.ParseFile(l.Fset, full, nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		// Keep only the package proper: external test packages
		// (package foo_test) are compiled separately and are not
		// simulation code.
		if pkgName == "" && !strings.HasSuffix(f.Name.Name, "_test") {
			pkgName = f.Name.Name
		}
		files = append(files, f)
	}
	if pkgName != "" {
		kept := files[:0]
		for _, f := range files {
			if f.Name.Name == pkgName {
				kept = append(kept, f)
			}
		}
		files = kept
	}
	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
		Implicits:  make(map[ast.Node]types.Object),
	}
	conf := types.Config{Importer: l}
	tpkg, err := conf.Check(path, l.Fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("lint: type-checking %s: %w", path, err)
	}
	return &Package{Path: path, Fset: l.Fset, Dir: dir, Files: files, Types: tpkg, Info: info}, nil
}

// goFilesIn lists the non-test Go files of a directory in sorted order.
func goFilesIn(dir string) ([]string, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var names []string
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasPrefix(name, ".") ||
			strings.HasPrefix(name, "_") || strings.HasSuffix(name, "_test.go") {
			continue
		}
		names = append(names, name)
	}
	sort.Strings(names)
	return names, nil
}

// Expand resolves command-line patterns ("./...", "./internal/sim",
// "rtlock/internal/core") to in-module import paths, sorted. A pattern
// that matches no directory holding Go files is an error, so a typo
// cannot pass as a clean run.
func (l *Loader) Expand(patterns []string) ([]string, error) {
	seen := make(map[string]bool)
	var out []string
	for _, pat := range patterns {
		var paths []string
		var err error
		switch {
		case pat == "./..." || pat == "...":
			paths, err = l.walkPackages(l.ModRoot)
		case strings.HasSuffix(pat, "/..."):
			paths, err = l.walkPackages(l.dirFor(l.pathForPattern(strings.TrimSuffix(pat, "/..."))))
		default:
			path := l.pathForPattern(pat)
			if names, _ := goFilesIn(l.dirFor(path)); len(names) > 0 {
				paths = []string{path}
			}
		}
		if err == nil && len(paths) == 0 {
			err = fmt.Errorf("lint: pattern %q matches no package", pat)
		}
		if err != nil {
			return nil, err
		}
		for _, p := range paths {
			if !seen[p] {
				seen[p] = true
				out = append(out, p)
			}
		}
	}
	sort.Strings(out)
	return out, nil
}

// pathForPattern converts one non-wildcard pattern to an import path.
func (l *Loader) pathForPattern(pat string) string {
	pat = strings.TrimSuffix(pat, "/")
	if pat == "." || pat == "" {
		return l.ModPath
	}
	if rest, ok := strings.CutPrefix(pat, "./"); ok {
		return l.ModPath + "/" + rest
	}
	if pat == l.ModPath || strings.HasPrefix(pat, l.ModPath+"/") {
		return pat
	}
	return l.ModPath + "/" + pat
}

// walkPackages finds every directory under root that holds Go files.
func (l *Loader) walkPackages(root string) ([]string, error) {
	var out []string
	err := filepath.WalkDir(root, func(p string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() {
			return nil
		}
		name := d.Name()
		if p != root && (strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") ||
			name == "testdata" || name == "vendor" || name == "results") {
			return filepath.SkipDir
		}
		files, err := goFilesIn(p)
		if err != nil {
			return err
		}
		if len(files) == 0 {
			return nil
		}
		rel, err := filepath.Rel(l.ModRoot, p)
		if err != nil {
			return err
		}
		if rel == "." {
			out = append(out, l.ModPath)
		} else {
			out = append(out, l.ModPath+"/"+filepath.ToSlash(rel))
		}
		return nil
	})
	return out, err
}
