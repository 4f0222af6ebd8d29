// Package load parses and type-checks packages for the hpclint analyzer
// suite using only the standard library.
//
// The usual foundation for go/analysis drivers is golang.org/x/tools, which
// this repository deliberately does not depend on (the build must work from
// a bare toolchain with no module downloads). The loader therefore does the
// minimal job itself: package patterns are expanded by walking the module
// tree, files are selected with go/build (which applies build constraints),
// and dependencies are type-checked from source — module-internal packages
// from the module tree, standard-library packages from GOROOT/src with
// function bodies skipped.
package load

import (
	"fmt"
	"go/ast"
	"go/build"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path"
	"path/filepath"
	"sort"
	"strings"
)

// Package is one fully type-checked package, ready for analysis.
type Package struct {
	// PkgPath is the import path ("hpcmetrics/internal/memsim").
	PkgPath string
	// Dir is the directory the sources came from.
	Dir string
	// Fset maps positions for every file of the loader that produced this
	// package (shared across packages).
	Fset *token.FileSet
	// Syntax holds the parsed files in stable (sorted filename) order,
	// with comments attached.
	Syntax []*ast.File
	// Types is the type-checked package object.
	Types *types.Package
	// Info records types and objects for every expression in Syntax.
	Info *types.Info
}

// Loader loads packages and caches their dependencies' type information.
// The zero value is not usable; call New.
type Loader struct {
	// Fset is shared by every package the loader touches.
	Fset *token.FileSet
	// SrcRoots are extra source roots consulted before the module and
	// GOROOT when resolving an import path (analysistest fixture trees,
	// laid out GOPATH-style: root/<import/path>/*.go).
	SrcRoots []string

	ctxt       build.Context
	moduleRoot string
	modulePath string
	cache      map[string]*types.Package
	loading    map[string]bool
}

// New returns a ready Loader.
func New() *Loader {
	ctxt := build.Default
	// Pure-Go file selection: with cgo off, go/build picks the fallback
	// variants of cgo-using packages, which are the ones that type-check
	// from source alone.
	ctxt.CgoEnabled = false
	return &Loader{
		Fset:    token.NewFileSet(),
		ctxt:    ctxt,
		cache:   map[string]*types.Package{},
		loading: map[string]bool{},
	}
}

// Expand turns package patterns ("./...", "internal/report") into the
// sorted list of package directories beneath them. Directories named
// testdata or vendor, hidden directories, and directories without
// non-test Go files are skipped.
func Expand(patterns []string) ([]string, error) {
	seen := map[string]bool{}
	var dirs []string
	add := func(dir string) {
		if !seen[dir] {
			seen[dir] = true
			dirs = append(dirs, dir)
		}
	}
	for _, pat := range patterns {
		recursive := false
		switch {
		case pat == "...":
			recursive, pat = true, "."
		case strings.HasSuffix(pat, "/..."):
			recursive, pat = true, strings.TrimSuffix(pat, "/...")
		}
		abs, err := filepath.Abs(pat)
		if err != nil {
			return nil, fmt.Errorf("load: pattern %q: %w", pat, err)
		}
		if !recursive {
			add(abs)
			continue
		}
		err = filepath.WalkDir(abs, func(p string, d os.DirEntry, err error) error {
			if err != nil {
				return err
			}
			if !d.IsDir() {
				return nil
			}
			name := d.Name()
			if p != abs && (name == "testdata" || name == "vendor" ||
				strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
				return filepath.SkipDir
			}
			if hasGoFiles(p) {
				add(p)
			}
			return nil
		})
		if err != nil {
			return nil, fmt.Errorf("load: pattern %q: %w", pat, err)
		}
	}
	sort.Strings(dirs)
	return dirs, nil
}

// SortDeps orders package directories so that every module-internal
// dependency precedes its dependents (a topological order over the
// import edges between the given directories; ties keep the input's
// relative order). Drivers that propagate per-package facts downstream
// (cmd/hpclint) load in this order, so a package's dependencies are
// always analyzed — and their facts exported — first. Go forbids import
// cycles, so the sort always completes.
func (l *Loader) SortDeps(dirs []string) ([]string, error) {
	if len(dirs) == 0 {
		return dirs, nil
	}
	l.findModule(dirs[0])
	byPath := make(map[string]int, len(dirs)) // import path -> input index
	paths := make([]string, len(dirs))
	for i, dir := range dirs {
		paths[i] = l.importPathFor(dir)
		byPath[paths[i]] = i
	}
	imports := make([][]string, len(dirs))
	for i, dir := range dirs {
		bp, err := l.ctxt.ImportDir(dir, 0)
		if err != nil {
			return nil, fmt.Errorf("load: %s: %w", dir, err)
		}
		imports[i] = bp.Imports
	}
	var (
		out     = make([]string, 0, len(dirs))
		done    = make([]bool, len(dirs))
		visit   func(i int)
		pending = make([]bool, len(dirs))
	)
	visit = func(i int) {
		if done[i] || pending[i] {
			return // pending guards against a (compiler-rejected) cycle
		}
		pending[i] = true
		for _, imp := range imports[i] {
			if j, ok := byPath[imp]; ok {
				visit(j)
			}
		}
		pending[i] = false
		done[i] = true
		out = append(out, dirs[i])
	}
	for i := range dirs {
		visit(i)
	}
	return out, nil
}

// ImportPath derives dir's import path from the enclosing module — the
// path Load would assign — for naming packages in driver errors even
// when loading them failed.
func (l *Loader) ImportPath(dir string) string {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return filepath.Base(dir)
	}
	l.findModule(abs)
	return l.importPathFor(abs)
}

// importPathFor derives dir's import path from the enclosing module, the
// same way Load does.
func (l *Loader) importPathFor(dir string) string {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return filepath.Base(dir)
	}
	pkgPath := filepath.Base(abs)
	if l.modulePath != "" {
		if rel, err := filepath.Rel(l.moduleRoot, abs); err == nil && !strings.HasPrefix(rel, "..") {
			pkgPath = path.Join(l.modulePath, filepath.ToSlash(rel))
		}
	}
	return pkgPath
}

func hasGoFiles(dir string) bool {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return false
	}
	for _, e := range ents {
		name := e.Name()
		if !e.IsDir() && strings.HasSuffix(name, ".go") && !strings.HasSuffix(name, "_test.go") {
			return true
		}
	}
	return false
}

// Load type-checks the package in dir with full function bodies and
// expression-level type information. The import path is derived from the
// enclosing module.
func (l *Loader) Load(dir string) (*Package, error) {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return nil, fmt.Errorf("load: %w", err)
	}
	l.findModule(abs)
	return l.LoadAs(abs, l.importPathFor(abs))
}

// LoadAs is Load with an explicit import path (used by analysistest,
// whose fixture packages live outside any module).
func (l *Loader) LoadAs(dir, pkgPath string) (*Package, error) {
	files, err := l.parseDir(dir)
	if err != nil {
		return nil, err
	}
	info := &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Instances:  map[*ast.Ident]types.Instance{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Implicits:  map[ast.Node]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
		Scopes:     map[ast.Node]*types.Scope{},
	}
	conf := types.Config{
		Importer:    &importerFor{l},
		FakeImportC: true,
	}
	tpkg, err := conf.Check(pkgPath, l.Fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("load: type-checking %s: %w", pkgPath, err)
	}
	// A fully loaded package replaces any bodies-skipped version a
	// dependent may have pulled in earlier: later importers then share the
	// richer objects, and (with SortDeps ordering) each module-internal
	// package is parsed exactly once.
	l.cache[pkgPath] = tpkg
	return &Package{
		PkgPath: pkgPath,
		Dir:     dir,
		Fset:    l.Fset,
		Syntax:  files,
		Types:   tpkg,
		Info:    info,
	}, nil
}

// parseDir parses the build-constraint-selected, non-test Go files of dir
// in sorted order, keeping comments.
func (l *Loader) parseDir(dir string) ([]*ast.File, error) {
	bp, err := l.ctxt.ImportDir(dir, 0)
	if err != nil {
		return nil, fmt.Errorf("load: %s: %w", dir, err)
	}
	names := append([]string(nil), bp.GoFiles...)
	sort.Strings(names)
	files := make([]*ast.File, 0, len(names))
	for _, name := range names {
		f, err := parser.ParseFile(l.Fset, filepath.Join(dir, name), nil, parser.ParseComments)
		if err != nil {
			return nil, fmt.Errorf("load: %w", err)
		}
		files = append(files, f)
	}
	return files, nil
}

// findModule locates the enclosing go.mod, once. The walk toward the
// filesystem root is a bounded three-clause loop: filepath.Dir is a fixed
// point at the root, which the condition detects.
func (l *Loader) findModule(dir string) {
	if l.moduleRoot != "" {
		return
	}
	for d, last := dir, ""; d != last; d, last = filepath.Dir(d), d {
		data, err := os.ReadFile(filepath.Join(d, "go.mod"))
		if err != nil {
			continue
		}
		l.moduleRoot = d
		for _, line := range strings.Split(string(data), "\n") {
			if rest, ok := strings.CutPrefix(strings.TrimSpace(line), "module "); ok {
				l.modulePath = strings.TrimSpace(rest)
				break
			}
		}
		return
	}
}

// importerFor adapts the loader to the go/types Importer interface.
type importerFor struct{ l *Loader }

func (im *importerFor) Import(pth string) (*types.Package, error) {
	return im.l.importPath(pth)
}

// importPath type-checks a dependency (function bodies skipped) and caches
// it. Resolution order: SrcRoots, the enclosing module, GOROOT/src, and
// GOROOT/src/vendor.
func (l *Loader) importPath(pth string) (*types.Package, error) {
	if pth == "unsafe" {
		return types.Unsafe, nil
	}
	if pkg, ok := l.cache[pth]; ok {
		return pkg, nil
	}
	if l.loading[pth] {
		return nil, fmt.Errorf("load: import cycle through %q", pth)
	}
	dir, stdlib, err := l.resolve(pth)
	if err != nil {
		return nil, err
	}
	l.loading[pth] = true
	defer delete(l.loading, pth)

	files, err := l.parseDir(dir)
	if err != nil {
		return nil, err
	}
	var firstErr error
	conf := types.Config{
		Importer:         &importerFor{l},
		FakeImportC:      true,
		IgnoreFuncBodies: true,
		Error: func(err error) {
			// Standard-library packages are checked without their cgo or
			// assembly halves; their internal errors do not matter as long
			// as the exported surface our code uses resolves.
			if !stdlib && firstErr == nil {
				firstErr = err
			}
		},
	}
	pkg, err := conf.Check(pth, l.Fset, files, nil)
	if firstErr != nil {
		return nil, fmt.Errorf("load: dependency %s: %w", pth, firstErr)
	}
	if pkg == nil {
		return nil, fmt.Errorf("load: dependency %s: %w", pth, err)
	}
	l.cache[pth] = pkg
	return pkg, nil
}

// resolve maps an import path to its source directory.
func (l *Loader) resolve(pth string) (dir string, stdlib bool, err error) {
	rel := filepath.FromSlash(pth)
	for _, root := range l.SrcRoots {
		if d := filepath.Join(root, rel); isDir(d) {
			return d, false, nil
		}
	}
	if l.modulePath != "" && (pth == l.modulePath || strings.HasPrefix(pth, l.modulePath+"/")) {
		d := filepath.Join(l.moduleRoot, filepath.FromSlash(strings.TrimPrefix(pth, l.modulePath)))
		if isDir(d) {
			return d, false, nil
		}
	}
	goroot := l.ctxt.GOROOT
	if d := filepath.Join(goroot, "src", rel); isDir(d) {
		return d, true, nil
	}
	if d := filepath.Join(goroot, "src", "vendor", rel); isDir(d) {
		return d, true, nil
	}
	return "", false, fmt.Errorf("load: cannot resolve import %q", pth)
}

func isDir(p string) bool {
	fi, err := os.Stat(p)
	return err == nil && fi.IsDir()
}
