package analysis

import (
	"fmt"
	"time"

	"hpcmetrics/internal/analysis/cflite"
	"hpcmetrics/internal/analysis/framework"
	"hpcmetrics/internal/analysis/load"
)

// PackageError records one package that failed to load or type-check.
type PackageError struct {
	// Dir is the package's source directory.
	Dir string
	// Pkg is the package's import path (best-effort when loading failed
	// before the path was established).
	Pkg string
	// Err is the load or type-check failure.
	Err error
}

func (e PackageError) Error() string { return fmt.Sprintf("%s: %v", e.Pkg, e.Err) }

// Result is one module-wide analysis run.
type Result struct {
	// Diagnostics are the surviving findings of every analyzed package,
	// in package load (dependency) order, position-sorted within each.
	Diagnostics []framework.Diagnostic
	// Facts is the cross-package fact store the run accumulated
	// (cmd/hpclint -facts dumps it).
	Facts *framework.ModuleFacts
	// Directives lists every //hpclint:ignore comment seen, for diffing
	// against the committed suppression allowlist.
	Directives []framework.Directive
	// Packages counts the packages analyzed.
	Packages int
	// LoadErrors lists the packages that failed to load or type-check;
	// analysis covered the remainder. Drivers must treat a non-empty list
	// as failure (cmd/hpclint names each package and exits non-zero): a
	// silently skipped package is a hole in the module-wide guarantees,
	// and — with interface devirtualization — a hole in the closed world
	// the resolutions rest on.
	LoadErrors []PackageError
	// IfaceSeconds is the wall time of the interface-implementor
	// collection pre-pass, reported separately so the cost of
	// devirtualization is visible in BenchmarkHpclintModule.
	IfaceSeconds float64
}

// Run applies the analyzers to every package matching patterns, in
// dependency order with a shared cross-package fact store: a package's
// dependencies are analyzed — and their facts exported — before the
// package itself, so Background severs and dropped contexts are visible
// across package boundaries. It is the engine behind cmd/hpclint and
// the module-analysis benchmark.
//
// The run is two-phase. Every matched package is loaded first and the
// whole set is scanned for concrete-to-interface conversions
// (cflite.CollectIfaceFacts), so a package early in the dependency
// order still sees implementations registered by later ones; only then
// are the analyzers applied. Packages that fail to load are recorded in
// Result.LoadErrors and excluded from both phases — and from the closed
// world, keeping devirtualization honest about what it has seen.
func Run(patterns []string, analyzers []*framework.Analyzer) (*Result, error) {
	dirs, err := load.Expand(patterns)
	if err != nil {
		return nil, err
	}
	if len(dirs) == 0 {
		return nil, fmt.Errorf("analysis: no packages match %v", patterns)
	}
	loader := load.New()
	dirs, err = loader.SortDeps(dirs)
	if err != nil {
		return nil, err
	}
	res := &Result{Facts: framework.NewModuleFacts()}

	// Phase 1: load everything, accumulating failures instead of
	// stopping at the first (the caller decides that the run failed; the
	// loadable remainder is still analyzed so one broken package does not
	// mask findings elsewhere).
	var (
		pkgs  []*load.Package
		paths []string
	)
	for _, dir := range dirs {
		pkg, err := loader.Load(dir)
		if err != nil {
			res.LoadErrors = append(res.LoadErrors,
				PackageError{Dir: dir, Pkg: loader.ImportPath(dir), Err: err})
			continue
		}
		pkgs = append(pkgs, pkg)
		paths = append(paths, pkg.PkgPath)
	}

	// Phase 2: the loaded set is the closed world; collect every
	// concrete-to-interface flow in it before any package is analyzed.
	res.Facts.SetClosed(paths)
	ifaceStart := time.Now()
	for _, pkg := range pkgs {
		cflite.CollectIfaceFacts(res.Facts, pkg.PkgPath, pkg.Info, pkg.Syntax)
	}
	res.IfaceSeconds = time.Since(ifaceStart).Seconds()

	// Phase 3: analyze in dependency order.
	for _, pkg := range pkgs {
		diags, err := framework.RunWithModule(pkg, analyzers, res.Facts)
		if err != nil {
			return nil, err
		}
		res.Diagnostics = append(res.Diagnostics, diags...)
		res.Directives = append(res.Directives, framework.Directives(pkg)...)
		res.Packages++
	}
	return res, nil
}
