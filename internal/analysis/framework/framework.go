// Package framework is the hpclint analyzer harness: a deliberately small
// subset of the golang.org/x/tools/go/analysis API (Analyzer, Pass,
// Reportf) built on the stdlib-only loader in internal/analysis/load.
//
// Suppression: a diagnostic can be silenced with a directive comment
//
//	//hpclint:ignore floatcmp,unitmix reason for the exception
//
// which applies to diagnostics on its own line and on the line below it
// (so it works both as a trailing comment and as a standalone line above
// the flagged statement). The reason text is free-form but encouraged.
package framework

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"

	"hpcmetrics/internal/analysis/load"
)

// Analyzer is one static check.
type Analyzer struct {
	// Name identifies the analyzer in output and ignore directives.
	Name string
	// Doc is a one-paragraph description, shown by hpclint -list.
	Doc string
	// Run performs the check on one package, reporting through the pass.
	Run func(*Pass) error
}

// Pass carries one package through one analyzer.
type Pass struct {
	Analyzer *Analyzer
	Fset     *token.FileSet
	Syntax   []*ast.File
	Pkg      *types.Package
	Info     *types.Info
	// Module is the cross-package fact store shared by every package of
	// one driver run. Analyzers export per-function facts into it after
	// analyzing a package and look up facts exported by the package's
	// (already analyzed) dependencies. Nil in ad-hoc passes; the
	// accessors below are nil-safe.
	Module *ModuleFacts

	facts *FactStore
	diags *[]Diagnostic
}

// ModuleFacts holds the facts every analyzed package exported, keyed by
// package path and then by function object path (types.Func.FullName():
// "pkg/path.Func" or "(*pkg/path.Recv).Method"). Object paths — not
// object identities — make the store robust to a dependency being
// type-checked twice (once from source for its own analysis, once with
// bodies skipped as an import). Values are analyzer-defined but must be
// JSON-marshalable: cmd/hpclint -facts dumps the whole store.
type ModuleFacts struct {
	pkgs   map[string]map[string]any
	closed map[string]bool
}

// NewModuleFacts returns an empty cross-package fact store.
func NewModuleFacts() *ModuleFacts {
	return &ModuleFacts{pkgs: map[string]map[string]any{}, closed: map[string]bool{}}
}

// SetClosed records the package paths that make up this driver run's
// analysis set — the closed world. Resolutions that rest on having seen
// every value of a type (interface devirtualization) are only sound for
// types declared inside the closed world: a package outside it could
// construct values the run never observed.
func (m *ModuleFacts) SetClosed(pkgPaths []string) {
	if m == nil {
		return
	}
	for _, p := range pkgPaths {
		m.closed[p] = true
	}
}

// IsClosed reports whether pkgPath is part of this run's analysis set.
func (m *ModuleFacts) IsClosed(pkgPath string) bool {
	return m != nil && m.closed[pkgPath]
}

// Export records a fact for the function object path objPath of package
// pkgPath, overwriting any previous value.
func (m *ModuleFacts) Export(pkgPath, objPath string, fact any) {
	if m == nil {
		return
	}
	set := m.pkgs[pkgPath]
	if set == nil {
		set = map[string]any{}
		m.pkgs[pkgPath] = set
	}
	set[objPath] = fact
}

// Lookup returns the fact exported for obj's declaring package and object
// path, if any. It is the cross-package half of fact propagation: obj is
// typically a *types.Func imported from a dependency that an earlier
// driver iteration analyzed from source.
func (m *ModuleFacts) Lookup(obj types.Object) (any, bool) {
	if m == nil || obj == nil || obj.Pkg() == nil {
		return nil, false
	}
	fn, ok := obj.(*types.Func)
	if !ok {
		return nil, false
	}
	v, ok := m.pkgs[obj.Pkg().Path()][fn.FullName()]
	return v, ok
}

// All returns every fact exported under objPath by any analyzed package,
// in sorted exporting-package order. It is the merge point for facts
// that several packages contribute to independently — the interface
// implementors each package observed flowing into one interface method —
// where Lookup's single declaring-package slot would lose information.
func (m *ModuleFacts) All(objPath string) []any {
	if m == nil {
		return nil
	}
	var out []any
	for _, pkg := range m.Packages() {
		if v, ok := m.pkgs[pkg][objPath]; ok {
			out = append(out, v)
		}
	}
	return out
}

// Find returns the fact exported under objPath by whichever package
// declared it, located by scanning every exporting package (first hit in
// sorted order). It resolves facts for functions known only by object
// path — an interface implementor recorded as a string — where no
// types.Object is at hand for Lookup.
func (m *ModuleFacts) Find(objPath string) (any, bool) {
	if m == nil {
		return nil, false
	}
	for _, pkg := range m.Packages() {
		if v, ok := m.pkgs[pkg][objPath]; ok {
			return v, true
		}
	}
	return nil, false
}

// Packages returns the sorted package paths with exported facts.
func (m *ModuleFacts) Packages() []string {
	if m == nil {
		return nil
	}
	out := make([]string, 0, len(m.pkgs))
	for p := range m.pkgs {
		out = append(out, p)
	}
	sort.Strings(out)
	return out
}

// PackageFacts returns pkgPath's fact set keyed by object path. The map
// is the store's own; treat it as read-only.
func (m *ModuleFacts) PackageFacts(pkgPath string) map[string]any {
	if m == nil {
		return nil
	}
	return m.pkgs[pkgPath]
}

// ExportFact records a fact for a function declared in the pass's own
// package, to be consumed when the package's dependents are analyzed.
func (p *Pass) ExportFact(obj types.Object, fact any) {
	fn, ok := obj.(*types.Func)
	if !ok {
		return
	}
	p.Module.Export(p.Pkg.Path(), fn.FullName(), fact)
}

// ImportedFact looks up the fact a dependency exported for obj.
func (p *Pass) ImportedFact(obj types.Object) (any, bool) {
	return p.Module.Lookup(obj)
}

// FactStore is a per-package key/value store shared by every analyzer
// pass over that package: expensive derived structures (a call graph,
// propagated facts) are computed once and reused by later passes.
type FactStore struct {
	m map[any]any
}

// Fact returns the fact stored under key, computing and caching it with
// compute on first use. The key should be an analyzer-private type (as
// with context.Context values) so analyzers cannot collide.
func (p *Pass) Fact(key any, compute func() any) any {
	if p.facts == nil {
		// A pass constructed without a store (tests, ad-hoc drivers)
		// still works; it just recomputes.
		return compute()
	}
	if v, ok := p.facts.m[key]; ok {
		return v
	}
	v := compute()
	p.facts.m[key] = v
	return v
}

// Reportf records a diagnostic at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	*p.diags = append(*p.diags, Diagnostic{
		Pos:      p.Fset.Position(pos),
		Message:  fmt.Sprintf(format, args...),
		Analyzer: p.Analyzer.Name,
	})
}

// ReportfVia is the fully attributed report: provenance names the
// exported fact the finding rests on, and devirt records the interface
// dispatch the call edge was resolved through ("(pkg.Doer).Do →
// (*pkg.Spawner).Do"). Both ride along in cmd/hpclint's -json output.
func (p *Pass) ReportfVia(pos token.Pos, provenance, devirt, format string, args ...any) {
	*p.diags = append(*p.diags, Diagnostic{
		Pos:        p.Fset.Position(pos),
		Message:    fmt.Sprintf(format, args...),
		Analyzer:   p.Analyzer.Name,
		Provenance: provenance,
		Devirt:     devirt,
	})
}

// Diagnostic is one finding.
type Diagnostic struct {
	Pos      token.Position
	Message  string
	Analyzer string
	// Provenance, when set, names the cross-package fact the finding
	// rests on ("hpcmetrics/internal/study.RunContext: spawns a
	// goroutine"), so a diagnostic in package a that exists only because
	// of package b's body is traceable to b.
	Provenance string
	// Devirt, when set, records the interface-method dispatch the
	// finding's call edge was resolved through: the interface method and
	// the concrete target it devirtualized to ("(pkg.Doer).Do →
	// (*pkg.Spawner).Do"), or the implementor set behind an all-agree
	// resolution ("(pkg.Doer).Do agreed by (*pkg.A).Do, (*pkg.B).Do").
	Devirt string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s: %s (%s)", d.Pos, d.Message, d.Analyzer)
}

// Run applies the analyzers to one loaded package and returns the
// surviving (non-suppressed) diagnostics in position order. The package
// is analyzed in isolation — no cross-package facts flow in or out; use
// RunWithModule for module-wide analysis.
func Run(pkg *load.Package, analyzers []*Analyzer) ([]Diagnostic, error) {
	return RunWithModule(pkg, analyzers, nil)
}

// RunWithModule is Run with a shared cross-package fact store. Drivers
// analyzing many packages pass the same ModuleFacts to every call, in
// dependency order (load.Loader.SortDeps), so each package can consume
// the facts its dependencies exported.
func RunWithModule(pkg *load.Package, analyzers []*Analyzer, module *ModuleFacts) ([]Diagnostic, error) {
	var diags []Diagnostic
	facts := &FactStore{m: map[any]any{}}
	for _, a := range analyzers {
		pass := &Pass{
			Analyzer: a,
			Fset:     pkg.Fset,
			Syntax:   pkg.Syntax,
			Pkg:      pkg.Types,
			Info:     pkg.Info,
			Module:   module,
			facts:    facts,
			diags:    &diags,
		}
		if err := a.Run(pass); err != nil {
			return nil, fmt.Errorf("%s: %s: %w", a.Name, pkg.PkgPath, err)
		}
	}
	diags = suppress(pkg, diags)
	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i], diags[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		return a.Analyzer < b.Analyzer
	})
	return diags, nil
}

// Directive is one //hpclint:ignore comment found in a package.
type Directive struct {
	File      string
	Line      int
	Analyzers []string
}

// Directives lists the suppression directives present in pkg, in source
// order. cmd/hpclint -suppressions uses this to diff the module's
// directive inventory against a committed allowlist, so new suppressions
// cannot slip in silently.
func Directives(pkg *load.Package) []Directive {
	var out []Directive
	for _, f := range pkg.Syntax {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				names, ok := parseIgnore(c.Text)
				if !ok {
					continue
				}
				pos := pkg.Fset.Position(c.Pos())
				out = append(out, Directive{File: pos.Filename, Line: pos.Line, Analyzers: names})
			}
		}
	}
	return out
}

// suppress drops diagnostics covered by //hpclint:ignore directives.
func suppress(pkg *load.Package, diags []Diagnostic) []Diagnostic {
	// ignored[file][line] holds the analyzer names silenced on that line.
	ignored := map[string]map[int]map[string]bool{}
	for _, f := range pkg.Syntax {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				names, ok := parseIgnore(c.Text)
				if !ok {
					continue
				}
				pos := pkg.Fset.Position(c.Pos())
				lines := ignored[pos.Filename]
				if lines == nil {
					lines = map[int]map[string]bool{}
					ignored[pos.Filename] = lines
				}
				for _, ln := range []int{pos.Line, pos.Line + 1} {
					if lines[ln] == nil {
						lines[ln] = map[string]bool{}
					}
					for _, n := range names {
						lines[ln][n] = true
					}
				}
			}
		}
	}
	if len(ignored) == 0 {
		return diags
	}
	kept := diags[:0]
	for _, d := range diags {
		if ignored[d.Pos.Filename][d.Pos.Line][d.Analyzer] {
			continue
		}
		kept = append(kept, d)
	}
	return kept
}

// parseIgnore extracts the analyzer names from an ignore directive
// comment, or reports that the comment is not one.
func parseIgnore(text string) ([]string, bool) {
	rest, ok := strings.CutPrefix(text, "//hpclint:ignore")
	if !ok || (rest != "" && rest[0] != ' ' && rest[0] != '\t') {
		return nil, false
	}
	fields := strings.Fields(rest)
	if len(fields) == 0 {
		return nil, false
	}
	var names []string
	for _, n := range strings.Split(fields[0], ",") {
		if n != "" {
			names = append(names, n)
		}
	}
	return names, len(names) > 0
}
