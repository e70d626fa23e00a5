// Package lint is pdrvet's analysis framework: a stdlib-only module loader
// (go/parser + go/types) plus a pluggable set of analyzers that enforce the
// PDR engine's un-compilable invariants — half-open rectangle semantics,
// simulation-time purity, epsilon-safe float comparison, checked
// encode/write errors, goroutine joins, sync.Pool lifetimes, and the
// unlock discipline. Properties a measurement or the race detector checks
// (allocations on hot paths, guarded-field access) are left to those gates.
//
// Diagnostics carry file:line:col positions. A finding can be suppressed by
// a directive comment on the same line or the line above:
//
//	// lint:ignore <analyzer>[,<analyzer>...] <reason>
//
// The reason is mandatory; an ignore directive without one, or one naming an
// analyzer that is not registered, is itself a finding. The analyzer list
// may be "all".
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// Diagnostic is one finding.
type Diagnostic struct {
	Analyzer string
	// Pkg is the import path of the package the finding is in; it leads the
	// sort key so output order is stable across multi-package runs.
	Pkg     string
	Pos     token.Position
	Message string
}

// String formats the finding as file:line:col: [analyzer] message.
func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: [%s] %s", d.Pos.Filename, d.Pos.Line, d.Pos.Column, d.Analyzer, d.Message)
}

// Analyzer is one pluggable check.
type Analyzer struct {
	// Name is the identifier used in diagnostics and ignore directives.
	Name string
	// Doc is a one-line description of the enforced invariant.
	Doc string
	// Run inspects one package and reports findings through the pass.
	Run func(*Pass)
	// Prepare, when set, runs once per Run over every loaded package before
	// the per-package passes, and its result is handed to each of this
	// analyzer's passes via Pass.Shared. An interprocedural analyzer builds
	// its cross-package summaries here (poollife's releaser and provider
	// sets) so per-package findings can see the whole module.
	Prepare func(pkgs []*Package) any
}

// Pass hands one type-checked package to one analyzer.
type Pass struct {
	Analyzer *Analyzer
	// Path is the package import path (e.g. "pdr/internal/geom").
	Path string
	Fset *token.FileSet
	// Files are the package's parsed sources (tests excluded).
	Files []*ast.File
	Pkg   *types.Package
	Info  *types.Info
	// Shared is the analyzer's Prepare result (nil when Prepare is unset):
	// module-wide state computed once per Run and read by every pass.
	Shared any

	diags *[]Diagnostic
}

// Reportf records a finding at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	*p.diags = append(*p.diags, Diagnostic{
		Analyzer: p.Analyzer.Name,
		Pkg:      p.Path,
		Pos:      p.Fset.Position(pos),
		Message:  fmt.Sprintf(format, args...),
	})
}

// TypeOf returns the type of e, or nil if the checker recorded none.
func (p *Pass) TypeOf(e ast.Expr) types.Type { return p.Info.TypeOf(e) }

// PkgNameOf resolves e to the imported package it names, or nil. It answers
// "is this selector's base the package time/math-rand/...?" questions.
func (p *Pass) PkgNameOf(e ast.Expr) *types.PkgName {
	id, ok := e.(*ast.Ident)
	if !ok {
		return nil
	}
	pn, _ := p.Info.Uses[id].(*types.PkgName)
	return pn
}

// Inspect walks every file of the pass.
func (p *Pass) Inspect(fn func(ast.Node) bool) {
	for _, f := range p.Files {
		ast.Inspect(f, fn)
	}
}

// All returns the full analyzer suite in stable order.
func All() []*Analyzer {
	return []*Analyzer{
		AnalyzerFloatEq,
		AnalyzerHalfOpen,
		AnalyzerWallClock,
		AnalyzerErrCheckLite,
		AnalyzerDeferUnlock,
		AnalyzerNoLeak,
		AnalyzerPoolLife,
		AnalyzerDirective,
	}
}

// ByName returns the named analyzers from All, erroring on unknown names.
func ByName(names []string) ([]*Analyzer, error) {
	index := make(map[string]*Analyzer)
	for _, a := range All() {
		index[a.Name] = a
	}
	var out []*Analyzer
	for _, n := range names {
		a, ok := index[strings.TrimSpace(n)]
		if !ok {
			return nil, fmt.Errorf("lint: unknown analyzer %q; available: %s", n, strings.Join(Names(), ", "))
		}
		out = append(out, a)
	}
	return out, nil
}

// Names lists the full analyzer inventory in registration order.
func Names() []string {
	all := All()
	names := make([]string, len(all))
	for i, a := range all {
		names[i] = a.Name
	}
	return names
}

// Run applies the analyzers to every package and returns the surviving
// findings in deterministic order, with lint:ignore suppression applied.
func Run(pkgs []*Package, analyzers []*Analyzer) []Diagnostic {
	shared := make(map[string]any)
	for _, a := range analyzers {
		if a.Prepare != nil {
			shared[a.Name] = a.Prepare(pkgs)
		}
	}
	var diags []Diagnostic
	for _, pkg := range pkgs {
		var pkgDiags []Diagnostic
		for _, a := range analyzers {
			a.Run(&Pass{
				Analyzer: a,
				Path:     pkg.Path,
				Fset:     pkg.Fset,
				Files:    pkg.Files,
				Pkg:      pkg.Types,
				Info:     pkg.Info,
				Shared:   shared[a.Name],
				diags:    &pkgDiags,
			})
		}
		diags = append(diags, applyIgnores(pkg, analyzers, pkgDiags)...)
	}
	sortDiags(diags)
	return diags
}

// sortDiags orders findings by (package, file, line, col, analyzer,
// message) so repeated runs and CI diffs are byte-stable regardless of
// package load order or analyzer scheduling.
func sortDiags(diags []Diagnostic) {
	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i], diags[j]
		if a.Pkg != b.Pkg {
			return a.Pkg < b.Pkg
		}
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		if a.Analyzer != b.Analyzer {
			return a.Analyzer < b.Analyzer
		}
		return a.Message < b.Message
	})
}

// ignoreDirective is one parsed lint:ignore comment.
type ignoreDirective struct {
	analyzers map[string]bool // nil means "all"
	file      string
	line      int // line the directive appears on
	target    int // first line after the directive's comment group
	pos       token.Pos
}

// matches reports whether the directive covers analyzer a at file:l. A
// directive covers its own line (trailing-comment form) and the first line
// after its comment group (standalone form, possibly wrapped over several
// comment lines).
func (d ignoreDirective) matches(a, file string, l int) bool {
	if file != d.file || (l != d.line && l != d.target) {
		return false
	}
	return d.analyzers == nil || d.analyzers[a]
}

const ignorePrefix = "lint:ignore"

// applyIgnores drops diagnostics covered by a well-formed ignore directive.
// When the directive analyzer itself is part of the run, it additionally
// adds a finding for every malformed directive (missing reason), for every
// name a directive gives that is not a registered analyzer (a directive for
// a deleted analyzer would otherwise live forever), and — when
// every analyzer a directive names was also part of this run — reports
// directives that suppressed nothing as stale, so dead ignores cannot
// outlive the finding they excused. Under `-only` runs that exclude
// "directive", suppression still applies but no directive findings are
// synthesized: a partial run cannot decide that an ignore is dead, and its
// findings must never be labeled with an analyzer the user didn't select.
func applyIgnores(pkg *Package, analyzers []*Analyzer, diags []Diagnostic) []Diagnostic {
	directiveRan := false
	for _, a := range analyzers {
		if a.Name == AnalyzerDirective.Name {
			directiveRan = true
			break
		}
	}
	registered := make(map[string]bool)
	for _, a := range All() {
		registered[a.Name] = true
	}
	var directives []ignoreDirective
	var malformed []Diagnostic
	for _, f := range pkg.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				text := strings.TrimSpace(strings.TrimPrefix(c.Text, "//"))
				if !strings.HasPrefix(text, ignorePrefix) {
					continue
				}
				rest := strings.TrimSpace(strings.TrimPrefix(text, ignorePrefix))
				fields := strings.Fields(rest)
				line := pkg.Fset.Position(c.Pos()).Line
				if len(fields) < 2 {
					if directiveRan {
						malformed = append(malformed, Diagnostic{
							Analyzer: AnalyzerDirective.Name,
							Pkg:      pkg.Path,
							Pos:      pkg.Fset.Position(c.Pos()),
							Message:  "malformed lint:ignore: want \"lint:ignore <analyzer> <reason>\" with a non-empty reason",
						})
					}
					continue
				}
				d := ignoreDirective{
					file:   pkg.Fset.Position(c.Pos()).Filename,
					line:   line,
					target: pkg.Fset.Position(cg.End()).Line + 1,
					pos:    c.Pos(),
				}
				if fields[0] != "all" {
					d.analyzers = make(map[string]bool)
					for _, n := range strings.Split(fields[0], ",") {
						d.analyzers[n] = true
						if directiveRan && !registered[n] {
							malformed = append(malformed, Diagnostic{
								Analyzer: AnalyzerDirective.Name,
								Pkg:      pkg.Path,
								Pos:      pkg.Fset.Position(c.Pos()),
								Message:  fmt.Sprintf("lint:ignore names unknown analyzer %q; delete it from the directive (registered: %s)", n, strings.Join(Names(), ", ")),
							})
						}
					}
				}
				directives = append(directives, d)
			}
		}
	}
	out := malformed
	used := make([]bool, len(directives))
	for _, diag := range diags {
		suppressed := false
		for i, d := range directives {
			if d.matches(diag.Analyzer, diag.Pos.Filename, diag.Pos.Line) {
				suppressed = true
				used[i] = true
			}
		}
		if !suppressed {
			out = append(out, diag)
		}
	}
	ran := make(map[string]bool, len(analyzers))
	for _, a := range analyzers {
		ran[a.Name] = true
	}
	fullSuite := true
	for _, a := range All() {
		if !ran[a.Name] {
			fullSuite = false
			break
		}
	}
	for i, d := range directives {
		if used[i] || !directiveRan || !staleDecidable(d, ran, fullSuite) {
			continue
		}
		out = append(out, Diagnostic{
			Analyzer: AnalyzerDirective.Name,
			Pkg:      pkg.Path,
			Pos:      pkg.Fset.Position(d.pos),
			Message:  "stale lint:ignore: no finding from the named analyzers on this line; delete the directive",
		})
	}
	return out
}

// staleDecidable reports whether an unmatched directive can be called stale
// in this run: every analyzer it names must have run (a directive for "all"
// needs the full suite), and directives naming "directive" itself are never
// reported — they exist to silence this very check.
func staleDecidable(d ignoreDirective, ran map[string]bool, fullSuite bool) bool {
	if d.analyzers == nil {
		return fullSuite
	}
	for name := range d.analyzers {
		if name == "directive" || !ran[name] {
			return false
		}
	}
	return true
}
