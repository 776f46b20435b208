// Package framework is the repository's minimal, dependency-free
// counterpart of golang.org/x/tools/go/analysis: an Analyzer is a
// named Run function over a type-checked package, reporting positioned
// diagnostics. The API mirrors go/analysis deliberately — Analyzer,
// Pass, Diagnostic, Pass.Reportf — so the schedlint checkers could be
// ported onto the real vet framework by swapping imports, but the
// hermetic build environment (no module proxy) means the suite runs on
// the standard library alone.
//
// On top of the go/analysis shape it adds the one mechanism the
// repository's contracts need: source-level suppression directives.
// A comment of the form
//
//	//schedlint:allow <check> <reason>
//
// suppresses diagnostics from analyzer <check> on the directive's line
// (or, for a directive standing alone on its line, the line below).
// The reason is mandatory: an unexplained exemption is itself a
// finding.
package framework

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"

	"parsched/internal/analysis/load"
)

// Analyzer is one static check.
type Analyzer struct {
	// Name identifies the analyzer in output and in allow directives.
	Name string
	// Doc is the one-paragraph contract the analyzer enforces.
	Doc string
	// Run inspects one package, reporting findings through the pass.
	Run func(*Pass) error
}

// Program is the whole-program view of one Run: every target package
// being analyzed, plus a cache shared by every pass of the run.
// Whole-program structures — the cross-package call graph, the
// seed-provenance summaries — are built once per run through
// Program.Cached, not once per package.
//
// The program is exactly the set of packages handed to Run. A partial
// run (`schedlint ./internal/des`) therefore sees a partial program:
// hot-path roots and taint sources in packages outside the target set
// do not propagate in. CI always runs the full `./...` set, which is
// the configuration the contracts are stated against.
type Program struct {
	// Packages holds the run's target packages in analysis order.
	Packages []*load.Package

	cache map[any]any
}

// NewProgram wraps the target package set for a run.
func NewProgram(pkgs []*load.Package) *Program {
	return &Program{Packages: pkgs, cache: map[any]any{}}
}

// Cached memoizes compute under key for the whole program, exactly as
// Pass.Cached does for one package.
func (p *Program) Cached(key any, compute func() any) any {
	if p.cache == nil {
		p.cache = map[any]any{}
	}
	if v, ok := p.cache[key]; ok {
		return v
	}
	v := compute()
	p.cache[key] = v
	return v
}

// Pass carries one analyzer's view of one package.
type Pass struct {
	Analyzer *Analyzer
	// Path is the package's import path as the tool sees it (fixture
	// packages keep their testdata-relative path).
	Path string
	// Dir is the directory holding the package's source files. Analyzers
	// that consult external tooling (the escape analyzer shells out to
	// the compiler) run it from here.
	Dir       string
	Fset      *token.FileSet
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info
	// Program is the whole-program view of the run. Nil for passes
	// constructed outside Run (direct analyzer tests), in which case
	// interprocedural analyzers fall back to package-local resolution.
	Program *Program

	diags *[]Diagnostic
	// cache is shared by every analyzer visiting the same package in one
	// Run, so interprocedural structures (the hot-path call graph) are
	// built once per package, not once per analyzer.
	cache map[any]any
}

// Cached memoizes compute under key for the current package: the first
// analyzer to ask pays for the computation, later analyzers in the same
// Run reuse the result. Analyzers use a private key type to avoid
// collisions, exactly like context keys.
func (p *Pass) Cached(key any, compute func() any) any {
	if p.cache == nil {
		// A pass constructed outside Run (direct analyzer tests): no
		// sharing, just compute.
		return compute()
	}
	if v, ok := p.cache[key]; ok {
		return v
	}
	v := compute()
	p.cache[key] = v
	return v
}

// Reportf records a finding at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	*p.diags = append(*p.diags, Diagnostic{
		Check:   p.Analyzer.Name,
		Pos:     pos,
		Message: fmt.Sprintf(format, args...),
	})
}

// Diagnostic is one positioned finding.
type Diagnostic struct {
	// Check names the analyzer (or the pseudo-check "directive" for
	// malformed suppression comments).
	Check   string
	Pos     token.Pos
	Message string
	// Suppressed marks a finding covered by a well-formed
	// //schedlint:allow directive. Run drops these; RunAll keeps them so
	// machine consumers (-json output) can audit the exemptions in play.
	Suppressed bool
}

// Run applies every analyzer to every package, filters suppressed
// findings through the allow directives, validates the directives
// themselves against the analyzers run, and returns the surviving
// diagnostics sorted by position. The returned fset resolves their
// positions.
func Run(pkgs []*load.Package, analyzers []*Analyzer) ([]Diagnostic, *token.FileSet, error) {
	all, fset, err := RunAll(pkgs, analyzers, analyzers)
	if err != nil {
		return nil, fset, err
	}
	kept := all[:0]
	for _, d := range all {
		if !d.Suppressed {
			kept = append(kept, d)
		}
	}
	return kept, fset, nil
}

// RunAll is Run keeping suppressed findings: every diagnostic covered
// by an allow directive is returned with Suppressed set instead of
// being dropped. It runs analyzers, a subset of suite, and validates
// the directives against the whole suite, so a run of one check does
// not flag the directives of the checks it skips, while a directive
// naming no check of the suite is still a finding.
func RunAll(pkgs []*load.Package, analyzers, suite []*Analyzer) ([]Diagnostic, *token.FileSet, error) {
	var diags []Diagnostic
	var fset *token.FileSet
	known := map[string]bool{}
	for _, a := range suite {
		known[a.Name] = true
	}
	prog := NewProgram(pkgs)
	for _, pkg := range pkgs {
		if fset == nil {
			fset = pkg.Fset
		}
		dirs := directives(pkg.Fset, pkg.Files)
		var pkgDiags []Diagnostic
		cache := map[any]any{}
		for _, a := range analyzers {
			pass := &Pass{
				Analyzer:  a,
				Path:      pkg.Path,
				Dir:       pkg.Dir,
				Fset:      pkg.Fset,
				Files:     pkg.Files,
				Pkg:       pkg.Types,
				TypesInfo: pkg.Info,
				Program:   prog,
				diags:     &pkgDiags,
				cache:     cache,
			}
			if err := a.Run(pass); err != nil {
				return nil, fset, fmt.Errorf("%s: %s: %w", a.Name, pkg.Path, err)
			}
		}
		diags = append(diags, suppress(pkg.Fset, pkgDiags, dirs)...)
		diags = append(diags, checkDirectives(dirs, known)...)
	}
	sort.SliceStable(diags, func(i, j int) bool {
		pi, pj := fset.Position(diags[i].Pos), fset.Position(diags[j].Pos)
		if pi.Filename != pj.Filename {
			return pi.Filename < pj.Filename
		}
		if pi.Line != pj.Line {
			return pi.Line < pj.Line
		}
		return diags[i].Check < diags[j].Check
	})
	return diags, fset, nil
}

// directive is one parsed //schedlint:allow comment.
type directive struct {
	check   string
	reason  string
	pos     token.Pos
	file    string
	line    int
	ownLine bool // the comment is the only thing on its line
}

const directivePrefix = "//schedlint:allow"

// directives extracts every schedlint directive from the files.
func directives(fset *token.FileSet, files []*ast.File) []directive {
	var out []directive
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				if !strings.HasPrefix(c.Text, directivePrefix) {
					continue
				}
				rest := strings.TrimPrefix(c.Text, directivePrefix)
				fields := strings.Fields(rest)
				d := directive{pos: c.Pos()}
				if len(fields) > 0 {
					d.check = fields[0]
				}
				if len(fields) > 1 {
					d.reason = strings.Join(fields[1:], " ")
				}
				pos := fset.Position(c.Pos())
				d.file, d.line = pos.Filename, pos.Line
				d.ownLine = onlyCommentOnLine(fset, f, pos.Line)
				out = append(out, d)
			}
		}
	}
	return out
}

// onlyCommentOnLine reports whether no syntax (other than comments)
// starts or ends on the given line — i.e. a directive there stands
// alone and governs the line below rather than its own.
func onlyCommentOnLine(fset *token.FileSet, f *ast.File, l int) bool {
	only := true
	ast.Inspect(f, func(n ast.Node) bool {
		if n == nil || !only {
			return false
		}
		switch n.(type) {
		case *ast.File:
			return true
		case *ast.Comment, *ast.CommentGroup:
			return false
		}
		start := fset.Position(n.Pos()).Line
		end := fset.Position(n.End()).Line
		if end < l || start > l {
			return false // entirely above or below; so are its children
		}
		if start == l || end == l {
			only = false
			return false
		}
		return true // spans the line; a child may sit exactly on it
	})
	return only
}

// suppress marks diagnostics covered by a well-formed allow directive:
// same check, same file, and either the same line or the line directly
// below a standalone directive.
func suppress(fset *token.FileSet, diags []Diagnostic, dirs []directive) []Diagnostic {
	if len(dirs) == 0 {
		return diags
	}
	for i := range diags {
		pos := fset.Position(diags[i].Pos)
		for _, dir := range dirs {
			if dir.check != diags[i].Check || dir.reason == "" || dir.file != pos.Filename {
				continue
			}
			if dir.line == pos.Line || (dir.ownLine && dir.line+1 == pos.Line) {
				diags[i].Suppressed = true
				break
			}
		}
	}
	return diags
}

// checkDirectives reports malformed directives: unknown check names
// and missing reasons. These findings are not themselves suppressible.
func checkDirectives(dirs []directive, known map[string]bool) []Diagnostic {
	var out []Diagnostic
	for _, d := range dirs {
		switch {
		case d.check == "":
			out = append(out, Diagnostic{Check: "directive", Pos: d.pos,
				Message: "schedlint:allow needs a check name and a reason: //schedlint:allow <check> <reason>"})
		case !known[d.check]:
			out = append(out, Diagnostic{Check: "directive", Pos: d.pos,
				Message: fmt.Sprintf("schedlint:allow names unknown check %q", d.check)})
		case d.reason == "":
			out = append(out, Diagnostic{Check: "directive", Pos: d.pos,
				Message: fmt.Sprintf("schedlint:allow %s needs a reason: an unexplained exemption is a finding", d.check)})
		}
	}
	return out
}

// PathMatches reports whether the package import path contains the
// given module-relative fragment ("internal/sim") on component
// boundaries. It is how analyzers scope themselves to subsystems while
// behaving identically on real packages ("parsched/internal/sim") and
// fixtures ("example.com/internal/sim").
func PathMatches(path, fragment string) bool {
	idx := 0
	for {
		i := strings.Index(path[idx:], fragment)
		if i < 0 {
			return false
		}
		start := idx + i
		end := start + len(fragment)
		startOK := start == 0 || path[start-1] == '/'
		endOK := end == len(path) || path[end] == '/'
		if startOK && endOK {
			return true
		}
		idx = start + 1
	}
}
