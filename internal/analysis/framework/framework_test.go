package framework

import (
	"go/ast"
	"go/parser"
	"go/token"
	"strings"
	"testing"

	"parsched/internal/analysis/load"
)

func parse(t *testing.T, src string) (*token.FileSet, *ast.File) {
	t.Helper()
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "p.go", src, parser.ParseComments)
	if err != nil {
		t.Fatal(err)
	}
	return fset, f
}

func TestDirectiveValidation(t *testing.T) {
	fset, f := parse(t, `package p

//schedlint:allow
var a int

//schedlint:allow nosuchcheck some reason
var b int

//schedlint:allow determinism
var c int

//schedlint:allow determinism a good reason
var d int
`)
	dirs := directives(fset, []*ast.File{f})
	if len(dirs) != 4 {
		t.Fatalf("parsed %d directives, want 4", len(dirs))
	}
	got := checkDirectives(dirs, map[string]bool{"determinism": true})
	if len(got) != 3 {
		t.Fatalf("got %d directive findings, want 3: %v", len(got), got)
	}
	for i, want := range []string{"needs a check name", "unknown check", "needs a reason"} {
		if !strings.Contains(got[i].Message, want) {
			t.Errorf("finding %d = %q, want substring %q", i, got[i].Message, want)
		}
	}
}

// TestSubsetRunKnowsTheSuite runs one check of a two-check suite, as
// `schedlint -only` does, over directives naming the check run, the
// check skipped and a check outside the suite: only the last is a
// finding.
func TestSubsetRunKnowsTheSuite(t *testing.T) {
	fset, f := parse(t, `package p

var a int //schedlint:allow run a reason

var b int //schedlint:allow skipped a reason

var c int //schedlint:allow gone a reason
`)
	noop := func(*Pass) error { return nil }
	run := &Analyzer{Name: "run", Run: noop}
	skipped := &Analyzer{Name: "skipped", Run: noop}
	pkgs := []*load.Package{{Path: "p", Fset: fset, Files: []*ast.File{f}}}
	diags, _, err := RunAll(pkgs, []*Analyzer{run}, []*Analyzer{run, skipped})
	if err != nil {
		t.Fatal(err)
	}
	if len(diags) != 1 || !strings.Contains(diags[0].Message, `unknown check "gone"`) {
		t.Fatalf("findings %v, want exactly one naming the unknown check \"gone\"", diags)
	}
}

func TestSuppressLineRules(t *testing.T) {
	fset, f := parse(t, `package p

var a int //schedlint:allow x because reasons

//schedlint:allow x because reasons
var b int

var c int
`)
	dirs := directives(fset, []*ast.File{f})
	if len(dirs) != 2 {
		t.Fatalf("parsed %d directives, want 2", len(dirs))
	}
	if dirs[0].ownLine {
		t.Error("same-line directive classified as standalone")
	}
	if !dirs[1].ownLine {
		t.Error("standalone directive not classified as standalone")
	}

	// Synthesize one diagnostic per var declaration.
	var diags []Diagnostic
	for _, d := range f.Decls {
		gd, ok := d.(*ast.GenDecl)
		if !ok || gd.Tok != token.VAR {
			continue
		}
		diags = append(diags, Diagnostic{Check: "x", Pos: gd.Pos()})
	}
	if len(diags) != 3 {
		t.Fatalf("synthesized %d diagnostics, want 3", len(diags))
	}
	marked := suppress(fset, diags, dirs)
	var kept []Diagnostic
	for _, d := range marked {
		if !d.Suppressed {
			kept = append(kept, d)
		}
	}
	if len(kept) != 1 {
		t.Fatalf("kept %d diagnostics, want 1 (only the unannotated var): %v", len(kept), kept)
	}
	if line := fset.Position(kept[0].Pos).Line; line != 8 {
		t.Errorf("surviving diagnostic on line %d, want 8", line)
	}
}
