package callgraph

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"parsched/internal/analysis/load"
)

// TestHotpathPropagation pins the reachability contract on the fixture:
// the hot set crosses static calls, closure bodies, an interface method
// dispatch, and calls through the instantiations of generic functions
// and of a generic type's method, and stops at constant-false branches,
// non-matching method sets, and cold callers of hot code.
func TestHotpathPropagation(t *testing.T) {
	fl := load.NewFixtureLoader("testdata")
	p, err := fl.Load("example.com/internal/hotgraph")
	if err != nil {
		t.Fatalf("loading fixture: %v", err)
	}
	for _, terr := range p.TypeErrors {
		t.Fatalf("fixture type error: %v", terr)
	}
	g := Build(p.Files, p.Types, p.Info)

	if !g.HasRoots() {
		t.Fatalf("HasRoots() = false; the fixture annotates Root")
	}

	wantHot := map[string]bool{
		"Root":        true, // the annotated root itself
		"(*adder).Do": true, // via interface dispatch on doer
		"step":        true, // static call from Root
		"leaf":        true, // static call from the dispatched method
		"viaClosure":  true, // called from a closure defined in Root
		"(*box).get":  true, // method of a generic type, via box[int]
		"ident":       true, // generic, implicitly instantiated
		"twice":       true, // generic, explicitly instantiated: twice[int]
		"pick":        true, // generic, two explicit type arguments
		"(misfit).Do": false,
		"coldDebug":   false, // behind `if debug` with debug == false
		"coldOrphan":  false, // calls hot code but nothing hot calls it
	}
	seen := map[string]bool{}
	for _, n := range g.Nodes() {
		name := n.Name()
		seen[name] = true
		want, known := wantHot[name]
		if !known {
			t.Errorf("unexpected function %s in graph", name)
			continue
		}
		if n.Hot != want {
			t.Errorf("%s: Hot = %v, want %v", name, n.Hot, want)
		}
		if n.Hot && n.Via != "Root" {
			t.Errorf("%s: Via = %q, want %q", name, n.Via, "Root")
		}
		if !n.Hot && n.Via != "" {
			t.Errorf("%s: cold node carries Via %q", name, n.Via)
		}
	}
	for name := range wantHot {
		if !seen[name] {
			t.Errorf("function %s missing from graph", name)
		}
	}

	// The root's resolved callees include both the static call and the
	// dispatched implementation, deduplicated.
	root := findNode(t, g, "Root")
	var callees []string
	for _, c := range root.Callees {
		callees = append(callees, c.Name())
	}
	if len(callees) != 3 {
		t.Errorf("Root callees = %v, want step, viaClosure, (*adder).Do in some order", callees)
	}
}

func findNode(t *testing.T, g *Graph, name string) *Node {
	t.Helper()
	for _, n := range g.Nodes() {
		if n.Name() == name {
			return n
		}
	}
	t.Fatalf("node %s not found", name)
	return nil
}

// TestWholeProgramPropagation pins the cross-package contract on the
// two-package fixture: static calls and interface dispatch cross the
// package boundary, Via and Chain are package-qualified, a root the
// propagation already covers is reported redundant, and a coldpath
// constructor stops the traversal.
func TestWholeProgramPropagation(t *testing.T) {
	fl := load.NewFixtureLoader("testdata")
	pkgs, err := fl.LoadAll("example.com/internal/prog/a", "example.com/internal/prog/b")
	if err != nil {
		t.Fatalf("loading fixture: %v", err)
	}
	for _, p := range pkgs {
		for _, terr := range p.TypeErrors {
			t.Fatalf("fixture %s: type error: %v", p.Path, terr)
		}
	}
	pg := BuildProgram(pkgs)

	wantHot := map[string]bool{
		"a.Kernel":        true,  // the annotated root
		"b.(*Engine).Run": true,  // via cross-package interface dispatch
		"b.Step":          true,  // via cross-package static call; also a (redundant) root
		"b.leaf":          true,  // via both b entries
		"b.NewEngine":     false, // coldpath: propagation stops at the door
		"b.setupCost":     false, // reachable only through the coldpath constructor
		"b.(misfit).Run":  false, // wrong method shape: no dispatch edge
	}
	seen := map[string]bool{}
	for _, g := range pg.Graphs() {
		for _, n := range g.Nodes() {
			q := n.Qualified()
			seen[q] = true
			want, known := wantHot[q]
			if !known {
				t.Errorf("unexpected function %s in program graph", q)
				continue
			}
			if n.Hot != want {
				t.Errorf("%s: Hot = %v, want %v", q, n.Hot, want)
			}
		}
	}
	for q := range wantHot {
		if !seen[q] {
			t.Errorf("function %s missing from program graph", q)
		}
	}

	// Via names the qualified root, and Chain spells the cross-package
	// route the -hotpaths audit prints.
	run := findProgramNode(t, pg, "b.(*Engine).Run")
	if run.Via != "a.Kernel" {
		t.Errorf("b.(*Engine).Run: Via = %q, want %q", run.Via, "a.Kernel")
	}
	if got := strings.Join(run.Chain(), " -> "); got != "a.Kernel -> b.(*Engine).Run" {
		t.Errorf("b.(*Engine).Run: Chain = %q", got)
	}
	leaf := findProgramNode(t, pg, "b.leaf")
	if c := leaf.Chain(); len(c) != 3 || c[0] != "a.Kernel" {
		t.Errorf("b.leaf: Chain = %v, want a 3-hop route from a.Kernel", c)
	}

	// b.Step is annotated but already reachable from a.Kernel, so the
	// audit reports it redundant.
	red := pg.RedundantRoots()
	if len(red) != 1 || red[0].Qualified() != "b.Step" {
		names := make([]string, len(red))
		for i, n := range red {
			names[i] = n.Qualified()
		}
		t.Errorf("RedundantRoots = %v, want [b.Step]", names)
	}

	// The per-package views agree with the program: b has hot code and
	// its own (redundant) root.
	for _, g := range pg.Graphs() {
		if !g.HasHot() {
			t.Errorf("%s: HasHot() = false in program view", g.Path())
		}
	}
}

func findProgramNode(t *testing.T, pg *ProgramGraph, qualified string) *Node {
	t.Helper()
	for _, g := range pg.Graphs() {
		for _, n := range g.Nodes() {
			if n.Qualified() == qualified {
				return n
			}
		}
	}
	t.Fatalf("node %s not found in program graph", qualified)
	return nil
}

// TestWholeProgramSupersetOfPerPackage is the root-trim regression
// gate: every function the PR 8 per-package graphs marked hot (the
// committed testdata/hotset_pr8.tsv snapshot, taken before the manual
// root dedup) must still be hot in the whole-program graph built from
// today's trimmed root set. Propagation may only grow the hot set.
func TestWholeProgramSupersetOfPerPackage(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks the whole module; skipped in -short")
	}
	data, err := os.ReadFile(filepath.Join("testdata", "hotset_pr8.tsv"))
	if err != nil {
		t.Fatalf("reading golden hot set: %v", err)
	}
	type entry struct{ pkg, fn string }
	var golden []entry
	for _, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		pkg, fn, ok := strings.Cut(line, "\t")
		if !ok {
			t.Fatalf("malformed golden line %q", line)
		}
		golden = append(golden, entry{pkg, fn})
	}
	if len(golden) == 0 {
		t.Fatal("golden hot set is empty")
	}

	root, err := filepath.Abs(filepath.Join("..", "..", ".."))
	if err != nil {
		t.Fatal(err)
	}
	pkgs, err := load.Packages(root, "./...")
	if err != nil {
		t.Fatalf("loading module: %v", err)
	}
	pg := BuildProgram(pkgs)

	hot := map[entry]bool{}
	for _, g := range pg.Graphs() {
		for _, n := range g.Nodes() {
			if n.Hot {
				hot[entry{g.Path(), n.Name()}] = true
			}
		}
	}
	var missing []string
	for _, e := range golden {
		if !hot[e] {
			missing = append(missing, e.pkg+"."+e.fn)
		}
	}
	if len(missing) > 0 {
		t.Errorf("whole-program hot set lost %d of %d PR 8 hot functions:\n  %s",
			len(missing), len(golden), strings.Join(missing, "\n  "))
	}
	if len(hot) < len(golden) {
		t.Errorf("hot set shrank: %d now vs %d in PR 8", len(hot), len(golden))
	}
}
