// Command schedlint runs the repository's custom static-analysis
// suite — the two determinism contracts every reported result depends
// on (determinism: no wall clock or global rand in simulated code;
// maporder: no map order leaking into ordered output), and the escape
// ratchet over the compiler's heap diagnostics in the
// //schedlint:hotpath kernels — over the given packages.
//
// Usage:
//
//	schedlint [-list] [-only check,...] [-json] [-baseline file] [-update-baseline] [-hotpaths] [packages]
//
// Packages default to ./... relative to the current directory. The
// exit status is 1 when any finding survives the //schedlint:allow
// directives, 2 on usage or load errors, so CI fails on findings.
// -only runs a subset of the checks; directives are still validated
// against the whole suite, so those of the checks left out are not
// findings, while a directive naming no check of the suite is.
//
// -hotpaths switches to the audit mode: instead of linting, print the
// whole-program propagated hot set, one function per line with the
// full cross-package Via chain from its root, plus the roots the
// propagation makes redundant (annotated functions already reachable
// from other roots). With -json each hot function is one JSON object
// (package, func, root, chain, root/redundant flags). Baseline and
// annotation audits read this instead of the graph code.
//
// The escape analyzer checks the compiler's -m heap diagnostics
// (escapes to heap, moved to heap) against the sanctioned-escapes
// baseline (-baseline; defaults to ESCAPES.baseline at the module
// root). New hot-path escapes are findings; escapes the baseline
// sanctions but the compiler no longer emits are stale findings too,
// so the ratchet only tightens — run -update-baseline to rewrite the
// baseline to the current state after benchmarking the change. -json
// emits one finding per line as JSON (analyzer, pos, message,
// suppressed), including the //schedlint:allow-suppressed findings
// machine consumers may want to audit.
//
// The suite is built on internal/analysis/framework, a stdlib-only
// mirror of golang.org/x/tools/go/analysis (the build environment is
// hermetic: no module proxy, no vendored x/tools). Each analyzer's doc
// string describes the contract it enforces; see README "Static
// analysis & invariants".
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"

	"parsched/internal/analysis"
	"parsched/internal/analysis/callgraph"
	"parsched/internal/analysis/escape"
	"parsched/internal/analysis/framework"
	"parsched/internal/analysis/load"
)

func main() {
	listFlag := flag.Bool("list", false, "list the analyzers and exit")
	only := flag.String("only", "", "comma-separated subset of checks to run")
	jsonFlag := flag.Bool("json", false, "emit findings as JSON, one object per line (includes suppressed findings)")
	baseline := flag.String("baseline", "", "sanctioned-escapes baseline file (default: ESCAPES.baseline at the module root)")
	update := flag.Bool("update-baseline", false, "rewrite the baseline to the current escape findings instead of failing on them")
	hotpaths := flag.Bool("hotpaths", false, "print the whole-program propagated hot set with cross-package Via chains and exit")
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: schedlint [-list] [-only check,...] [-json] [-baseline file] [-update-baseline] [-hotpaths] [packages]\n\nchecks:\n")
		for _, a := range analysis.Analyzers() {
			fmt.Fprintf(os.Stderr, "  %-12s %s\n", a.Name, a.Doc)
		}
	}
	flag.Parse()

	suite := analysis.Analyzers()
	analyzers := suite
	if *listFlag {
		for _, a := range suite {
			fmt.Printf("%-12s %s\n", a.Name, a.Doc)
		}
		return
	}
	if *only != "" {
		byName := map[string]*framework.Analyzer{}
		for _, a := range suite {
			byName[a.Name] = a
		}
		var subset []*framework.Analyzer
		for _, name := range strings.Split(*only, ",") {
			a, ok := byName[strings.TrimSpace(name)]
			if !ok {
				fmt.Fprintf(os.Stderr, "schedlint: unknown check %q\n", name)
				os.Exit(2)
			}
			subset = append(subset, a)
		}
		analyzers = subset
	}

	patterns := flag.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	cwd, err := os.Getwd()
	if err != nil {
		fmt.Fprintln(os.Stderr, "schedlint:", err)
		os.Exit(2)
	}
	escape.BaselinePath = *baseline
	if escape.BaselinePath == "" {
		escape.BaselinePath = defaultBaseline(cwd)
	}
	pkgs, err := load.Packages(cwd, patterns...)
	if err != nil {
		fmt.Fprintln(os.Stderr, "schedlint:", err)
		os.Exit(2)
	}
	for _, p := range pkgs {
		for _, terr := range p.TypeErrors {
			fmt.Fprintf(os.Stderr, "schedlint: %s: type error: %v\n", p.Path, terr)
		}
	}
	if *hotpaths {
		printHotpaths(pkgs, *jsonFlag)
		return
	}
	diags, fset, err := framework.RunAll(pkgs, analyzers, suite)
	if err != nil {
		fmt.Fprintln(os.Stderr, "schedlint:", err)
		os.Exit(2)
	}

	if *update {
		if escape.BaselinePath == "" {
			fmt.Fprintln(os.Stderr, "schedlint: -update-baseline: no baseline path (outside a module?); pass -baseline")
			os.Exit(2)
		}
		stale := len(escape.Stale())
		if err := escape.WriteBaseline(escape.BaselinePath, escape.MergedBaseline()); err != nil {
			fmt.Fprintln(os.Stderr, "schedlint:", err)
			os.Exit(2)
		}
		fmt.Fprintf(os.Stderr, "schedlint: wrote %s (%d sanctioned escapes, %d stale removed)\n",
			escape.BaselinePath, len(escape.Collected()), stale)
	}

	// Stale baseline entries are findings too: an escape that was fixed
	// must be ratcheted out of the baseline, or the contract loosens.
	var staleCount int
	if !*update {
		for _, k := range escape.Stale() {
			staleCount++
			fmt.Printf("%s: escape: baseline sanctions %q in %s.%s but the compiler no longer reports it; run -update-baseline to ratchet\n",
				escape.BaselinePath, k.Reason, k.Pkg, k.Func)
		}
	}

	failing := 0
	enc := json.NewEncoder(os.Stdout)
	for _, d := range diags {
		isEscape := d.Check == escape.Analyzer.Name
		sanctioned := d.Suppressed || (*update && isEscape)
		if !sanctioned {
			failing++
		}
		if *jsonFlag {
			enc.Encode(jsonFinding{
				Analyzer:   d.Check,
				Pos:        fset.Position(d.Pos).String(),
				Message:    d.Message,
				Suppressed: sanctioned,
			})
			continue
		}
		switch {
		case d.Suppressed:
			continue // plain output keeps the historical suppressed-free shape
		case *update && isEscape:
			fmt.Printf("%s: %s: %s (now sanctioned in baseline)\n", fset.Position(d.Pos), d.Check, d.Message)
		default:
			fmt.Printf("%s: %s: %s\n", fset.Position(d.Pos), d.Check, d.Message)
		}
	}
	failing += staleCount
	if failing > 0 {
		fmt.Fprintf(os.Stderr, "schedlint: %d finding(s)\n", failing)
		os.Exit(1)
	}
}

// jsonFinding is the -json line format.
type jsonFinding struct {
	Analyzer   string `json:"analyzer"`
	Pos        string `json:"pos"`
	Message    string `json:"message"`
	Suppressed bool   `json:"suppressed"`
}

// jsonHotpath is the -hotpaths -json line format.
type jsonHotpath struct {
	Package   string   `json:"package"`
	Func      string   `json:"func"`
	Root      string   `json:"root"`
	IsRoot    bool     `json:"is_root,omitempty"`
	Redundant bool     `json:"redundant_root,omitempty"`
	Chain     []string `json:"chain"`
}

// printHotpaths is the -hotpaths audit: the whole-program hot set with
// full cross-package Via chains, then the redundant roots — annotated
// entry points the propagation already reaches from other roots, which
// can lose their directive without shrinking the hot set.
func printHotpaths(pkgs []*load.Package, asJSON bool) {
	pg := callgraph.BuildProgram(pkgs)
	redundant := map[*callgraph.Node]bool{}
	for _, n := range pg.RedundantRoots() {
		redundant[n] = true
	}
	enc := json.NewEncoder(os.Stdout)
	hot, roots := 0, 0
	for _, g := range pg.Graphs() {
		for _, n := range g.Nodes() {
			if !n.Hot {
				continue
			}
			hot++
			if n.Root {
				roots++
			}
			if asJSON {
				enc.Encode(jsonHotpath{
					Package:   g.Path(),
					Func:      n.Name(),
					Root:      n.Via,
					IsRoot:    n.Root,
					Redundant: redundant[n],
					Chain:     n.Chain(),
				})
				continue
			}
			mark := " "
			switch {
			case redundant[n]:
				mark = "!" // annotated root that other roots already reach
			case n.Root:
				mark = "*"
			}
			fmt.Printf("%s %-42s %-28s via %s\n", mark, g.Path(), n.Name(), strings.Join(n.Chain(), " -> "))
		}
	}
	if asJSON {
		return
	}
	fmt.Printf("\n%d hot functions, %d roots (* root, ! redundant root)\n", hot, roots)
	if len(redundant) > 0 {
		fmt.Printf("redundant roots (reachable from other roots; the directive can be dropped):\n")
		for _, n := range pg.RedundantRoots() {
			fmt.Printf("  %s\n", n.Qualified())
		}
	}
}

// defaultBaseline resolves ESCAPES.baseline at the enclosing module's
// root, or "" outside a module.
func defaultBaseline(cwd string) string {
	cmd := exec.Command("go", "env", "GOMOD")
	cmd.Dir = cwd
	out, err := cmd.Output()
	if err != nil {
		return ""
	}
	gomod := strings.TrimSpace(string(out))
	if gomod == "" || gomod == os.DevNull {
		return ""
	}
	return filepath.Join(filepath.Dir(gomod), "ESCAPES.baseline")
}
