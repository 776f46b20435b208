// Package callgraph is the interprocedural layer of the schedlint
// framework: a whole-program call graph over the loader's from-source
// type information, plus the hot-path reachability pass the escape
// analyzer scopes its ratchet by.
//
// A function is a hot-path root when its declaration's doc comment
// carries the directive
//
//	//schedlint:hotpath
//
// (optionally followed by a note). Reachability propagates from the
// roots along three kinds of edges, all resolved from the program's
// type info:
//
//   - static calls and method calls to functions declared in any
//     analyzed package (including method expressions) — a root on
//     sim.RunStream taints the des engine kernels and the sched
//     backfillers it calls without local re-annotation;
//   - dynamic dispatch through interface method calls, resolved to
//     every concrete type known to the program whose method set
//     implements the interface — the des.Handle/sched.Scheduler shape,
//     now crossing package boundaries;
//   - function literals, whose bodies are attributed to the enclosing
//     declaration (the DES arrival pump and finish closures are part of
//     the function that creates them).
//
// Branches dead under a constant-false condition are pruned, so code
// guarded by `if debugchecks.Enabled { ... }` in an untagged build does
// not drag the debug assertions into the hot set. The reverse boundary
// is //schedlint:coldpath: once-per-run setup and reporting a root
// happens to call (constructors, spec parsing behind Name()) carries
// the directive, and propagation stops at its door instead of pulling
// the whole setup tree into the allocation contract.
//
// The program is whatever package set the framework run was given:
// `schedlint ./...` builds the graph over the full module, which is
// the configuration the contracts are stated against. Each hot node
// remembers the BFS predecessor that first reached it, so Chain()
// names the full cross-package route from the root — the evidence the
// `schedlint -hotpaths` audit prints.
//
// Build (the package-local constructor) is retained for direct tests
// and as the regression reference: the whole-program hot set is by
// construction a superset of every per-package hot set, which
// TestWholeProgramSupersetOfPerPackage pins against the committed PR 8
// hot-set snapshot.
package callgraph

import (
	"go/ast"
	"go/constant"
	"go/token"
	"go/types"
	"sort"
	"strings"

	"parsched/internal/analysis/framework"
	"parsched/internal/analysis/load"
)

// HotDirective marks a hot-path root function's doc comment.
const HotDirective = "//schedlint:hotpath"

// ColdDirective marks a propagation boundary: a function that hot-path
// reachability does not enter, because it runs outside the per-event
// regime the performance contracts are stated over — once-per-run
// constructors (cluster.New, des.NewEngine), spec parsing reached from
// result labeling, reporting. A root reaches its callers' other
// callees as usual; the cold function itself and everything reachable
// only through it stay out of the hot set. Like hotpath, the directive
// is a reviewed claim: annotating a per-event function cold disables
// its allocation contract, so `schedlint -hotpaths` is the audit that
// keeps the boundary honest.
const ColdDirective = "//schedlint:coldpath"

// Node is one declared function or method of the program.
type Node struct {
	// Fn is the type-checker's object for the function.
	Fn *types.Func
	// Root reports that the declaration carries the hotpath directive.
	Root bool
	// Cold reports that the declaration carries the coldpath directive:
	// propagation does not enter this function.
	Cold bool
	// Hot reports that the function is a root or reachable from one.
	Hot bool
	// Via names the root whose traversal first reached this node (the
	// node's own name for roots). Empty for cold nodes. Whole-program
	// graphs qualify the name with its package ("sim.RunStream");
	// package-local graphs keep the bare name for local messages.
	Via string
	// Parent is the BFS predecessor through which the hot set first
	// reached this node; nil for roots and cold nodes. Chain() follows
	// it back to the root.
	Parent *Node
	// Callees lists the resolved call targets, in first-encounter
	// order. In a whole-program graph they may belong to other
	// packages.
	Callees []*Node

	decl      *ast.FuncDecl
	calleeSet map[*Node]bool
}

// Name returns the package-local function name, with a receiver prefix
// for methods: "Step" becomes "(*Engine).Step". It is the stable,
// line-number-free identity the escape baseline keys on.
func (n *Node) Name() string { return ShortName(n.Fn) }

// Qualified returns the package-qualified name ("des.(*Engine).Step")
// used in cross-package Via chains.
func (n *Node) Qualified() string {
	if pkg := n.Fn.Pkg(); pkg != nil {
		return pkg.Name() + "." + n.Name()
	}
	return n.Name()
}

// Chain returns the qualified call route from the root that first
// reached this node down to the node itself, or nil for cold nodes.
func (n *Node) Chain() []string {
	if !n.Hot {
		return nil
	}
	var rev []*Node
	for cur := n; cur != nil; cur = cur.Parent {
		rev = append(rev, cur)
	}
	out := make([]string, len(rev))
	for i, cur := range rev {
		out[len(rev)-1-i] = cur.Qualified()
	}
	return out
}

// ShortName formats fn the way Node.Name does.
func ShortName(fn *types.Func) string {
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return fn.Name()
	}
	t := sig.Recv().Type()
	ptr := ""
	if p, isPtr := t.(*types.Pointer); isPtr {
		t = p.Elem()
		ptr = "*"
	}
	if named, isNamed := t.(*types.Named); isNamed {
		return "(" + ptr + named.Obj().Name() + ")." + fn.Name()
	}
	return fn.Name()
}

// Graph is one package's slice of the call graph: the nodes declared
// in the package, with Hot/Via/Parent reflecting whichever propagation
// built it (whole-program when obtained through Of with a framework
// Program, package-local when built with Build).
type Graph struct {
	path string
	info *types.Info
	// order holds the nodes in declaration order, the iteration order
	// every deterministic consumer uses.
	order  []*Node
	roots  []*Node
	hasHot bool
	nodes  map[*types.Func]*Node
}

// methodIndex maps receiver base types to their declared methods, for
// interface dispatch.
type methodIndex map[*types.TypeName]map[string]*Node

// ProgramGraph is the whole-program call graph: one Graph view per
// analyzed package, linked by cross-package static calls and
// program-wide interface dispatch, with hot-path reachability
// propagated across package edges.
type ProgramGraph struct {
	graphs []*Graph
	byPkg  map[*types.Package]*Graph
	roots  []*Node
}

type cacheKey struct{}
type programKey struct{}

// Of returns the package's call-graph view. Inside a framework Run the
// view is sliced from the whole-program graph (built once per run and
// shared by every analyzer); outside one it falls back to the
// package-local graph, preserving the per-package contract direct
// tests rely on.
func Of(pass *framework.Pass) *Graph {
	if pass.Program != nil {
		if g := OfProgram(pass.Program).Package(pass.Pkg); g != nil {
			return g
		}
	}
	return pass.Cached(cacheKey{}, func() any {
		return Build(pass.Files, pass.Pkg, pass.TypesInfo)
	}).(*Graph)
}

// OfProgram returns the run's whole-program graph, building it on
// first use and sharing it across packages and analyzers.
func OfProgram(prog *framework.Program) *ProgramGraph {
	return prog.Cached(programKey{}, func() any {
		return BuildProgram(prog.Packages)
	}).(*ProgramGraph)
}

// Build constructs a standalone package-local call graph and runs the
// reachability pass over it. Cross-package edges are not resolved;
// BuildProgram is the whole-program constructor.
func Build(files []*ast.File, pkg *types.Package, info *types.Info) *Graph {
	g := newGraph(files, pkg, "", info)
	addEdges(g, buildMethodIndex([]*Graph{g}), func(fn *types.Func) *Node {
		if fn.Pkg() != pkg {
			return nil
		}
		return g.nodes[fn]
	})
	propagate([]*Graph{g}, false)
	return g
}

// BuildProgram constructs the whole-program graph over the loaded
// target packages, in the order given (the loader returns them sorted
// by import path, which makes Via attribution deterministic).
func BuildProgram(pkgs []*load.Package) *ProgramGraph {
	pg := &ProgramGraph{byPkg: map[*types.Package]*Graph{}}
	nodes := map[*types.Func]*Node{}
	for _, p := range pkgs {
		if p.Types == nil || p.Info == nil {
			continue
		}
		g := newGraph(p.Files, p.Types, p.Path, p.Info)
		pg.graphs = append(pg.graphs, g)
		pg.byPkg[p.Types] = g
		for fn, n := range g.nodes {
			nodes[fn] = n
		}
	}
	methods := buildMethodIndex(pg.graphs)
	for _, g := range pg.graphs {
		addEdges(g, methods, func(fn *types.Func) *Node { return nodes[fn] })
	}
	propagate(pg.graphs, true)
	for _, g := range pg.graphs {
		pg.roots = append(pg.roots, g.roots...)
	}
	return pg
}

// Package returns the view for pkg, or nil when pkg is not part of the
// program.
func (pg *ProgramGraph) Package(pkg *types.Package) *Graph { return pg.byPkg[pkg] }

// Graphs returns the per-package views in program order.
func (pg *ProgramGraph) Graphs() []*Graph { return pg.graphs }

// RedundantRoots returns the annotated roots that are themselves
// reachable from other roots — annotations cross-package propagation
// makes unnecessary, which `schedlint -hotpaths` reports so the manual
// root set can stay minimal.
func (pg *ProgramGraph) RedundantRoots() []*Node {
	var out []*Node
	for _, r := range pg.roots {
		if reachableFromOthers(pg.roots, r) {
			out = append(out, r)
		}
	}
	return out
}

// reachableFromOthers reports whether target can be reached by BFS
// from the root set excluding target itself.
func reachableFromOthers(roots []*Node, target *Node) bool {
	seen := map[*Node]bool{}
	var queue []*Node
	for _, r := range roots {
		if r != target && !seen[r] {
			seen[r] = true
			queue = append(queue, r)
		}
	}
	for len(queue) > 0 {
		cur := queue[0]
		queue = queue[1:]
		for _, c := range cur.Callees {
			if c == target {
				return true
			}
			if !seen[c] && !c.Cold {
				seen[c] = true
				queue = append(queue, c)
			}
		}
	}
	return false
}

// newGraph builds the node set for one package (pass 1).
func newGraph(files []*ast.File, pkg *types.Package, path string, info *types.Info) *Graph {
	g := &Graph{path: path, info: info, nodes: map[*types.Func]*Node{}}
	if path == "" && pkg != nil {
		g.path = pkg.Path()
	}
	for _, f := range files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok {
				continue
			}
			fn, ok := info.Defs[fd.Name].(*types.Func)
			if !ok {
				continue
			}
			n := &Node{Fn: fn, decl: fd, Root: hasDirective(fd, HotDirective), Cold: hasDirective(fd, ColdDirective), calleeSet: map[*Node]bool{}}
			g.nodes[fn] = n
			g.order = append(g.order, n)
			if n.Root {
				g.roots = append(g.roots, n)
			}
		}
	}
	return g
}

// buildMethodIndex indexes receiver base types declared in the given
// graphs: named type -> method name -> node.
func buildMethodIndex(graphs []*Graph) methodIndex {
	idx := methodIndex{}
	for _, g := range graphs {
		for _, n := range g.order {
			sig := n.Fn.Type().(*types.Signature)
			recv := sig.Recv()
			if recv == nil {
				continue
			}
			t := recv.Type()
			if p, ok := t.(*types.Pointer); ok {
				t = p.Elem()
			}
			named, ok := t.(*types.Named)
			if !ok {
				continue
			}
			tn := named.Obj()
			if idx[tn] == nil {
				idx[tn] = map[string]*Node{}
			}
			idx[tn][n.Fn.Name()] = n
		}
	}
	return idx
}

// resolve returns the call targets for fn: interface methods dispatch
// to every implementing method in the index, everything else resolves
// through lookup.
func resolve(fn *types.Func, idx methodIndex, lookup func(*types.Func) *Node) []*Node {
	sig, ok := fn.Type().(*types.Signature)
	if !ok {
		return nil
	}
	if recv := sig.Recv(); recv != nil {
		if iface, ok := recv.Type().Underlying().(*types.Interface); ok {
			var out []*Node
			for tn, byName := range idx {
				target, ok := byName[fn.Name()]
				if !ok {
					continue
				}
				t := tn.Type()
				if types.Implements(t, iface) || types.Implements(types.NewPointer(t), iface) {
					out = append(out, target)
				}
			}
			// The index is a map; order the fan-out by qualified name so
			// edge insertion (and with it Via attribution) is stable
			// across runs.
			sort.Slice(out, func(i, j int) bool { return out[i].Qualified() < out[j].Qualified() })
			return out
		}
	}
	if n := lookup(fn); n != nil {
		return []*Node{n}
	}
	return nil
}

// addEdges resolves the calls in g's function bodies (pass 2). lookup
// bounds the static-call horizon: package-local for standalone graphs,
// program-wide for whole-program ones.
func addEdges(g *Graph, idx methodIndex, lookup func(*types.Func) *Node) {
	for _, n := range g.order {
		if n.decl.Body == nil {
			continue
		}
		caller := n
		walkLive(g.info, n.decl.Body, func(node ast.Node) {
			call, ok := node.(*ast.CallExpr)
			if !ok {
				return
			}
			fn := Callee(g.info, call)
			if fn == nil {
				return
			}
			for _, target := range resolve(fn, idx, lookup) {
				addEdge(caller, target)
			}
		})
	}
}

// propagate runs reachability breadth-first from each root, in graph
// order then declaration order, so Via attribution is deterministic.
// Whole-program propagation (qualified) records package-qualified Via
// names and BFS parents so Chain() can print the cross-package route;
// interface fan-out lands in Callees sorted by qualified name (resolve
// orders it) and deduplicated by addEdge.
func propagate(graphs []*Graph, qualified bool) {
	name := func(n *Node) string {
		if qualified {
			return n.Qualified()
		}
		return n.Name()
	}
	for _, g := range graphs {
		for _, root := range g.roots {
			if root.Hot {
				continue
			}
			root.Hot = true
			root.Via = name(root)
			queue := []*Node{root}
			for len(queue) > 0 {
				cur := queue[0]
				queue = queue[1:]
				for _, callee := range cur.Callees {
					if !callee.Hot && !callee.Cold {
						callee.Hot = true
						callee.Via = name(root)
						callee.Parent = cur
						queue = append(queue, callee)
					}
				}
			}
		}
	}
	for _, g := range graphs {
		for _, n := range g.order {
			if n.Hot {
				g.hasHot = true
				break
			}
		}
	}
}

func addEdge(from, to *Node) {
	if from.calleeSet[to] {
		return
	}
	from.calleeSet[to] = true
	from.Callees = append(from.Callees, to)
}

// HasRoots reports whether any function declared in this package
// carries the hotpath directive.
func (g *Graph) HasRoots() bool { return len(g.roots) > 0 }

// HasHot reports whether any function declared in this package is hot
// — annotated locally or reached from a root in another package. The
// hot-code analyzers use it to skip cold packages entirely.
func (g *Graph) HasHot() bool { return g.hasHot }

// Path returns the package's import path as the loader saw it.
func (g *Graph) Path() string { return g.path }

// Nodes returns the package's function nodes in declaration order.
func (g *Graph) Nodes() []*Node { return g.order }

// Enclosing returns the function node whose declaration contains pos,
// or nil when pos sits outside every declaration (package-level
// initializers).
func (g *Graph) Enclosing(pos token.Pos) *Node {
	for _, n := range g.order {
		if n.decl.Pos() <= pos && pos <= n.decl.End() {
			return n
		}
	}
	return nil
}

// hasDirective reports whether the declaration's doc comment carries
// the given //schedlint directive (optionally followed by a note).
func hasDirective(fd *ast.FuncDecl, directive string) bool {
	if fd.Doc == nil {
		return false
	}
	for _, c := range fd.Doc.List {
		if c.Text == directive || strings.HasPrefix(c.Text, directive+" ") {
			return true
		}
	}
	return false
}

// walkLive walks the AST under n, pruning branches that are dead under
// a constant condition: `if debugchecks.Enabled { ... }` contributes no
// edges when Enabled is the constant false of an untagged build.
func walkLive(info *types.Info, n ast.Node, visit func(ast.Node)) {
	var walk func(ast.Node) bool
	walk = func(node ast.Node) bool {
		if node == nil {
			return false
		}
		if ifs, ok := node.(*ast.IfStmt); ok {
			if v, isConst := constBool(info, ifs.Cond); isConst {
				if ifs.Init != nil {
					ast.Inspect(ifs.Init, walk)
				}
				if v {
					ast.Inspect(ifs.Body, walk)
				} else if ifs.Else != nil {
					ast.Inspect(ifs.Else, walk)
				}
				return false
			}
		}
		visit(node)
		return true
	}
	ast.Inspect(n, walk)
}

// constBool evaluates expr as a compile-time boolean constant.
func constBool(info *types.Info, expr ast.Expr) (value, isConst bool) {
	tv, ok := info.Types[expr]
	if !ok || tv.Value == nil || tv.Value.Kind() != constant.Bool {
		return false, false
	}
	return constant.BoolVal(tv.Value), true
}

// Callee resolves the static callee of a call expression: a declared
// function, a method (possibly an interface method), or nil for
// builtins, conversions, and calls through function values. A call to
// a generic function or to a method of a generic type, implicitly or
// explicitly (f[T](x)) instantiated, resolves to the declaration, the
// only form the graph holds.
func Callee(info *types.Info, call *ast.CallExpr) *types.Func {
	fun := ast.Unparen(call.Fun)
	switch ix := fun.(type) {
	case *ast.IndexExpr:
		fun = ast.Unparen(ix.X)
	case *ast.IndexListExpr:
		fun = ast.Unparen(ix.X)
	}
	var fn *types.Func
	switch fun := fun.(type) {
	case *ast.Ident:
		fn, _ = info.Uses[fun].(*types.Func)
	case *ast.SelectorExpr:
		fn, _ = info.Uses[fun.Sel].(*types.Func)
	}
	if fn == nil {
		return nil
	}
	return fn.Origin()
}
