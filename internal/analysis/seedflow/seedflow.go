// Package seedflow is the seed-provenance taint analysis: every
// random-number generator the program constructs must derive its seed
// from an explicit seed parameter or from experiments.RepSeed, so that
// replications are reproducible and independently re-runnable from the
// committed configuration alone.
//
// The repository's generators are *stats.RNG (the xorshift64* core all
// simulated subsystems draw from) and the stdlib *rand.Rand/rand.Source
// family. The analyzer classifies the provenance of every expression
// that reaches a seed position:
//
//   - blessed: a seed parameter of the enclosing function, the result
//     of experiments.RepSeed, or a draw from an already-seeded
//     generator (stats.RNG.Split-style derivation);
//   - literal: an untyped constant — reproducible but frozen, the seed
//     cannot be varied per replication;
//   - time: wall-clock derived (time.Now().UnixNano() and friends) —
//     irreproducible by construction;
//   - global: drawn from the process-global math/rand generator, whose
//     state no experiment controls;
//   - unknown: everything else (flag values, struct fields of config
//     read from disk), which the analyzer trusts.
//
// Literal, time, and global provenance are findings. The analysis is
// interprocedural and field-sensitive over the whole program: a
// fixpoint first discovers which function parameters flow into seed
// positions (seed-sink parameters, including through helpers in other
// packages) and which struct fields feed seeds (seed fields), then
// every call argument bound to a sink parameter, every write to a seed
// field, and every direct constructor argument is checked. Interface
// method calls resolve through the whole-program call graph, so a seed
// laundered through an interface still reaches its implementations'
// sink parameters.
//
// Deliberately fixed seeds — the experiment suite's committed defaults
// — are sanctioned with //schedlint:allow seedflow <reason>.
package seedflow

import (
	"go/ast"
	"go/token"
	"go/types"

	"parsched/internal/analysis/callgraph"
	"parsched/internal/analysis/framework"
	"parsched/internal/analysis/load"
)

// Analyzer is the seed-provenance check.
var Analyzer = &framework.Analyzer{
	Name: "seedflow",
	Doc: "require RNG seeds to derive from explicit seed parameters or experiments.RepSeed; " +
		"flag literal-, time-, and global-rand-seeded generators, including laundered ones",
	Run: run,
}

// class is the provenance lattice. Bad classes are ordered by severity
// so combine can pick the worst contributor.
type class int

const (
	clUnknown class = iota
	clBlessed
	clLiteral
	clGlobal
	clTime
)

// val is the classification of one expression: its provenance class,
// plus the enclosing function's parameters and the struct fields whose
// values contribute to it (the taint the fixpoint propagates).
type val struct {
	cls    class
	params map[int]bool
	fields map[*types.Var]bool
}

func (v val) withParam(i int) val {
	if v.params == nil {
		v.params = map[int]bool{}
	}
	v.params[i] = true
	return v
}

func (v val) withField(f *types.Var) val {
	if v.fields == nil {
		v.fields = map[*types.Var]bool{}
	}
	v.fields[f] = true
	return v
}

// combine joins the provenance of two contributing expressions
// (operands of arithmetic, alternative assignments to one variable).
// Wall-clock and global-rand taint dominates everything; a literal
// combined with a blessed value is blessed (seed+99 offsets an
// explicit seed), and a literal combined with an unknown is unknown
// (the analyzer cannot prove the literal decides the seed).
func combine(a, b val) val {
	out := val{params: a.params, fields: a.fields}
	for i := range b.params {
		out = out.withParam(i)
	}
	for f := range b.fields {
		out = out.withField(f)
	}
	switch {
	case a.cls == clTime || b.cls == clTime:
		out.cls = clTime
	case a.cls == clGlobal || b.cls == clGlobal:
		out.cls = clGlobal
	case a.cls == clLiteral && b.cls == clLiteral:
		out.cls = clLiteral
	case a.cls == clBlessed && (b.cls == clLiteral || b.cls == clBlessed):
		out.cls = clBlessed
	case b.cls == clBlessed && a.cls == clLiteral:
		out.cls = clBlessed
	default:
		out.cls = clUnknown
	}
	return out
}

// facts is the whole-program result of the discovery fixpoint.
type facts struct {
	// sinkParams maps a function to the parameter indices that flow
	// into a seed position (directly or through further sinks).
	sinkParams map[*types.Func]map[int]bool
	// seedFields marks struct fields whose values feed seed positions.
	seedFields map[*types.Var]bool
	// graph resolves interface dispatch, nil outside a program run.
	graph *callgraph.ProgramGraph
}

type factsKey struct{}

// of computes (once per run) the program facts, falling back to
// package-local facts for passes constructed outside a framework run.
func of(pass *framework.Pass) *facts {
	if pass.Program != nil {
		return pass.Program.Cached(factsKey{}, func() any {
			return discover(pass.Program.Packages, callgraph.OfProgram(pass.Program))
		}).(*facts)
	}
	return pass.Cached(factsKey{}, func() any {
		pkg := &load.Package{Path: pass.Path, Files: pass.Files, Types: pass.Pkg, Info: pass.TypesInfo}
		return discover([]*load.Package{pkg}, nil)
	}).(*facts)
}

// discover runs the sink-parameter/seed-field fixpoint over the
// program. Both sets only grow, so iteration terminates.
func discover(pkgs []*load.Package, pg *callgraph.ProgramGraph) *facts {
	f := &facts{
		sinkParams: map[*types.Func]map[int]bool{},
		seedFields: map[*types.Var]bool{},
		graph:      pg,
	}
	for changed := true; changed; {
		changed = false
		for _, p := range pkgs {
			if p.Types == nil || p.Info == nil {
				continue
			}
			walkFuncs(p, func(fc *funcCtx) {
				fc.eachSink(f, func(arg ast.Expr, _ sink) {
					v := fc.classify(arg, nil)
					// A parameter becomes a sink only when it decides the
					// seed by itself (pure pass-through, possibly offset
					// by literals). A parameter that merely perturbs an
					// unknown base (cfg.Seed + int64(site)) is a variation
					// index, not the seed.
					if v.cls == clBlessed {
						for i := range v.params {
							if f.addSinkParam(fc.fn, i) {
								changed = true
							}
						}
					}
					for fld := range v.fields {
						if !f.seedFields[fld] {
							f.seedFields[fld] = true
							changed = true
						}
					}
				})
			})
		}
	}
	return f
}

func (f *facts) addSinkParam(fn *types.Func, i int) bool {
	m := f.sinkParams[fn]
	if m == nil {
		m = map[int]bool{}
		f.sinkParams[fn] = m
	}
	if m[i] {
		return false
	}
	m[i] = true
	return true
}

func run(pass *framework.Pass) error {
	f := of(pass)
	pkg := &load.Package{Path: pass.Path, Files: pass.Files, Types: pass.Pkg, Info: pass.TypesInfo}
	walkFuncs(pkg, func(fc *funcCtx) {
		fc.eachSink(f, func(arg ast.Expr, s sink) {
			v := fc.classify(arg, nil)
			var what string
			switch v.cls {
			case clLiteral:
				what = "literal constant"
			case clTime:
				what = "wall-clock time"
			case clGlobal:
				what = "the global math/rand generator"
			default:
				return
			}
			pass.Reportf(arg.Pos(), "%s seeded from %s; derive seeds from an explicit seed parameter or experiments.RepSeed",
				s.describe(), what)
		})
	})
	return nil
}

// sink is one seed position: a constructor argument, an argument bound
// to a discovered sink parameter, or a write to a seed field.
type sink struct {
	kind  string // "constructor", "parameter", "field"
	name  string // the constructor, callee, or field name
	field string // parameter name or field name detail
}

func (s sink) describe() string {
	switch s.kind {
	case "constructor":
		return s.name
	case "parameter":
		return "seed parameter " + s.field + " of " + s.name
	default:
		return "seed field " + s.name
	}
}

// funcCtx is the per-function classification context.
type funcCtx struct {
	pkg     *load.Package
	fn      *types.Func
	decl    *ast.FuncDecl
	params  map[types.Object]int
	assigns map[types.Object][]ast.Expr
	// mutated marks loop counters and accumulators (x++, x += d):
	// their value varies at runtime, so they classify as unknown
	// rather than as their initial literal.
	mutated map[types.Object]bool
}

// walkFuncs visits every declared function of the package with its
// context prepared: parameter indices and the local single-assignment
// map classification chases variables through.
func walkFuncs(p *load.Package, visit func(*funcCtx)) {
	for _, file := range p.Files {
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			fn, ok := p.Info.Defs[fd.Name].(*types.Func)
			if !ok {
				continue
			}
			fc := &funcCtx{pkg: p, fn: fn, decl: fd, params: map[types.Object]int{}, assigns: map[types.Object][]ast.Expr{}, mutated: map[types.Object]bool{}}
			sig := fn.Type().(*types.Signature)
			for i := 0; i < sig.Params().Len(); i++ {
				fc.params[sig.Params().At(i)] = i
			}
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.IncDecStmt:
					if id, ok := ast.Unparen(n.X).(*ast.Ident); ok {
						if obj := p.Info.Uses[id]; obj != nil {
							fc.mutated[obj] = true
						}
					}
				case *ast.AssignStmt:
					compound := n.Tok != token.ASSIGN && n.Tok != token.DEFINE
					if len(n.Lhs) != len(n.Rhs) && !compound {
						return true
					}
					for i, lhs := range n.Lhs {
						id, ok := lhs.(*ast.Ident)
						if !ok {
							continue
						}
						obj := p.Info.Defs[id]
						if obj == nil {
							obj = p.Info.Uses[id]
						}
						if obj == nil {
							continue
						}
						if compound {
							fc.mutated[obj] = true
						} else if i < len(n.Rhs) {
							fc.assigns[obj] = append(fc.assigns[obj], n.Rhs[i])
						}
					}
				}
				return true
			})
			visit(fc)
		}
	}
}

// eachSink visits every seed position in the function body with the
// expression that flows into it.
func (fc *funcCtx) eachSink(f *facts, visit func(ast.Expr, sink)) {
	info := fc.pkg.Info
	ast.Inspect(fc.decl.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.CallExpr:
			callee := callgraph.Callee(info, n)
			if callee == nil {
				return true
			}
			if idxs := constructorSeedArgs(callee); idxs != nil {
				for _, i := range idxs {
					if i < len(n.Args) {
						visit(n.Args[i], sink{kind: "constructor", name: callgraph.ShortName(callee)})
					}
				}
				return true
			}
			for _, target := range fc.resolveCallee(f, callee) {
				for i := range f.sinkParams[target] {
					if i < len(n.Args) {
						visit(n.Args[i], sink{kind: "parameter", name: callgraph.ShortName(target), field: paramName(target, i)})
					}
				}
			}
		case *ast.AssignStmt:
			for i, lhs := range n.Lhs {
				if i >= len(n.Rhs) {
					break
				}
				sel, ok := lhs.(*ast.SelectorExpr)
				if !ok {
					continue
				}
				if fld, ok := info.Uses[sel.Sel].(*types.Var); ok && fld.IsField() && f.seedFields[fld] {
					visit(n.Rhs[i], sink{kind: "field", name: fld.Name()})
				}
			}
		case *ast.CompositeLit:
			st, ok := info.Types[n].Type.Underlying().(*types.Struct)
			if !ok {
				return true
			}
			for i, elt := range n.Elts {
				var fld *types.Var
				value := elt
				if kv, ok := elt.(*ast.KeyValueExpr); ok {
					if id, ok := kv.Key.(*ast.Ident); ok {
						fld, _ = info.Uses[id].(*types.Var)
					}
					value = kv.Value
				} else if i < st.NumFields() {
					fld = st.Field(i)
				}
				if fld != nil && f.seedFields[fld] {
					visit(value, sink{kind: "field", name: fld.Name()})
				}
			}
		}
		return true
	})
}

// resolveCallee returns the functions a call may reach: the static
// callee, plus every program-known implementation for an interface
// method.
func (fc *funcCtx) resolveCallee(f *facts, callee *types.Func) []*types.Func {
	if sig, ok := callee.Type().(*types.Signature); ok && sig.Recv() != nil {
		if _, isIface := sig.Recv().Type().Underlying().(*types.Interface); isIface && f.graph != nil {
			var out []*types.Func
			for _, n := range f.graph.Resolve(callee) {
				out = append(out, n.Fn)
			}
			return out
		}
	}
	return []*types.Func{callee}
}

// classify determines the provenance of expr within the function.
// visited guards recursion through the local assignment map.
func (fc *funcCtx) classify(expr ast.Expr, visited map[types.Object]bool) val {
	info := fc.pkg.Info
	if tv, ok := info.Types[expr]; ok && tv.Value != nil {
		return val{cls: clLiteral}
	}
	switch e := ast.Unparen(expr).(type) {
	case *ast.Ident:
		obj := info.Uses[e]
		if obj == nil {
			obj = info.Defs[e]
		}
		if _, ok := obj.(*types.Var); !ok {
			return val{}
		}
		if i, isParam := fc.params[obj]; isParam {
			return val{cls: clBlessed}.withParam(i)
		}
		if fc.mutated[obj] {
			return val{}
		}
		rhs := fc.assigns[obj]
		if len(rhs) == 0 || visited[obj] {
			return val{}
		}
		if visited == nil {
			visited = map[types.Object]bool{}
		}
		visited[obj] = true
		out := fc.classify(rhs[0], visited)
		for _, r := range rhs[1:] {
			out = combine(out, fc.classify(r, visited))
		}
		return out
	case *ast.SelectorExpr:
		if fld, ok := info.Uses[e.Sel].(*types.Var); ok && fld.IsField() {
			return val{}.withField(fld)
		}
		return val{}
	case *ast.BinaryExpr:
		return combine(fc.classify(e.X, visited), fc.classify(e.Y, visited))
	case *ast.UnaryExpr:
		return fc.classify(e.X, visited)
	case *ast.CallExpr:
		if tv, ok := info.Types[ast.Unparen(e.Fun)]; ok && tv.IsType() && len(e.Args) == 1 {
			return fc.classify(e.Args[0], visited)
		}
		return classifyCall(info, e, fc, visited)
	}
	return val{}
}

// classifyCall classifies the result of a call: wall-clock reads,
// global math/rand draws, RepSeed, and draws from an already-seeded
// generator.
func classifyCall(info *types.Info, call *ast.CallExpr, fc *funcCtx, visited map[types.Object]bool) val {
	fn := callgraph.Callee(info, call)
	if fn == nil || fn.Pkg() == nil {
		return val{}
	}
	path := fn.Pkg().Path()
	sig, _ := fn.Type().(*types.Signature)
	recv := sig != nil && sig.Recv() != nil

	switch {
	case path == "time" && !recv && wallClock[fn.Name()]:
		return val{cls: clTime}
	case path == "time" && recv:
		// t.UnixNano() etc.: the provenance is the receiver's.
		if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
			return fc.classify(sel.X, visited)
		}
		return val{}
	case (path == "math/rand" || path == "math/rand/v2") && !recv && !randConstructors[fn.Name()]:
		return val{cls: clGlobal}
	case fn.Name() == "RepSeed" && framework.PathMatches(path, "internal/experiments"):
		return val{cls: clBlessed}
	case recv && seededGenerator(sig.Recv().Type()):
		// A draw from an existing generator derives a new stream from a
		// seeded one (the Split idiom).
		return val{cls: clBlessed}
	}
	return val{}
}

// wallClock lists package time's clock-observing functions.
var wallClock = map[string]bool{"Now": true, "Since": true, "Until": true}

// randConstructors lists the math/rand(/v2) package functions that
// build generators rather than draw from the global one. Their seed
// arguments are checked as constructor sinks instead.
var randConstructors = map[string]bool{
	"New": true, "NewSource": true, "NewZipf": true,
	"NewPCG": true, "NewChaCha8": true,
}

// constructorSeedArgs returns the argument indices that seed a known
// generator constructor, or nil when fn is not one.
func constructorSeedArgs(fn *types.Func) []int {
	name := fn.Name()
	if fn.Pkg() == nil {
		return nil
	}
	path := fn.Pkg().Path()
	sig, _ := fn.Type().(*types.Signature)
	recv := sig != nil && sig.Recv() != nil

	if framework.PathMatches(path, "internal/stats") {
		if !recv && name == "NewRNG" {
			return []int{0}
		}
		if recv && name == "Seed" && seededGenerator(sig.Recv().Type()) {
			return []int{0}
		}
	}
	if path == "math/rand" || path == "math/rand/v2" {
		switch {
		case !recv && (name == "NewSource" || name == "Seed"):
			return []int{0}
		case !recv && name == "NewPCG":
			return []int{0, 1}
		case recv && name == "Seed":
			return []int{0}
		}
	}
	return nil
}

// seededGenerator reports whether t is one of the repository's
// explicitly seeded generator types (or the stdlib's).
func seededGenerator(t types.Type) bool {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok || named.Obj().Pkg() == nil {
		return false
	}
	path := named.Obj().Pkg().Path()
	name := named.Obj().Name()
	if framework.PathMatches(path, "internal/stats") && name == "RNG" {
		return true
	}
	if (path == "math/rand" || path == "math/rand/v2") && (name == "Rand" || name == "Source") {
		return true
	}
	return false
}

// paramName returns the declared name of parameter i of fn, or its
// index when unnamed.
func paramName(fn *types.Func, i int) string {
	sig, ok := fn.Type().(*types.Signature)
	if !ok || i >= sig.Params().Len() {
		return "?"
	}
	if name := sig.Params().At(i).Name(); name != "" {
		return name
	}
	return "#" + string(rune('0'+i))
}
