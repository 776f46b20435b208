// Package ownership enforces the goroutine-ownership contract: state
// that crosses a goroutine boundary — captured by a goroutine closure,
// passed to a goroutine call, or sent on a channel — must be owned by
// exactly one side. A transfer is clean when the value is
//
//   - a coordination primitive (channel, func value, context.Context,
//     sync/atomic type) whose whole job is to be shared;
//   - immutable data (basics, strings, time values, structs of those),
//     which cannot race however many goroutines read it;
//   - a fresh allocation handed off and never touched again by the
//     sender (ownership transfer: allocated locally, every use sits
//     before the transfer point, and the launch is not upstream of the
//     allocation in a loop).
//
// Anything else is deliberately shared mutable state and must say so:
//
//	//schedlint:shared <reason>
//
// on the launching/sending line (or standing alone on the line above).
// The reason is mandatory — the directive documents the protocol that
// makes the sharing safe (a WaitGroup barrier, an index-partitioned
// results slice), and an unexplained one is itself a finding. The
// simulator kernels are single-threaded by contract; this analyzer
// patrols the boundary code that is allowed to fan out: the batch
// experiment runner and the command-line drivers.
package ownership

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"parsched/internal/analysis/framework"
)

// Analyzer is the goroutine-ownership check.
var Analyzer = &framework.Analyzer{
	Name: "ownership",
	Doc: "require goroutine captures and channel sends of mutable state to be closure-allocated, " +
		"cloned, immutable, or annotated //schedlint:shared <reason>",
	Run: run,
}

// SharedDirective marks a reviewed shared-state handoff.
const SharedDirective = "//schedlint:shared"

func run(pass *framework.Pass) error {
	shared := sharedLines(pass)
	for _, f := range pass.Files {
		var stack []ast.Node // enclosing funcs and loops, innermost last
		ast.Inspect(f, func(n ast.Node) bool {
			if n == nil {
				stack = stack[:len(stack)-1]
				return false
			}
			switch n := n.(type) {
			case *ast.FuncDecl, *ast.FuncLit, *ast.ForStmt, *ast.RangeStmt:
				stack = append(stack, n)
				return true
			case *ast.GoStmt:
				checkGo(pass, n, append([]ast.Node(nil), stack...), shared)
			case *ast.SendStmt:
				checkSend(pass, n, append([]ast.Node(nil), stack...), shared)
			}
			stack = append(stack, n)
			return true
		})
	}
	return nil
}

// checkGo examines one goroutine launch: closure captures for a func
// literal, arguments for a named call.
func checkGo(pass *framework.Pass, g *ast.GoStmt, stack []ast.Node, shared map[int]string) {
	encl := enclosingFunc(stack)
	if encl == nil {
		return
	}
	if lit, ok := ast.Unparen(g.Call.Fun).(*ast.FuncLit); ok {
		for _, cap := range captures(pass.TypesInfo, lit, encl) {
			if mutableShared(pass, cap.obj, cap.use, g, encl, stack) {
				report(pass, shared, g.Pos(), "goroutine closure captures %s (%s); clone it, hand it off fresh, or annotate //schedlint:shared <reason>",
					cap.obj.Name(), typeShort(cap.obj.Type()))
			}
		}
		return
	}
	for _, arg := range g.Call.Args {
		id, ok := ast.Unparen(arg).(*ast.Ident)
		if !ok {
			continue
		}
		obj, ok := pass.TypesInfo.Uses[id].(*types.Var)
		if !ok || obj.IsField() {
			continue
		}
		if mutableShared(pass, obj, id, g, encl, stack) {
			report(pass, shared, g.Pos(), "goroutine call receives %s (%s); clone it, hand it off fresh, or annotate //schedlint:shared <reason>",
				obj.Name(), typeShort(obj.Type()))
		}
	}
}

// checkSend examines one channel send: the sent value must not remain
// a live mutable alias on the sending side.
func checkSend(pass *framework.Pass, s *ast.SendStmt, stack []ast.Node, shared map[int]string) {
	encl := enclosingFunc(stack)
	if encl == nil {
		return
	}
	val := ast.Unparen(s.Value)
	// Sending a freshly built value (&T{...}, make(...), T{...}) is the
	// ownership-transfer idiom itself.
	if isAllocExpr(val) {
		return
	}
	id, ok := val.(*ast.Ident)
	if !ok {
		return
	}
	obj, ok := pass.TypesInfo.Uses[id].(*types.Var)
	if !ok || obj.IsField() {
		return
	}
	if mutableShared(pass, obj, id, s, encl, stack) {
		report(pass, shared, s.Arrow, "channel send of %s (%s) keeps a live mutable alias on the sender; clone it, send a fresh value, or annotate //schedlint:shared <reason>",
			obj.Name(), typeShort(obj.Type()))
	}
}

// capture is one variable a goroutine closure refers to from its
// enclosing function.
type capture struct {
	obj *types.Var
	use *ast.Ident
}

// captures returns the variables lit refers to that are declared in
// the enclosing function but outside the literal, each with its first
// use inside the literal.
func captures(info *types.Info, lit *ast.FuncLit, encl ast.Node) []capture {
	seen := map[*types.Var]bool{}
	var out []capture
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		obj, ok := info.Uses[id].(*types.Var)
		if !ok || obj.IsField() || seen[obj] {
			return true
		}
		pos := obj.Pos()
		declaredOutsideLit := pos < lit.Pos() || pos > lit.End()
		declaredInEncl := pos >= encl.Pos() && pos <= encl.End()
		if declaredOutsideLit && declaredInEncl {
			seen[obj] = true
			out = append(out, capture{obj: obj, use: id})
		}
		return true
	})
	return out
}

// mutableShared reports whether obj crossing the goroutine/channel
// boundary at stmt is a shared mutable value: mutable by type, and not
// a fresh local handoff.
func mutableShared(pass *framework.Pass, obj *types.Var, use *ast.Ident, stmt ast.Node, encl ast.Node, stack []ast.Node) bool {
	if !typeMutable(obj.Type(), nil) {
		return false
	}
	return !freshHandoff(pass, obj, stmt, encl, stack)
}

// freshHandoff reports the clean ownership-transfer shape: obj is
// declared inside the enclosing function, every value it ever holds is
// a fresh allocation, no use of it follows the transfer point, and the
// transfer is not upstream of the declaration in a loop (which would
// hand the same allocation out repeatedly).
func freshHandoff(pass *framework.Pass, obj *types.Var, stmt ast.Node, encl ast.Node, stack []ast.Node) bool {
	if obj.Pos() < encl.Pos() || obj.Pos() > encl.End() {
		return false // parameter of an outer scope or package-level
	}
	// The declaration must sit inside the innermost loop that contains
	// the transfer, so each trip hands off a distinct allocation.
	if loop := innermostLoop(stack); loop != nil && obj.Pos() < loop.Pos() {
		return false
	}
	var body *ast.BlockStmt
	switch e := encl.(type) {
	case *ast.FuncDecl:
		body = e.Body
	case *ast.FuncLit:
		body = e.Body
	}
	if body == nil {
		return false
	}
	if obj.Pos() < body.Pos() {
		return false // parameter or receiver: the caller may retain an alias
	}
	fresh := true
	ast.Inspect(body, func(n ast.Node) bool {
		if !fresh {
			return false
		}
		switch n := n.(type) {
		case *ast.AssignStmt:
			for i, lhs := range n.Lhs {
				id, ok := lhs.(*ast.Ident)
				if !ok || i >= len(n.Rhs) {
					continue
				}
				def := pass.TypesInfo.Defs[id]
				if def == nil {
					def = pass.TypesInfo.Uses[id]
				}
				if def == obj && !isAllocExpr(ast.Unparen(n.Rhs[i])) {
					fresh = false
				}
			}
		case *ast.Ident:
			if pass.TypesInfo.Uses[n] == obj && n.Pos() > stmt.End() {
				fresh = false // the sender touches the value after the handoff
			}
		}
		return true
	})
	return fresh
}

// isAllocExpr matches expressions that produce a fresh value: composite
// literals, &composite, make, and new.
func isAllocExpr(e ast.Expr) bool {
	switch e := ast.Unparen(e).(type) {
	case *ast.CompositeLit:
		return true
	case *ast.UnaryExpr:
		if e.Op == token.AND {
			_, ok := ast.Unparen(e.X).(*ast.CompositeLit)
			return ok
		}
	case *ast.CallExpr:
		if id, ok := ast.Unparen(e.Fun).(*ast.Ident); ok {
			return id.Name == "make" || id.Name == "new"
		}
	}
	return false
}

// typeMutable reports whether values of t alias mutable state when
// copied across a goroutine boundary. Coordination primitives and
// deeply immutable data are safe; pointers, slices, maps, unknown
// interfaces, and structs containing any of those are not.
func typeMutable(t types.Type, seen map[types.Type]bool) bool {
	if seen[t] {
		return false
	}
	if seen == nil {
		seen = map[types.Type]bool{}
	}
	seen[t] = true

	if named, ok := t.(*types.Named); ok {
		obj := named.Obj()
		if pkg := obj.Pkg(); pkg != nil {
			switch pkg.Path() {
			case "sync", "sync/atomic":
				return false
			case "time":
				return false // time.Time, time.Duration: immutable values
			case "context":
				return false
			}
		}
		return typeMutable(named.Underlying(), seen)
	}
	switch t := t.(type) {
	case *types.Basic:
		return false
	case *types.Chan, *types.Signature:
		return false
	case *types.Pointer:
		if named, ok := t.Elem().(*types.Named); ok {
			if pkg := named.Obj().Pkg(); pkg != nil && (pkg.Path() == "sync" || pkg.Path() == "sync/atomic") {
				return false
			}
		}
		return true
	case *types.Slice, *types.Map:
		return true
	case *types.Interface:
		// context.Context is handled above (named); a bare interface may
		// hold anything.
		return t.NumMethods() > 0 || t.Empty()
	case *types.Struct:
		for i := 0; i < t.NumFields(); i++ {
			if typeMutable(t.Field(i).Type(), seen) {
				return true
			}
		}
		return false
	case *types.Array:
		return typeMutable(t.Elem(), seen)
	}
	return true
}

// report emits the finding unless a //schedlint:shared directive
// covers the line.
func report(pass *framework.Pass, shared map[int]string, pos token.Pos, format string, args ...any) {
	line := pass.Fset.Position(pos).Line
	if _, ok := shared[line]; ok {
		return
	}
	pass.Reportf(pos, format, args...)
}

// sharedLines collects the //schedlint:shared directives of the
// package: a map from governed line to reason. A directive on a code
// line governs that line; one standing alone governs the line below.
// A directive without a reason is itself reported — an unexplained
// shared-state handoff is exactly what the analyzer exists to prevent.
func sharedLines(pass *framework.Pass) map[int]string {
	out := map[int]string{}
	for _, f := range pass.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				if c.Text != SharedDirective && !strings.HasPrefix(c.Text, SharedDirective+" ") {
					continue
				}
				reason := strings.TrimSpace(strings.TrimPrefix(c.Text, SharedDirective))
				pos := pass.Fset.Position(c.Pos())
				if reason == "" {
					pass.Reportf(c.Pos(), "schedlint:shared needs a reason: the directive documents why the sharing is safe")
					continue
				}
				line := pos.Line
				if standsAlone(pass.Fset, f, line) {
					line++
				}
				out[line] = reason
			}
		}
	}
	return out
}

// standsAlone reports whether no syntax other than comments starts or
// ends on the line (mirroring the framework's allow-directive rule).
func standsAlone(fset *token.FileSet, f *ast.File, line int) bool {
	alone := true
	ast.Inspect(f, func(n ast.Node) bool {
		if n == nil || !alone {
			return false
		}
		switch n.(type) {
		case *ast.File:
			return true
		case *ast.Comment, *ast.CommentGroup:
			return false
		}
		if fset.Position(n.Pos()).Line == line || fset.Position(n.End()).Line == line {
			alone = false
			return false
		}
		return true
	})
	return alone
}

// enclosingFunc returns the innermost function declaration or literal
// on the stack.
func enclosingFunc(stack []ast.Node) ast.Node {
	for i := len(stack) - 1; i >= 0; i-- {
		switch stack[i].(type) {
		case *ast.FuncDecl, *ast.FuncLit:
			return stack[i]
		}
	}
	return nil
}

// innermostLoop returns the innermost for/range statement inside the
// innermost enclosing function, or nil.
func innermostLoop(stack []ast.Node) ast.Node {
	for i := len(stack) - 1; i >= 0; i-- {
		switch stack[i].(type) {
		case *ast.ForStmt, *ast.RangeStmt:
			return stack[i]
		case *ast.FuncDecl, *ast.FuncLit:
			return nil
		}
	}
	return nil
}

// typeShort renders a compact type for messages.
func typeShort(t types.Type) string {
	return types.TypeString(t, func(p *types.Package) string { return p.Name() })
}
