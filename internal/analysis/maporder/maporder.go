// Package maporder flags map iterations whose nondeterministic order
// can leak into rendered output or ordered data.
//
// Go randomizes map iteration order on purpose, so a `for range` over
// a map that appends to a slice, prints, writes, or sends on a channel
// produces a different sequence on every run. A float sum is such a
// sink too: floating-point addition is not associative, so `sum += x`
// over a map rounds differently from run to run, and the last digits
// of full-precision output (JSON, CSV) move. In this repository that
// is not a cosmetic problem: scheduler decision paths and every
// rendered table feed committed goldens and byte-identity tests. The
// fix is the sorted-keys idiom — collect the keys, sort them, range
// over the sorted slice — which the analyzer recognizes and does not
// flag: an append of the keys (or values) is sanctioned when the
// enclosing function later passes the accumulated slice to a
// sort/slices call.
//
// Order-independent uses of map ranges (integer counting and summing,
// building another map) are not flagged.
package maporder

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"parsched/internal/analysis/framework"
)

// Analyzer is the map-iteration-order check.
var Analyzer = &framework.Analyzer{
	Name: "maporder",
	Doc: "flag map ranges that feed ordered sinks (appends, writers, channel sends, " +
		"float sums) without the sorted-keys idiom",
	Run: run,
}

func run(pass *framework.Pass) error {
	for _, f := range pass.Files {
		// Track the enclosing function body so the sorted-later idiom
		// can be recognized.
		var funcBodies []*ast.BlockStmt
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case nil:
				return false
			case *ast.FuncDecl:
				if n.Body != nil {
					funcBodies = append(funcBodies, n.Body)
				}
			case *ast.FuncLit:
				funcBodies = append(funcBodies, n.Body)
			case *ast.RangeStmt:
				t := pass.TypesInfo.TypeOf(n.X)
				if t == nil {
					return true
				}
				if _, isMap := t.Underlying().(*types.Map); !isMap {
					return true
				}
				var encl *ast.BlockStmt
				for i := len(funcBodies) - 1; i >= 0; i-- {
					if funcBodies[i].Pos() <= n.Pos() && n.End() <= funcBodies[i].End() {
						encl = funcBodies[i]
						break
					}
				}
				checkMapRange(pass, n, encl)
			}
			return true
		})
	}
	return nil
}

// checkMapRange inspects one map range for ordered sinks.
func checkMapRange(pass *framework.Pass, rng *ast.RangeStmt, encl *ast.BlockStmt) {
	ast.Inspect(rng.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.SendStmt:
			pass.Reportf(n.Pos(), "channel send inside map iteration: receive order depends on map order; iterate sorted keys")
		case *ast.AssignStmt:
			if isFloatSum(pass, n) {
				pass.Reportf(n.TokPos, "float %s inside map iteration rounds in nondeterministic order; iterate sorted keys", n.Tok)
			}
		case *ast.CallExpr:
			checkCall(pass, n, rng, encl)
		}
		return true
	})
}

// isFloatSum reports whether as is a float `+=` or `-=`: its result
// depends on the order of the terms.
func isFloatSum(pass *framework.Pass, as *ast.AssignStmt) bool {
	if as.Tok != token.ADD_ASSIGN && as.Tok != token.SUB_ASSIGN {
		return false
	}
	t := pass.TypesInfo.TypeOf(as.Lhs[0])
	if t == nil {
		return false
	}
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsFloat != 0
}

func checkCall(pass *framework.Pass, call *ast.CallExpr, rng *ast.RangeStmt, encl *ast.BlockStmt) {
	switch fun := call.Fun.(type) {
	case *ast.Ident:
		if b, ok := pass.TypesInfo.Uses[fun].(*types.Builtin); ok && b.Name() == "append" {
			checkAppend(pass, call, rng, encl)
		}
	case *ast.SelectorExpr:
		obj := pass.TypesInfo.Uses[fun.Sel]
		fn, ok := obj.(*types.Func)
		if !ok {
			return
		}
		if fn.Pkg() != nil && fn.Type().(*types.Signature).Recv() == nil {
			switch fn.Pkg().Path() {
			case "fmt":
				name := fn.Name()
				if strings.HasPrefix(name, "Print") || strings.HasPrefix(name, "Fprint") {
					pass.Reportf(call.Pos(), "fmt.%s inside map iteration renders in nondeterministic order; iterate sorted keys", name)
				}
			case "io":
				if fn.Name() == "WriteString" {
					pass.Reportf(call.Pos(), "io.WriteString inside map iteration writes in nondeterministic order; iterate sorted keys")
				}
			}
			return
		}
		// Method calls that emit bytes in order: Write, WriteString,
		// WriteByte, WriteRune on any receiver (io.Writer,
		// strings.Builder, bufio.Writer, ...).
		if fn.Type().(*types.Signature).Recv() != nil {
			switch fn.Name() {
			case "Write", "WriteString", "WriteByte", "WriteRune":
				pass.Reportf(call.Pos(), "%s call inside map iteration writes in nondeterministic order; iterate sorted keys", fn.Name())
			}
		}
	}
}

// checkAppend flags appends inside a map range, except the two
// order-safe shapes: appending into a map element (m[k] = append(m[k],
// ...) — the destination is itself unordered) and the sorted-keys
// idiom (the accumulated slice is passed to sort/slices later in the
// enclosing function).
func checkAppend(pass *framework.Pass, call *ast.CallExpr, rng *ast.RangeStmt, encl *ast.BlockStmt) {
	var target ast.Expr
	mapInsert := false
	if encl != nil {
		// Find the assignment this append feeds, if any.
		done := false
		ast.Inspect(encl, func(n ast.Node) bool {
			as, ok := n.(*ast.AssignStmt)
			if !ok || done || len(as.Rhs) != 1 || as.Rhs[0] != call {
				return !done
			}
			done = true
			switch lhs := as.Lhs[0].(type) {
			case *ast.Ident, *ast.SelectorExpr:
				target = lhs
			case *ast.IndexExpr:
				if bt := pass.TypesInfo.TypeOf(lhs.X); bt != nil {
					if _, isMap := bt.Underlying().(*types.Map); isMap {
						// m[k] = append(m[k], ...): the destination is
						// itself unordered, so the append is order-free.
						mapInsert = true
					}
				}
			}
			return false
		})
	}
	if mapInsert {
		return
	}
	if target != nil && sortedLater(pass, encl, target, rng.End()) {
		return
	}
	pass.Reportf(call.Pos(),
		"append inside map iteration accumulates in nondeterministic order; sort the result or iterate sorted keys")
}

// sortedLater reports whether the enclosing function passes the
// accumulated slice to a sorting routine after the range loop ends —
// the tail half of the sorted-keys idiom. A sorting routine is any
// function of package sort or slices, or a helper whose name starts
// with "sort"/"Sort" (the repository's local sortIDs/sortStrings
// helpers).
func sortedLater(pass *framework.Pass, encl *ast.BlockStmt, target ast.Expr, after token.Pos) bool {
	if encl == nil {
		return false
	}
	targetStr := types.ExprString(target)
	sorted := false
	ast.Inspect(encl, func(n ast.Node) bool {
		if sorted {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok || call.Pos() < after || !isSortCall(pass, call) {
			return true
		}
		for _, arg := range call.Args {
			ast.Inspect(arg, func(an ast.Node) bool {
				if e, ok := an.(ast.Expr); ok && types.ExprString(e) == targetStr {
					sorted = true
				}
				return !sorted
			})
			if sorted {
				break
			}
		}
		return !sorted
	})
	return sorted
}

// isSortCall recognizes sorting routines: package sort/slices
// functions and local sort* helpers.
func isSortCall(pass *framework.Pass, call *ast.CallExpr) bool {
	switch fun := call.Fun.(type) {
	case *ast.SelectorExpr:
		fn, ok := pass.TypesInfo.Uses[fun.Sel].(*types.Func)
		if !ok || fn.Pkg() == nil {
			return false
		}
		if p := fn.Pkg().Path(); p == "sort" || p == "slices" {
			return true
		}
		return strings.HasPrefix(fun.Sel.Name, "Sort") || strings.HasPrefix(fun.Sel.Name, "sort")
	case *ast.Ident:
		return strings.HasPrefix(fun.Name, "sort") || strings.HasPrefix(fun.Name, "Sort")
	}
	return false
}
