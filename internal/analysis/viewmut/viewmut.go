// Package viewmut implements the salint analyzer for the shmem read-only
// view rule.
//
// A slice obtained from Scan or TryScan is a snapshot *view*: backends
// return their immutable current version copy-free (register.LockFree), and
// MW snapshots embed views in written cells. One stray store through such a
// slice is silent cross-proposer corruption that the race detector can
// miss — the write may race with nothing while still rewriting another
// process's past scan. DESIGN.md states the rule as prose
// ("internal/shmem/doc.go: views are read-only"); this analyzer is its
// mechanical form.
//
// The check is a per-function forward taint pass. Tainted sources:
//
//   - results of calls named Scan/TryScan whose result is a
//     []shmem.Value (any receiver — the rule holds through every wrapper),
//   - parameters of type []shmem.Value (a view handed to a helper is still
//     a view: scanutil's helpers are checked this way).
//
// Taint propagates through assignment, re-slicing and parenthesization, and
// dies on reassignment from an untainted expression (v = make(...) starts a
// fresh private buffer). Flagged sinks: element stores (v[i] = x, v[i]++,
// v[i] += x), copy with a tainted destination, append to a tainted slice
// (append may store in place when capacity allows), and taking the address
// of a view element (an escape hatch for all of the above).
package viewmut

import (
	"go/ast"
	"go/token"
	"go/types"

	"setagreement/internal/analysis"
)

// Analyzer flags writes through snapshot views.
var Analyzer = &analysis.Analyzer{
	Name: "viewmut",
	Doc:  "flag writes through []shmem.Value snapshot views (read-only view rule)",
	Run:  run,
}

func run(pass *analysis.Pass) error {
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			if fd, ok := decl.(*ast.FuncDecl); ok && fd.Body != nil {
				checkFunc(pass, fd.Type, fd.Body)
			}
		}
	}
	return nil
}

// checkFunc runs the taint pass over one function body. Function literals
// nested in the body share the surrounding taint state (a captured view is
// still a view), with their own parameters seeded as they are reached.
func checkFunc(pass *analysis.Pass, ftype *ast.FuncType, body *ast.BlockStmt) {
	tainted := map[types.Object]bool{}
	seedParams(pass, ftype, tainted)
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			seedParams(pass, n.Type, tainted)
		case *ast.AssignStmt:
			checkAssign(pass, n, tainted)
		case *ast.IncDecStmt:
			if idx, ok := ast.Unparen(n.X).(*ast.IndexExpr); ok {
				checkIndexWrite(pass, idx, tainted)
			}
		case *ast.CallExpr:
			checkCall(pass, n, tainted)
		case *ast.UnaryExpr:
			if n.Op != token.AND {
				return true
			}
			if idx, ok := ast.Unparen(n.X).(*ast.IndexExpr); ok && taintedExpr(pass, idx.X, tainted) {
				pass.Reportf(n.Pos(), "taking the address of an element of snapshot view %s — views are read-only", exprName(idx.X))
			}
		}
		return true
	})
}

// seedParams taints every []shmem.Value parameter.
func seedParams(pass *analysis.Pass, ftype *ast.FuncType, tainted map[types.Object]bool) {
	if ftype.Params == nil {
		return
	}
	for _, field := range ftype.Params.List {
		for _, name := range field.Names {
			obj := pass.TypesInfo.Defs[name]
			if obj != nil && analysis.IsShmemValueSlice(obj.Type()) {
				tainted[obj] = true
			}
		}
	}
}

// checkAssign reports element stores through tainted slices, then updates
// the taint state with the assignment's data flow.
func checkAssign(pass *analysis.Pass, as *ast.AssignStmt, tainted map[types.Object]bool) {
	for _, lhs := range as.Lhs {
		if idx, ok := ast.Unparen(lhs).(*ast.IndexExpr); ok {
			checkIndexWrite(pass, idx, tainted)
		}
	}
	if as.Tok != token.ASSIGN && as.Tok != token.DEFINE {
		return // compound ops (+= …) never bind a new slice
	}
	switch {
	case len(as.Lhs) == len(as.Rhs):
		for i, lhs := range as.Lhs {
			setTaint(pass, lhs, taintedExpr(pass, as.Rhs[i], tainted), tainted)
		}
	case len(as.Rhs) == 1:
		// view, ok := mem.TryScan(...): the view is result 0; every other
		// result is scalar.
		src := sourceCall(pass, as.Rhs[0])
		for i, lhs := range as.Lhs {
			setTaint(pass, lhs, i == 0 && src, tainted)
		}
	}
}

// checkCall reports copy/append sinks with a tainted first argument.
func checkCall(pass *analysis.Pass, call *ast.CallExpr, tainted map[types.Object]bool) {
	id, ok := ast.Unparen(call.Fun).(*ast.Ident)
	if !ok || len(call.Args) == 0 {
		return
	}
	if b, ok := pass.TypesInfo.Uses[id].(*types.Builtin); ok {
		switch b.Name() {
		case "copy":
			if taintedExpr(pass, call.Args[0], tainted) {
				pass.Reportf(call.Pos(), "copy into snapshot view %s — views are read-only", exprName(call.Args[0]))
			}
		case "append":
			if taintedExpr(pass, call.Args[0], tainted) {
				pass.Reportf(call.Pos(), "append to snapshot view %s may store through the shared backing array — views are read-only", exprName(call.Args[0]))
			}
		}
	}
}

// checkIndexWrite reports v[i] used as a store target for tainted v.
func checkIndexWrite(pass *analysis.Pass, idx *ast.IndexExpr, tainted map[types.Object]bool) {
	if taintedExpr(pass, idx.X, tainted) {
		pass.Reportf(idx.Pos(), "write through snapshot view %s — views are read-only (shmem.Mem.Scan contract)", exprName(idx.X))
	}
}

// setTaint records the new taint of an assignment target (identifiers only:
// stores into fields or elements don't rebind a local).
func setTaint(pass *analysis.Pass, lhs ast.Expr, taint bool, tainted map[types.Object]bool) {
	id, ok := ast.Unparen(lhs).(*ast.Ident)
	if !ok || id.Name == "_" {
		return
	}
	obj := pass.TypesInfo.Defs[id]
	if obj == nil {
		obj = pass.TypesInfo.Uses[id]
	}
	if obj == nil {
		return
	}
	if taint {
		tainted[obj] = true
	} else {
		delete(tainted, obj)
	}
}

// taintedExpr reports whether e evaluates to a tainted view: a tainted
// identifier, a re-slice or parenthesization of one, or a fresh source call.
func taintedExpr(pass *analysis.Pass, e ast.Expr, tainted map[types.Object]bool) bool {
	switch x := ast.Unparen(e).(type) {
	case *ast.Ident:
		obj := pass.TypesInfo.Uses[x]
		return obj != nil && tainted[obj]
	case *ast.SliceExpr:
		return taintedExpr(pass, x.X, tainted)
	case *ast.CallExpr:
		return sourceCall(pass, e)
	}
	return false
}

// sourceCall reports whether e is a call to Scan/TryScan returning a
// view ([]shmem.Value as the sole or first result).
func sourceCall(pass *analysis.Pass, e ast.Expr) bool {
	call, ok := ast.Unparen(e).(*ast.CallExpr)
	if !ok {
		return false
	}
	switch analysis.CalleeName(call) {
	case "Scan", "TryScan":
	default:
		return false
	}
	t := pass.TypesInfo.Types[call].Type
	if tup, ok := t.(*types.Tuple); ok {
		if tup.Len() == 0 {
			return false
		}
		t = tup.At(0).Type()
	}
	return analysis.IsShmemValueSlice(t)
}

// exprName renders a short name for the flagged slice expression.
func exprName(e ast.Expr) string {
	if id := analysis.BaseIdent(e); id != nil {
		return id.Name
	}
	return "view"
}
