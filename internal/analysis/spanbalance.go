package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
)

// SpanBalance requires a trace span a function opens with
// Tracer.Start/StartSpan to be closed on every way out — each return,
// explicit panic, branch out of the span variable's scope, and the scope's
// end — by a Close directly in a block enclosing it (exits.go), or by a
// deferred Close. A leaked span silently stretches to the end of the run
// and corrupts the critical-path analysis. Only spans held in locals whose
// every use is a method receiver, an assignment target or a nil comparison
// are tracked: a span returned, passed on or stored is its consumer's to
// close.
var SpanBalance = &Analyzer{
	Name:      "spanbalance",
	Directive: "spanleak",
	Doc:       "require every trace span Start to be Closed on all return and panic paths",
	Run:       eachBody(checkSpanBalance),
}

// isSpanStart reports whether e is a call opening a trace span.
func isSpanStart(pass *Pass, e ast.Expr) bool {
	call, ok := e.(*ast.CallExpr)
	if !ok {
		return false
	}
	fn := calleeFunc(pass.Pkg.Info, call)
	return isModuleMethod(pass, fn, "internal/trace", "Tracer", "Start") ||
		isModuleMethod(pass, fn, "internal/trace", "Tracer", "StartSpan")
}

// closedVar returns the variable whose span n closes, when n is a Close
// call on an identifier, or nil.
func closedVar(pass *Pass, n ast.Node) *types.Var {
	call, ok := n.(*ast.CallExpr)
	if !ok || !isModuleMethod(pass, calleeFunc(pass.Pkg.Info, call), "internal/trace", "Span", "Close") {
		return nil
	}
	id, _ := ast.Unparen(call.Fun).(*ast.SelectorExpr).X.(*ast.Ident)
	return varOf(pass.Pkg.Info, id)
}

const discarded = "trace span is started and immediately discarded; bind it and Close it on every path, or annotate //pcsi:allow spanleak"

func checkSpanBalance(pass *Pass, body *ast.BlockStmt) {
	info := pass.Pkg.Info

	// A span variable is tracked only while its every use is a method
	// receiver, an assignment target or a nil comparison. Any other use
	// (argument, return value, field store, composite literal) hands the
	// close obligation to someone else. Each Start bound to a tracked
	// local is one obligation, unless a Close of that local is deferred.
	kept := make(map[ast.Expr]bool)
	untracked := make(map[*types.Var]bool)
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.SelectorExpr:
			kept[n.X] = true
		case *ast.AssignStmt:
			for _, lhs := range n.Lhs {
				kept[lhs] = true
			}
		case *ast.BinaryExpr:
			if n.Op == token.EQL || n.Op == token.NEQ {
				kept[n.X] = kept[n.X] || info.Types[n.Y].IsNil()
				kept[n.Y] = kept[n.Y] || info.Types[n.X].IsNil()
			}
		case *ast.DeferStmt:
			ast.Inspect(n, func(m ast.Node) bool {
				untracked[closedVar(pass, m)] = true
				return true
			})
		case *ast.Ident:
			if v, ok := info.Uses[n].(*types.Var); ok && !kept[n] {
				untracked[v] = true
			}
		}
		return true
	})
	inspectShallow(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.ExprStmt:
			if isSpanStart(pass, n.X) {
				pass.Report(n.X.Pos(), discarded)
			}
		case *ast.AssignStmt:
			for i := 0; len(n.Lhs) == len(n.Rhs) && i < len(n.Lhs); i++ {
				checkSpanBinding(pass, body, n.Lhs[i], n.Rhs[i], untracked)
			}
		case *ast.ValueSpec:
			for i := range n.Values {
				checkSpanBinding(pass, body, n.Names[i], n.Values[i], untracked)
			}
		}
		return true
	})
}

// checkSpanBinding reports the exits that leave a span bound by lhs = rhs
// open.
func checkSpanBinding(pass *Pass, body *ast.BlockStmt, lhs, rhs ast.Expr, untracked map[*types.Var]bool) {
	id, _ := lhs.(*ast.Ident)
	if id == nil || !isSpanStart(pass, rhs) {
		return
	}
	if id.Name == "_" {
		pass.Report(rhs.Pos(), discarded)
		return
	}
	v := varOf(pass.Pkg.Info, id)
	if v == nil || untracked[v] {
		return
	}
	closed := func(st ast.Stmt) bool {
		es, ok := st.(*ast.ExprStmt)
		return ok && closedVar(pass, es.X) == v
	}
	for _, x := range unmet(pass.Pkg.Info, body, v, rhs.Pos(), true, closed) {
		pass.Report(x.pos, "trace span %s opened at line %d may still be open on this %s; Close it (or defer its Close) on every path, or annotate //pcsi:allow spanleak",
			v.Name(), pass.Fset.Position(rhs.Pos()).Line, x.what)
	}
}
