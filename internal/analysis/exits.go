package analysis

// exits.go is what maprange and spanbalance share in place of a
// control-flow graph: an obligation that starts at position A (close this
// span, sort this slice) holds at an exit X when a statement discharging
// it sits directly in a block that encloses X, after A and before X. A
// discharge nested in an if or a loop does not count. The rules see source
// order, not paths: an exit reached only through a loop's back edge from
// before A is not checked.

import (
	"go/ast"
	"go/token"
	"go/types"
	"slices"
)

// eachBody makes an analyzer's Run from check, called on every function
// body in the package: each declared function and each function literal.
// A literal's body is its own function to the rules, which skip it inside
// the enclosing one.
func eachBody(check func(*Pass, *ast.BlockStmt)) func(*Pass) {
	return func(pass *Pass) {
		for _, f := range pass.Pkg.Files {
			ast.Inspect(f, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.FuncDecl:
					if n.Body != nil {
						check(pass, n.Body)
					}
				case *ast.FuncLit:
					check(pass, n.Body)
				}
				return true
			})
		}
	}
}

// inspectShallow walks root like ast.Inspect but does not descend into
// function literals nested in it: they run later, as their own functions.
func inspectShallow(root ast.Node, f func(ast.Node) bool) {
	ast.Inspect(root, func(n ast.Node) bool {
		if n == nil {
			return false
		}
		if _, ok := n.(*ast.FuncLit); ok && n != root {
			return false
		}
		return f(n)
	})
}

// builtinCall returns the name of the builtin e calls, or "".
func builtinCall(info *types.Info, e ast.Expr) string {
	call, ok := ast.Unparen(e).(*ast.CallExpr)
	if !ok {
		return ""
	}
	id, _ := ast.Unparen(call.Fun).(*ast.Ident)
	if bi, ok := info.Uses[id].(*types.Builtin); ok {
		return bi.Name()
	}
	return ""
}

// varOf returns the variable id declares or refers to, or nil.
func varOf(info *types.Info, id *ast.Ident) *types.Var {
	obj := info.Defs[id]
	if obj == nil {
		obj = info.Uses[id]
	}
	v, _ := obj.(*types.Var)
	return v
}

// exit is one way out of a variable's scope: a return, a panic, a branch
// to a statement outside the scope, or falling off the scope's end.
type exit struct {
	pos  token.Pos
	what string // "return path", "panic path", ...
}

// unmet returns the exits of v's scope in body, after position a, that no
// statement matching done covers: none sits directly in a block enclosing
// the exit, after a and before the exit. Returns and the scope's end are
// always exits; abrupt adds panics and the branches that leave the scope.
func unmet(info *types.Info, body *ast.BlockStmt, v *types.Var, a token.Pos, abrupt bool, done func(ast.Stmt) bool) []exit {
	list, lo, hi := scopeOf(info, body, v)
	var out []exit
	check := func(n ast.Node, what string) {
		if n.Pos() > a && n.Pos() >= lo && n.Pos() < hi && !covered(body, a, n.Pos(), done) {
			out = append(out, exit{n.Pos(), what})
		}
	}
	inspectShallow(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.ReturnStmt:
			check(n, "return path")
		case *ast.ExprStmt:
			if abrupt && builtinCall(info, n.X) == "panic" {
				check(n, "panic path")
			}
		}
		return true
	})
	if abrupt {
		jumps(body, func(br *ast.BranchStmt, to ast.Node) {
			if to == nil || to.Pos() < lo || to.Pos() >= hi {
				check(br, "branch path")
			}
		})
	}
	if list != nil && !endsAbruptly(info, list) && !slices.ContainsFunc(list, func(st ast.Stmt) bool { return st.Pos() > a && done(st) }) {
		x := exit{hi, "end-of-scope path"}
		if lo == body.Pos() {
			x = exit{body.Rbrace, "fall-off-the-end path"}
		}
		out = append(out, x)
	}
	return out
}

// covered reports whether a statement matching done sits directly in a
// block enclosing x, after a and before x.
func covered(body *ast.BlockStmt, a, x token.Pos, done func(ast.Stmt) bool) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		if found || n == nil || n.Pos() > x || n.End() <= x {
			return false
		}
		for _, st := range stmtList(n) {
			found = found || st.Pos() > a && st.End() <= x && done(st)
		}
		return true
	})
	return found
}

// stmtList returns the statements directly in n when n is a block or a
// case body, or nil.
func stmtList(n ast.Node) []ast.Stmt {
	switch n := n.(type) {
	case *ast.BlockStmt:
		return n.List
	case *ast.CaseClause:
		return n.Body
	case *ast.CommClause:
		return n.Body
	}
	return nil
}

// scopeOf returns the statement list that v's scope covers in body, and
// the scope's source range. A parameter, a package variable or a variable
// declared at the top of body has body as its scope. A variable declared
// in an if, for or switch header has no list of its own (nil).
func scopeOf(info *types.Info, body *ast.BlockStmt, v *types.Var) ([]ast.Stmt, token.Pos, token.Pos) {
	s := v.Parent()
	if s == nil || !s.Pos().IsValid() || (s.Pos() <= body.Pos() && body.End() <= s.End()) {
		return body.List, body.Pos(), body.End()
	}
	var list []ast.Stmt
	inspectShallow(body, func(n ast.Node) bool {
		if info.Scopes[n] == s {
			list = stmtList(n)
		}
		return list == nil
	})
	hi := s.End()
	if n := len(list); n > 0 {
		hi = list[n-1].End()
	}
	return list, s.Pos(), hi
}

// endsAbruptly reports whether control cannot fall off the end of list:
// its last statement returns, panics or branches.
func endsAbruptly(info *types.Info, list []ast.Stmt) bool {
	if len(list) == 0 {
		return false
	}
	switch last := list[len(list)-1].(type) {
	case *ast.ReturnStmt, *ast.BranchStmt:
		return true
	case *ast.ExprStmt:
		return builtinCall(info, last.X) == "panic"
	}
	return false
}

// jumps calls visit for each break, continue, goto and fallthrough in root
// outside function literals, with the statement it jumps to: the labeled
// statement, or the innermost loop or switch. to is nil when that lies
// outside root or is a label further down.
func jumps(root ast.Node, visit func(br *ast.BranchStmt, to ast.Node)) {
	var stack []ast.Node // the nodes enclosing the one visited
	labels := make(map[string]ast.Node)
	ast.Inspect(root, func(n ast.Node) bool {
		switch n := n.(type) {
		case nil:
			stack = stack[:len(stack)-1]
			return true
		case *ast.FuncLit:
			return false
		case *ast.LabeledStmt:
			labels[n.Label.Name] = n.Stmt
		case *ast.BranchStmt:
			var to ast.Node
			if n.Label != nil {
				to = labels[n.Label.Name]
			}
			for i := len(stack) - 1; i >= 0 && n.Label == nil && to == nil; i-- {
				switch stack[i].(type) {
				case *ast.ForStmt, *ast.RangeStmt:
					if n.Tok != token.FALLTHROUGH {
						to = stack[i]
					}
				case *ast.SwitchStmt, *ast.TypeSwitchStmt, *ast.SelectStmt:
					if n.Tok != token.CONTINUE {
						to = stack[i]
					}
				}
			}
			visit(n, to)
		}
		stack = append(stack, n)
		return true
	})
}
