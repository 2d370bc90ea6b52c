package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"slices"
	"strings"
)

// MapRange flags nondeterministic map iteration, which breaks the "same
// seed ⇒ byte-identical output" contract. Three rules within one function:
//
//  1. Arbitrary pick: a map-range body that ends in a return, break or
//     panic, with no continue targeting the loop, and uses the key or
//     value consumes one arbitrary element.
//  2. Ordered effects: a scheduling, tracing, metrics, or printing sink
//     called inside a map-range body emits effects in randomized order.
//  3. Unsorted accumulation: a slice appended map-derived values needs a
//     sort.* or slices.Sort* call of it covering each return, and the end
//     of its scope, after the append (exits.go). Keyed stores
//     (m[k] = append(...)) are exempt: lookup order, not insertion order,
//     determines later reads.
//
// Taint is closed over the function's assignments in any order: the
// bindings of a map range, or of a range over an accumulated slice not yet
// sorted there, and every variable assigned an expression mentioning a
// tainted one.
var MapRange = &Analyzer{
	Name:      "maprange",
	Directive: "maporder",
	Doc:       "flag map iteration whose randomized order reaches an order-sensitive sink",
	Run:       eachBody(checkMapRange),
}

// orderSinks are rule 2's callees: module methods as
// "<package>.<receiver>.<method>", and fmt's printing functions.
var orderSinks = stringSet(
	"internal/sim.Proc.Sleep", "internal/sim.Proc.Wait", "internal/sim.Proc.WaitAny",
	"internal/sim.Env.Go", "internal/sim.Env.After",
	"internal/trace.Tracer.Start", "internal/trace.Tracer.StartSpan",
	"internal/trace.Tracer.Instant", "internal/trace.Tracer.Mark", "internal/trace.Span.Close",
	"internal/metrics.Gauge.Add", "internal/metrics.Gauge.Set", "internal/metrics.Histogram.Observe",
	"fmt.Print", "fmt.Printf", "fmt.Println", "fmt.Fprint", "fmt.Fprintf", "fmt.Fprintln",
)

// isMapRange reports whether rs ranges over a map.
func isMapRange(info *types.Info, rs *ast.RangeStmt) bool {
	t := info.TypeOf(rs.X)
	if t == nil {
		return false
	}
	_, ok := t.Underlying().(*types.Map)
	return ok
}

// orderSink returns the name of the order-sensitive effect call invokes,
// or "".
func orderSink(pass *Pass, call *ast.CallExpr) string {
	fn := calleeFunc(pass.Pkg.Info, call)
	if fn == nil || fn.Pkg() == nil {
		return ""
	}
	name, recv := fn.Name(), receiverNamed(fn)
	if recv != nil {
		name = recv.Obj().Name() + "." + name
	}
	switch key := relPath(pass.Module, fn.Pkg().Path()) + "." + name; {
	case !orderSinks[key]:
		return ""
	case recv == nil:
		return key
	}
	return name
}

// lvalue renders an identifier or a chain of field selections on one as a
// path ("out", "rep.Components") with the variable it hangs off. Index
// expressions, dereferences and calls have no path (""), which exempts
// them from rule 3.
func lvalue(info *types.Info, e ast.Expr) (string, *types.Var) {
	switch e := ast.Unparen(e).(type) {
	case *ast.Ident:
		if v := varOf(info, e); v != nil {
			return e.Name, v
		}
	case *ast.SelectorExpr:
		if base, v := lvalue(info, e.X); v != nil {
			return base + "." + e.Sel.Name, v
		}
	}
	return "", nil
}

// mentions reports whether e refers to a variable in vars (outside nested
// function literals).
func mentions(info *types.Info, e ast.Node, vars func(*types.Var) bool) bool {
	found := false
	inspectShallow(e, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok {
			if v, ok := info.Uses[id].(*types.Var); ok && vars(v) {
				found = true
			}
		}
		return !found
	})
	return found
}

// sortsPath reports whether st is a sort.* or slices.Sort* call with path
// among its arguments.
func sortsPath(info *types.Info, st ast.Stmt, path string) bool {
	var call *ast.CallExpr
	if es, ok := st.(*ast.ExprStmt); ok {
		call, _ = es.X.(*ast.CallExpr)
	}
	if call == nil || !isSortCall(info, call) {
		return false
	}
	found := false
	for _, arg := range call.Args {
		ast.Inspect(arg, func(n ast.Node) bool {
			if e, ok := n.(ast.Expr); ok {
				p, _ := lvalue(info, e)
				found = found || p == path
			}
			return !found
		})
	}
	return found
}

// isSortCall reports whether call is a sort.* or slices.Sort* invocation.
func isSortCall(info *types.Info, call *ast.CallExpr) bool {
	fn := calleeFunc(info, call)
	if fn == nil || fn.Pkg() == nil {
		return false
	}
	path := fn.Pkg().Path()
	return path == "sort" || path == "slices" && strings.HasPrefix(fn.Name(), "Sort")
}

func checkMapRange(pass *Pass, body *ast.BlockStmt) {
	info := pass.Pkg.Info

	// Rules 1 and 2: structural checks per map range. A sink call inside
	// nested map ranges is reported once.
	continued := make(map[ast.Node]bool)
	jumps(body, func(br *ast.BranchStmt, to ast.Node) {
		continued[to] = continued[to] || br.Tok == token.CONTINUE
	})
	sinks := make(map[token.Pos]bool)
	inspectShallow(body, func(n ast.Node) bool {
		rs, ok := n.(*ast.RangeStmt)
		if !ok || !isMapRange(info, rs) {
			return true
		}
		_, key := lvalue(info, rs.Key)
		_, value := lvalue(info, rs.Value)
		bound := func(v *types.Var) bool { return v == key || v == value }
		if endsAbruptly(info, rs.Body.List) && !continued[rs] && mentions(info, rs.Body, bound) {
			pass.Report(rs.For,
				"map range executes its body at most once, consuming an arbitrary element of a randomized iteration order; pick deterministically (e.g. the smallest key) or annotate //pcsi:allow maporder")
		}
		inspectShallow(rs.Body, func(m ast.Node) bool {
			if call, ok := m.(*ast.CallExpr); ok && !sinks[call.Pos()] {
				if name := orderSink(pass, call); name != "" {
					sinks[call.Pos()] = true
					pass.Report(call.Pos(),
						"%s inside a map range emits effects in randomized map-iteration order; iterate a sorted key slice instead, or annotate //pcsi:allow maporder", name)
				}
			}
			return true
		})
		return true
	})

	// Rule 3: close taint over the function's assignments. sites holds
	// each path's tainted appends, and the copies of a tainted path into
	// it; roots the variable each path hangs off.
	tainted := make(map[*types.Var]bool)
	sites := make(map[string][]token.Pos)
	roots := make(map[string]*types.Var)
	sorted := func(path string) func(ast.Stmt) bool {
		return func(st ast.Stmt) bool { return sortsPath(info, st, path) }
	}
	// unsortedAt reports whether e is a path some site before x leaves
	// unsorted at x.
	unsortedAt := func(e ast.Expr, x token.Pos) bool {
		path, _ := lvalue(info, e)
		return slices.ContainsFunc(sites[path], func(a token.Pos) bool { return a < x && !covered(body, a, x, sorted(path)) })
	}
	changed := true
	taint := func(e ast.Expr) {
		if id, ok := e.(*ast.Ident); ok {
			if v := varOf(info, id); v != nil && !tainted[v] {
				tainted[v], changed = true, true
			}
		}
	}
	addSite := func(lhs ast.Expr, a token.Pos) {
		if path, root := lvalue(info, lhs); root != nil && !slices.Contains(sites[path], a) {
			sites[path] = append(sites[path], a)
			roots[path], changed = root, true
		}
	}
	isTainted := func(v *types.Var) bool { return tainted[v] }
	for changed {
		changed = false
		inspectShallow(body, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.RangeStmt:
				if isMapRange(info, n) || mentions(info, n.X, isTainted) || unsortedAt(n.X, n.Pos()) {
					taint(n.Key)
					taint(n.Value)
				}
			case *ast.AssignStmt:
				for i := 0; len(n.Lhs) == len(n.Rhs) && i < len(n.Lhs); i++ {
					lhs, rhs := n.Lhs[i], n.Rhs[i]
					switch {
					case builtinCall(info, rhs) == "append":
						if mentions(info, rhs, isTainted) {
							addSite(lhs, ast.Unparen(rhs).Pos())
						}
					case unsortedAt(rhs, n.Pos()):
						addSite(lhs, rhs.Pos())
						taint(lhs)
					case mentions(info, rhs, isTainted):
						taint(lhs)
					}
				}
			}
			return true
		})
	}

	// Report each path once, at its first site that an exit leaves
	// unsorted. Run sorts what is reported.
	for path, as := range sites {
		slices.Sort(as)
		for _, a := range as {
			if len(unmet(info, body, roots[path], a, false, sorted(path))) > 0 {
				pass.Report(a,
					"%s accumulates values from a map range (iteration order is randomized per run) and reaches a return unsorted; sort it before use (append-then-sort) or annotate //pcsi:allow maporder", path)
				break
			}
		}
	}
}
