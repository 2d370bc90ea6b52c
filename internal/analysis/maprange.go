package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// MapRange flags nondeterministic map iteration: Go randomizes map order
// per run, so map-range values flowing into an order-sensitive sink break
// the "same seed ⇒ byte-identical output" contract. Three rules, all
// intraprocedural:
//
//  1. Arbitrary pick: a map-range body that can never reach the loop's back
//     edge (it always breaks/returns on its first pass) while binding and
//     using the key or value consumes one arbitrary element.
//  2. Ordered effects in the body: calling a scheduling, tracing, metrics,
//     or printing sink inside a map-range body emits effects in randomized
//     order, whether or not the arguments are tainted.
//  3. Unsorted accumulation: appending map-derived values to a slice that
//     reaches a return without an intervening sort.* call hands randomized
//     order to the caller. The sanctioned append-then-sort idiom kills the
//     taint; keyed stores (m[k] = append(...)) are exempt because lookup
//     order, not insertion order, determines later reads.
//
// Taint propagates through locals via the forward-dataflow lattice: range
// Key/Value bindings (and ranges over already-tainted slices) gen variable
// taint, assignments propagate it, and sorting kills slice taint.
var MapRange = &Analyzer{
	Name:      "maprange",
	Kind:      "dataflow",
	Directive: "maporder",
	Doc:       "flag map iteration whose randomized order reaches an order-sensitive sink",
	Run:       runMapRange,
}

// varTaint marks a variable holding a value derived from map iteration.
type varTaint struct{ v *types.Var }

// sliceTaint marks a canonical lvalue (e.g. "out", "rep.Components")
// accumulating map-derived appends, first appended at pos, not yet sorted.
type sliceTaint struct {
	path string
	pos  token.Pos
}

// mapRangeSinks are order-sensitive callees for rule 2, keyed by module
// package, receiver type ("" for package functions), and method name.
type sinkKey struct{ pkg, recv, name string }

var moduleSinks = map[sinkKey]bool{
	{"internal/sim", "Proc", "Sleep"}:            true,
	{"internal/sim", "Proc", "Wait"}:             true,
	{"internal/sim", "Proc", "WaitAny"}:          true,
	{"internal/sim", "Proc", "Yield"}:            true,
	{"internal/sim", "Env", "Go"}:                true,
	{"internal/sim", "Env", "At"}:                true,
	{"internal/sim", "Env", "After"}:             true,
	{"internal/trace", "Tracer", "Start"}:        true,
	{"internal/trace", "Tracer", "StartSpan"}:    true,
	{"internal/trace", "Tracer", "Instant"}:      true,
	{"internal/trace", "Tracer", "Mark"}:         true,
	{"internal/trace", "Span", "Close"}:          true,
	{"internal/metrics", "Gauge", "Add"}:         true,
	{"internal/metrics", "Gauge", "Set"}:         true,
	{"internal/metrics", "Histogram", "Observe"}: true,
}

// fmtSinks are the stdlib printing functions that emit in call order.
var fmtSinks = stringSet(
	"Print", "Printf", "Println", "Fprint", "Fprintf", "Fprintln",
)

func runMapRange(pass *Pass) {
	for _, f := range pass.Pkg.Files {
		funcBodies(f, func(_ string, body *ast.BlockStmt) {
			checkMapRange(pass, body)
		})
	}
}

// isMapRange reports whether rs ranges over a map.
func isMapRange(info *types.Info, rs *ast.RangeStmt) bool {
	tv, ok := info.Types[rs.X]
	if !ok || tv.Type == nil {
		return false
	}
	_, isMap := tv.Type.Underlying().(*types.Map)
	return isMap
}

// isOrderSink reports whether call invokes an order-sensitive effect.
func isOrderSink(pass *Pass, call *ast.CallExpr) (string, bool) {
	fn := calleeFunc(pass.Pkg.Info, call)
	if fn == nil {
		return "", false
	}
	if fn.Pkg() != nil && fn.Pkg().Path() == "fmt" && fmtSinks[fn.Name()] && receiverNamed(fn) == nil {
		return "fmt." + fn.Name(), true
	}
	recv := receiverNamed(fn)
	if recv == nil || recv.Obj().Pkg() == nil {
		return "", false
	}
	pkg := relPath(pass.Module, recv.Obj().Pkg().Path())
	if moduleSinks[sinkKey{pkg, recv.Obj().Name(), fn.Name()}] {
		return recv.Obj().Name() + "." + fn.Name(), true
	}
	return "", false
}

// rangeVars returns the non-blank key/value variables a range binds.
func rangeVars(info *types.Info, rs *ast.RangeStmt) []*types.Var {
	var vars []*types.Var
	for _, e := range []ast.Expr{rs.Key, rs.Value} {
		id, ok := e.(*ast.Ident)
		if !ok || id.Name == "_" {
			continue
		}
		obj := info.Defs[id]
		if obj == nil {
			obj = info.Uses[id]
		}
		if v, ok := obj.(*types.Var); ok {
			vars = append(vars, v)
		}
	}
	return vars
}

// lvaluePath renders an assignable expression as a canonical dotted path
// ("out", "rep.Components"), or "" for non-canonical targets — index
// expressions, dereferences, calls — which rule 3 exempts.
func lvaluePath(info *types.Info, e ast.Expr) string {
	switch e := e.(type) {
	case *ast.Ident:
		obj := info.Uses[e]
		if obj == nil {
			obj = info.Defs[e]
		}
		if _, ok := obj.(*types.Var); ok {
			return e.Name
		}
	case *ast.SelectorExpr:
		if base := lvaluePath(info, e.X); base != "" {
			return base + "." + e.Sel.Name
		}
	case *ast.ParenExpr:
		return lvaluePath(info, e.X)
	}
	return ""
}

// exprTainted reports whether e mentions a tainted variable (outside nested
// function literals).
func exprTainted(info *types.Info, e ast.Expr, in factSet) bool {
	tainted := false
	ast.Inspect(e, func(n ast.Node) bool {
		if tainted {
			return false
		}
		if _, ok := n.(*ast.FuncLit); ok {
			return false
		}
		if id, ok := n.(*ast.Ident); ok {
			if v, ok := info.Uses[id].(*types.Var); ok && in[varTaint{v}] {
				tainted = true
			}
		}
		return true
	})
	return tainted
}

// pathTainted reports whether e is a canonical path carrying slice taint.
func pathTainted(info *types.Info, e ast.Expr, in factSet) bool {
	path := lvaluePath(info, e)
	if path == "" {
		return false
	}
	for f := range in {
		if st, ok := f.(sliceTaint); ok && st.path == path {
			return true
		}
	}
	return false
}

// killSlicePath removes all slice-taint facts for path (clone-on-write).
func killSlicePath(in factSet, path string) factSet {
	out := in
	copied := false
	for f := range in {
		if st, ok := f.(sliceTaint); ok && st.path == path {
			if !copied {
				out = in.clone()
				copied = true
			}
			delete(out, f)
		}
	}
	return out
}

// isSortCall reports whether call is a sort.* or slices.Sort* invocation.
func isSortCall(info *types.Info, call *ast.CallExpr) bool {
	fn := calleeFunc(info, call)
	if fn == nil || fn.Pkg() == nil {
		return false
	}
	switch fn.Pkg().Path() {
	case "sort":
		return true
	case "slices":
		return strings.HasPrefix(fn.Name(), "Sort")
	}
	return false
}

func checkMapRange(pass *Pass, body *ast.BlockStmt) {
	info := pass.Pkg.Info
	g := buildCFG(body, info)

	// Rules 1 and 2: structural checks per map range. Function literals are
	// skipped — funcBodies analyzes each as its own function.
	reported := make(map[token.Pos]bool)
	inspectShallowStmts(body, func(n ast.Node) bool {
		rs, ok := n.(*ast.RangeStmt)
		if !ok || !isMapRange(info, rs) {
			return true
		}
		ri := g.ranges[rs]
		vars := rangeVars(info, rs)
		if ri != nil && !ri.backEdge && len(vars) > 0 && usesAny(info, rs.Body, vars) {
			if !reported[rs.For] {
				reported[rs.For] = true
				pass.Report(rs.For,
					"map range executes its body at most once, consuming an arbitrary element of a randomized iteration order; pick deterministically (e.g. the smallest key) or annotate //pcsi:allow maporder")
			}
		}
		inspectShallowStmts(rs.Body, func(m ast.Node) bool {
			call, ok := m.(*ast.CallExpr)
			if !ok {
				return true
			}
			if name, ok := isOrderSink(pass, call); ok && !reported[call.Pos()] {
				reported[call.Pos()] = true
				pass.Report(call.Pos(),
					"%s inside a map range emits effects in randomized map-iteration order; iterate a sorted key slice instead, or annotate //pcsi:allow maporder", name)
			}
			return true
		})
		return true
	})

	// Rule 3: dataflow — unsorted map-derived accumulation reaching a return.
	tf := func(n ast.Node, in factSet) factSet {
		out := in
		// Sorting a path discharges its taint wherever the call appears.
		inspectShallow(n, func(m ast.Node) bool {
			call, ok := m.(*ast.CallExpr)
			if !ok || !isSortCall(info, call) {
				return true
			}
			for _, arg := range call.Args {
				ast.Inspect(arg, func(a ast.Node) bool {
					if e, ok := a.(ast.Expr); ok {
						if path := lvaluePath(info, e); path != "" {
							out = killSlicePath(out, path)
						}
					}
					return true
				})
			}
			return true
		})
		switch n := n.(type) {
		case *ast.RangeStmt:
			// Header: ranging a map — or an already-tainted slice — taints
			// the key/value bindings.
			if isMapRange(info, n) || exprTainted(info, n.X, out) || pathTainted(info, n.X, out) {
				for _, v := range rangeVars(info, n) {
					out = out.clone()
					out[varTaint{v}] = true
				}
			}
		case *ast.AssignStmt:
			if len(n.Lhs) != len(n.Rhs) {
				break
			}
			for i, lhs := range n.Lhs {
				rhs := n.Rhs[i]
				path := lvaluePath(info, lhs)
				tainted := exprTainted(info, rhs, out) || pathTainted(info, rhs, out)
				if call, ok := ast.Unparen(rhs).(*ast.CallExpr); ok && isAppendCall(info, call) {
					if path == "" {
						continue // keyed/indexed store: exempt
					}
					if tainted {
						if !hasSlicePath(out, path) {
							out = out.clone()
							out[sliceTaint{path: path, pos: call.Pos()}] = true
						}
					}
					continue // untainted append leaves existing taint as is
				}
				if path != "" && !tainted {
					out = killSlicePath(out, path)
				}
				if id, ok := lhs.(*ast.Ident); ok {
					obj := info.Defs[id]
					if obj == nil {
						obj = info.Uses[id]
					}
					if v, ok := obj.(*types.Var); ok {
						out = out.clone()
						if tainted {
							out[varTaint{v}] = true
						} else {
							delete(out, varTaint{v})
						}
						// A tainted slice flowing into a fresh name stays
						// tainted under the new path.
						if pathTainted(info, rhs, out) && path != "" && !hasSlicePath(out, path) {
							out[sliceTaint{path: path, pos: rhs.Pos()}] = true
						}
					}
				}
			}
		}
		return out
	}

	in := forwardDataflow(g, tf)
	leaks := make(map[sliceTaint]bool)
	collect := func(facts factSet) {
		for f := range facts {
			if st, ok := f.(sliceTaint); ok {
				leaks[st] = true
			}
		}
	}
	replay(g, in, tf, func(n ast.Node, before factSet) {
		if _, ok := n.(*ast.ReturnStmt); ok {
			collect(before)
		}
	})
	if final := finalFacts(g, in, tf); final != nil {
		collect(final)
	}

	var sorted []sliceTaint
	for st := range leaks {
		sorted = append(sorted, st)
	}
	sort.Slice(sorted, func(i, j int) bool {
		if sorted[i].pos != sorted[j].pos {
			return sorted[i].pos < sorted[j].pos
		}
		return sorted[i].path < sorted[j].path
	})
	// Report each accumulation once, at its first append, keeping only the
	// earliest fact per path.
	seenPath := make(map[string]bool)
	for _, st := range sorted {
		if seenPath[st.path] {
			continue
		}
		seenPath[st.path] = true
		pass.Report(st.pos,
			"%s accumulates values from a map range (iteration order is randomized per run) and reaches a return unsorted; sort it before use (append-then-sort) or annotate //pcsi:allow maporder", st.path)
	}
}

// hasSlicePath reports whether facts already track path.
func hasSlicePath(in factSet, path string) bool {
	for f := range in {
		if st, ok := f.(sliceTaint); ok && st.path == path {
			return true
		}
	}
	return false
}

// isAppendCall reports whether call is the append builtin.
func isAppendCall(info *types.Info, call *ast.CallExpr) bool {
	id, ok := ast.Unparen(call.Fun).(*ast.Ident)
	if !ok {
		return false
	}
	bi, ok := info.Uses[id].(*types.Builtin)
	return ok && bi.Name() == "append"
}

// usesAny reports whether body mentions any of vars outside nested function
// literals.
func usesAny(info *types.Info, body ast.Node, vars []*types.Var) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		if found {
			return false
		}
		if _, ok := n.(*ast.FuncLit); ok {
			return false
		}
		if id, ok := n.(*ast.Ident); ok {
			obj := info.Uses[id]
			for _, v := range vars {
				if obj == v {
					found = true
				}
			}
		}
		return true
	})
	return found
}

// inspectShallowStmts walks a statement subtree skipping nested function
// literal bodies (they execute later, under their own analysis).
func inspectShallowStmts(root ast.Node, f func(ast.Node) bool) {
	ast.Inspect(root, func(n ast.Node) bool {
		if n == nil {
			return false
		}
		if _, ok := n.(*ast.FuncLit); ok {
			return false
		}
		return f(n)
	})
}
