package analysis

// hotpath.go polices per-event allocation discipline on the simulator
// engine's hot path. Functions are marked as entry points with a
// //pcsi:hotpath directive in their doc comment (the sim.Env event loop,
// the eventHeap operations, the qos WFQ dispatch); every function the
// call graph can reach from a root is then checked for the allocation
// hazards that, multiplied by millions of events, dominate engine
// throughput. The analyzer is how ROADMAP item 1's perf trajectory stays
// monotone: a future PR cannot quietly put an allocation on the per-event
// path without either fixing it or annotating a reasoned exception.

import (
	"go/ast"
	"go/token"
	"go/types"
)

// HotPath checks every function reachable from a //pcsi:hotpath root for
// per-event allocation hazards: escaping closure captures, append growth
// in loops without preallocation, defer inside loops, interface boxing at
// call sites, string concatenation in loops, and fmt.Sprintf-family calls
// on non-error paths.
var HotPath = &Analyzer{
	Name:      "hotpath",
	Kind:      "interprocedural",
	Directive: "hotpath",
	Doc:       "forbid per-event allocation hazards in functions reachable from //pcsi:hotpath roots",
	Prepare:   prepareCallGraph,
	Run:       runHotPath,
}

// prepareCallGraph builds the whole-program call graph before the
// per-package passes fan out; they read it from the cache.
func prepareCallGraph(pass *Pass) {
	buildCallGraph(pass)
}

// sprintFuncs are the fmt formatting functions that allocate a string.
var sprintFuncs = stringSet("Sprintf", "Sprint", "Sprintln")

// errorCtxFuncs wrap their arguments in error construction; formatting
// inside them is an error path, not a hot path.
var errorCtxFuncs = stringSet("errors.New", "fmt.Errorf")

func runHotPath(pass *Pass) {
	g := buildCallGraph(pass)

	// Stray //pcsi:hotpath directives mark nothing: mirror the unused
	// //pcsi:allow rule and report them so they cannot rot in place.
	for _, s := range g.stray {
		if s.pkg == pass.Pkg {
			pass.Report(s.pos,
				"unused //pcsi:hotpath directive: it must be in the doc comment of a function declaration with a body; delete it or move it onto the entry point")
		}
	}

	for _, n := range g.nodesIn(pass.Pkg) {
		root := g.reach[n]
		if root == nil {
			continue
		}
		checkHotBody(pass, n, root)
	}
}

// checkHotBody scans one hot function body (not descending into nested
// literals, which are their own call-graph nodes) for allocation hazards.
func checkHotBody(pass *Pass, n *funcNode, root *funcNode) {
	info := pass.Pkg.Info
	prealloc := preallocatedSlices(info, n.body)
	inner := innerConcats(info, n.body)

	// walk visits node carrying the loop depth and error-construction
	// nesting at that point. The loop and call cases recurse with adjusted
	// context and stop ast.Inspect from descending on its own; everything
	// else lets Inspect continue. walk roots are only blocks, simple
	// statements, and expressions, so no case can re-enter itself on its
	// own root.
	var walk func(node ast.Node, loopDepth, errCtx int)
	walk = func(node ast.Node, loopDepth, errCtx int) {
		if node == nil {
			return
		}
		ast.Inspect(node, func(m ast.Node) bool {
			if m == nil {
				return false
			}
			switch m := m.(type) {
			case *ast.FuncLit:
				// Rule 1: a closure built on the hot path allocates once
				// per event unless it captures nothing.
				if capturesVars(info, m) {
					pass.Report(m.Pos(),
						"closure captures variables and allocates on the hot path (reachable from //pcsi:hotpath root %s); hoist it to a preallocated func value or annotate //pcsi:allow hotpath", root.name)
				}
				return false // literal bodies are their own nodes
			case *ast.ForStmt:
				walk(m.Init, loopDepth, errCtx)
				walk(m.Cond, loopDepth, errCtx)
				walk(m.Post, loopDepth+1, errCtx)
				walk(m.Body, loopDepth+1, errCtx)
				return false
			case *ast.RangeStmt:
				walk(m.X, loopDepth, errCtx)
				walk(m.Body, loopDepth+1, errCtx)
				return false
			case *ast.DeferStmt:
				// Rule 2: defer in a loop allocates a defer record per
				// iteration and runs nothing until the function exits.
				if loopDepth > 0 {
					pass.Report(m.Pos(),
						"defer inside a loop on the hot path (reachable from //pcsi:hotpath root %s) allocates per iteration and delays the call to function exit; restructure or annotate //pcsi:allow hotpath", root.name)
				}
			case *ast.AssignStmt:
				checkHotAssign(pass, m, root, prealloc, loopDepth)
			case *ast.BinaryExpr:
				// Rule 5: string concatenation in a loop reallocates the
				// accumulated string every iteration. Chains (a + b + c)
				// parse as nested adds; only the outermost reports.
				if loopDepth > 0 && m.Op == token.ADD && isStringExpr(info, m) && !inner[m] {
					pass.Report(m.Pos(),
						"string concatenation in a loop on the hot path (reachable from //pcsi:hotpath root %s) reallocates per iteration; use a []byte buffer or precompute, or annotate //pcsi:allow hotpath", root.name)
				}
			case *ast.CallExpr:
				ec := errCtx
				if isErrorCtxCall(info, m) {
					ec++
				}
				// Rule 6: Sprintf-family formatting off the error path.
				fn := calleeFunc(info, m)
				if fn != nil && fn.Pkg() != nil && fn.Pkg().Path() == "fmt" &&
					sprintFuncs[fn.Name()] && errCtx == 0 {
					pass.Report(m.Pos(),
						"fmt.%s allocates and formats on the hot path (reachable from //pcsi:hotpath root %s) outside error construction; precompute the string or annotate //pcsi:allow hotpath", fn.Name(), root.name)
				}
				// Rule 4: interface boxing at the call site. fmt calls are
				// exempt: rule 6 already covers the allocation, and the
				// error path exempts the rest.
				if errCtx == 0 && !isErrorCtxCall(info, m) &&
					(fn == nil || fn.Pkg() == nil || fn.Pkg().Path() != "fmt") {
					checkBoxing(pass, m, root)
				}
				for _, arg := range m.Args {
					walk(arg, loopDepth, ec)
				}
				// An in-place invoked literal is its own call-graph node
				// (edge kind "lit") and allocates no closure record worth
				// flagging here; other callee expressions are scanned.
				if _, isLit := ast.Unparen(m.Fun).(*ast.FuncLit); !isLit {
					walk(m.Fun, loopDepth, errCtx)
				}
				return false
			}
			return true
		})
	}
	walk(n.body, 0, 0)
}

// innerConcats collects every operand of a string-concatenation chain, so
// the walk reports only the chain's outermost BinaryExpr.
func innerConcats(info *types.Info, body *ast.BlockStmt) map[*ast.BinaryExpr]bool {
	inner := make(map[*ast.BinaryExpr]bool)
	ast.Inspect(body, func(n ast.Node) bool {
		be, ok := n.(*ast.BinaryExpr)
		if !ok || be.Op != token.ADD || !isStringExpr(info, be) {
			return true
		}
		for _, op := range []ast.Expr{be.X, be.Y} {
			if sub, ok := ast.Unparen(op).(*ast.BinaryExpr); ok && sub.Op == token.ADD && isStringExpr(info, sub) {
				inner[sub] = true
			}
		}
		return true
	})
	return inner
}

// checkHotAssign applies rule 3 (append growth in loops without
// preallocation) and rule 5's += variant.
func checkHotAssign(pass *Pass, as *ast.AssignStmt, root *funcNode, prealloc map[*types.Var]bool, loopDepth int) {
	info := pass.Pkg.Info
	if loopDepth == 0 {
		return
	}
	if as.Tok == token.ADD_ASSIGN && len(as.Lhs) == 1 && isStringExpr(info, as.Lhs[0]) {
		pass.Report(as.Pos(),
			"string += in a loop on the hot path (reachable from //pcsi:hotpath root %s) reallocates per iteration; use a []byte buffer, or annotate //pcsi:allow hotpath", root.name)
		return
	}
	for i, lhs := range as.Lhs {
		if i >= len(as.Rhs) {
			break
		}
		call, ok := ast.Unparen(as.Rhs[i]).(*ast.CallExpr)
		if !ok || !isAppendCall(info, call) {
			continue
		}
		id, ok := lhs.(*ast.Ident)
		if !ok {
			continue // field/indexed appends have unknown provenance
		}
		obj := info.Uses[id]
		if obj == nil {
			obj = info.Defs[id]
		}
		v, ok := obj.(*types.Var)
		if !ok {
			continue
		}
		if known, tracked := prealloc[v]; tracked && !known {
			pass.Report(call.Pos(),
				"append grows %s inside a loop on the hot path (reachable from //pcsi:hotpath root %s) without preallocation; size it with make(..., 0, n) before the loop, or annotate //pcsi:allow hotpath", id.Name, root.name)
		}
	}
}

// preallocatedSlices classifies this function's local slice variables:
// present-and-true means declared with capacity (make with a cap argument
// or a nonzero length, or a nonempty literal); present-and-false means
// declared flat (var s []T, s := []T{}, make(..., 0)). Locals bound from
// parameters, fields, or calls are absent: their provenance is unknown
// and rule 3 stays silent about them.
func preallocatedSlices(info *types.Info, body *ast.BlockStmt) map[*types.Var]bool {
	out := make(map[*types.Var]bool)
	note := func(name *ast.Ident, rhs ast.Expr) {
		obj := info.Defs[name]
		if obj == nil {
			return
		}
		v, ok := obj.(*types.Var)
		if !ok {
			return
		}
		if _, isSlice := v.Type().Underlying().(*types.Slice); !isSlice {
			return
		}
		if rhs == nil {
			out[v] = false // var s []T
			return
		}
		switch rhs := ast.Unparen(rhs).(type) {
		case *ast.CompositeLit:
			out[v] = len(rhs.Elts) > 0
		case *ast.CallExpr:
			if id, ok := ast.Unparen(rhs.Fun).(*ast.Ident); ok {
				if bi, ok := info.Uses[id].(*types.Builtin); ok && bi.Name() == "make" {
					out[v] = len(rhs.Args) >= 3 || (len(rhs.Args) == 2 && !isZeroLit(rhs.Args[1]))
				}
			}
		}
	}
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			return false
		case *ast.AssignStmt:
			if n.Tok != token.DEFINE {
				return true
			}
			for i, lhs := range n.Lhs {
				if id, ok := lhs.(*ast.Ident); ok && i < len(n.Rhs) {
					note(id, n.Rhs[i])
				}
			}
		case *ast.DeclStmt:
			if gd, ok := n.Decl.(*ast.GenDecl); ok {
				for _, spec := range gd.Specs {
					if vs, ok := spec.(*ast.ValueSpec); ok {
						for i, name := range vs.Names {
							var rhs ast.Expr
							if i < len(vs.Values) {
								rhs = vs.Values[i]
							}
							note(name, rhs)
						}
					}
				}
			}
		}
		return true
	})
	return out
}

func isZeroLit(e ast.Expr) bool {
	bl, ok := ast.Unparen(e).(*ast.BasicLit)
	return ok && bl.Value == "0"
}

// checkBoxing reports concrete non-pointer-shaped arguments passed to
// interface parameters: each such conversion heap-allocates the value.
// Pointer-shaped kinds (pointers, channels, maps, funcs) and constants
// box without allocation (or are hoisted); interfaces pass through.
func checkBoxing(pass *Pass, call *ast.CallExpr, root *funcNode) {
	info := pass.Pkg.Info
	sig := callSignature(info, call)
	if sig == nil {
		return
	}
	for i, arg := range call.Args {
		pt := paramType(sig, i)
		if pt == nil {
			continue
		}
		if _, isIface := pt.Underlying().(*types.Interface); !isIface {
			continue
		}
		tv, ok := info.Types[arg]
		if !ok || tv.Type == nil || tv.Value != nil || tv.IsNil() {
			continue // constants and nil do not allocate
		}
		switch tv.Type.Underlying().(type) {
		case *types.Interface, *types.Pointer, *types.Chan, *types.Map, *types.Signature:
			continue
		}
		pass.Report(arg.Pos(),
			"argument boxes a concrete %s into an interface parameter on the hot path (reachable from //pcsi:hotpath root %s), allocating per call; pass a pointer or restructure, or annotate //pcsi:allow hotpath",
			tv.Type.String(), root.name)
	}
}

// callSignature resolves the signature a call invokes, or nil for
// builtins and conversions.
func callSignature(info *types.Info, call *ast.CallExpr) *types.Signature {
	tv, ok := info.Types[call.Fun]
	if !ok || tv.Type == nil {
		return nil
	}
	sig, _ := tv.Type.Underlying().(*types.Signature)
	return sig
}

// paramType returns the type of parameter i, unrolling variadics.
func paramType(sig *types.Signature, i int) types.Type {
	params := sig.Params()
	if params.Len() == 0 {
		return nil
	}
	if sig.Variadic() && i >= params.Len()-1 {
		last := params.At(params.Len() - 1).Type()
		if sl, ok := last.(*types.Slice); ok {
			return sl.Elem()
		}
		return nil
	}
	if i >= params.Len() {
		return nil
	}
	return params.At(i).Type()
}

// capturesVars reports whether lit references a variable declared outside
// its own body (excluding package-level variables, which need no closure
// record).
func capturesVars(info *types.Info, lit *ast.FuncLit) bool {
	captured := false
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		if captured {
			return false
		}
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		v, ok := info.Uses[id].(*types.Var)
		if !ok {
			return true
		}
		if v.Pkg() != nil && v.Parent() == v.Pkg().Scope() {
			return true // package-level
		}
		if v.Pos() >= lit.Pos() && v.Pos() < lit.End() {
			return true // declared inside the literal (incl. its params)
		}
		captured = true
		return false
	})
	return captured
}

// isStringExpr reports whether e's static type is a string.
func isStringExpr(info *types.Info, e ast.Expr) bool {
	if e == nil {
		return false
	}
	tv, ok := info.Types[e]
	if !ok || tv.Type == nil {
		return false
	}
	b, ok := tv.Type.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsString != 0
}

// isErrorCtxCall reports whether call constructs an error or panics,
// making its argument expressions an error path.
func isErrorCtxCall(info *types.Info, call *ast.CallExpr) bool {
	if isPanicCall(info, call) {
		return true
	}
	fn := calleeFunc(info, call)
	if fn == nil || fn.Pkg() == nil {
		return false
	}
	return errorCtxFuncs[fn.Pkg().Path()+"."+fn.Name()]
}
