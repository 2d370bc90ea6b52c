package analysis

// taint.go is a whole-module, summary-based interprocedural taint
// engine over the call graph of callgraph.go. Where the CFG + dataflow
// framework answers "which facts hold on which paths inside one body", the
// taint engine answers "which VALUES can flow from where to where across
// function boundaries": per-function summaries record, for every result,
// the set of taint origins that may reach it and the set of parameters
// that pass through to it, and the summaries are solved bottom-up over the
// strongly connected components of the call graph (Tarjan's algorithm —
// callees converge before their callers are visited, so acyclic regions
// settle in one sweep and only recursive SCCs and the global side tables
// need the outer fixpoint).
//
// The abstract domain is deliberately small and monotone:
//
//	flow = (origins ⊆ Origin, params ⊆ Param)
//
// where an origin is a source position that mints taint (an errors.New
// call, an unclassified error composite literal, ...) and a param
// is a *types.Var of some function's parameter: "whatever the caller
// passes here flows onward". Propagation is flow-insensitive within a
// function — assignments, returns, composite literals, channel sends, and
// struct-field stores all merge — which over-approximates paths but keeps
// the whole-module solve cheap and deterministic. Three global side tables
// carry taint across functions that never call each other:
//
//	vars    — locals and named results, keyed by *types.Var. The table is
//	          module-global, so a closure reading a variable captured from
//	          its enclosing function resolves it for free.
//	globals — package-level vars, seeded from their initializer
//	          expressions and updated by assignments anywhere.
//	fields  — struct fields, keyed by the field's *types.Var: a store
//	          x.F = v taints F's identity; every read of .F observes it.
//	          Struct composite literals bind field values the same way,
//	          but only EXPORTED field values join the composite's own
//	          flow — a client holding the struct cannot reach unexported
//	          fields, and neither can a flow through it.
//
// wrapclass is the engine's one client and supplies its policy directly
// (wrapState in wrapclass.go): what mints an origin, which calls are
// handled specially (fmt.Errorf("%w", ...) forwards its wrapped error;
// fault.Fatal launders classification), and how package-var reads are
// filtered.
//
// Everything is deterministic: nodes are visited in SCC order derived
// from the position-sorted graph, merges are monotone over finite sets,
// and all reporting done by the analyzers sorts findings by position.

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// origin is one taint source: a minting expression at a fixed position.
// It is comparable, so origin sets are plain maps.
type origin struct {
	pkg  *Package  // package whose source mints the taint
	pos  token.Pos // the minting expression
	kind string    // "errors.New", "fmt.Errorf", "composite"
	what string    // short human description for diagnostics
}

// flow is the engine's abstract value: the origins that may reach a value
// and the parameters whose caller-side arguments pass through to it.
type flow struct {
	origins map[origin]bool
	params  map[*types.Var]bool
}

// addOrigin inserts o, reporting growth.
func (f *flow) addOrigin(o origin) bool {
	if f.origins[o] {
		return false
	}
	if f.origins == nil {
		f.origins = make(map[origin]bool)
	}
	f.origins[o] = true
	return true
}

// addParam inserts v, reporting growth.
func (f *flow) addParam(v *types.Var) bool {
	if f.params[v] {
		return false
	}
	if f.params == nil {
		f.params = make(map[*types.Var]bool)
	}
	f.params[v] = true
	return true
}

// merge unions src into f, reporting growth.
func (f *flow) merge(src flow) bool {
	grew := false
	for o := range src.origins {
		if f.addOrigin(o) {
			grew = true
		}
	}
	for v := range src.params {
		if f.addParam(v) {
			grew = true
		}
	}
	return grew
}

// sortedOrigins returns f's origins ordered by (package path, position).
func (f *flow) sortedOrigins() []origin {
	out := make([]origin, 0, len(f.origins))
	for o := range f.origins {
		out = append(out, o)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].pkg.Path != out[j].pkg.Path {
			return out[i].pkg.Path < out[j].pkg.Path
		}
		if out[i].pos != out[j].pos {
			return out[i].pos < out[j].pos
		}
		return out[i].kind < out[j].kind
	})
	return out
}

// taintSummary is one function's interprocedural summary: a flow per
// result. Channel, global, and field effects live in the shared side
// tables rather than the summary, so callers need only map results.
type taintSummary struct {
	results []*flow
}

// taintCtx names the function (nil for package-level initializers) and
// package an expression is evaluated in.
type taintCtx struct {
	node *funcNode
	pkg  *Package
}

// taintEngine solves wrapclass's flows over the whole module.
type taintEngine struct {
	module string
	fset   *token.FileSet
	loader *Loader
	g      *callGraph
	wrap   *wrapState

	order     []*funcNode                // bottom-up SCC order
	params    map[*funcNode][]*types.Var // receiver-first parameter objects
	paramHome map[*types.Var]*funcNode
	paramIdx  map[*types.Var]int
	variadic  map[*funcNode]bool
	siteEdges map[*funcNode]map[token.Pos][]callEdge

	sums    map[*funcNode]*taintSummary
	vars    map[*types.Var]*flow // locals + named results, module-global
	globals map[*types.Var]*flow // package-level vars
	fields  map[*types.Var]*flow // struct fields by field object

	changed bool
}

// buildTaintEngine constructs a solved engine. It must be called from an
// analyzer's Prepare hook: it builds the call graph and may trigger lazy
// loads.
func buildTaintEngine(pass *Pass, wrap *wrapState) *taintEngine {
	eng := &taintEngine{
		module:    pass.Module,
		fset:      pass.Fset,
		loader:    pass.Loader,
		g:         buildCallGraph(pass),
		wrap:      wrap,
		params:    make(map[*funcNode][]*types.Var),
		paramHome: make(map[*types.Var]*funcNode),
		paramIdx:  make(map[*types.Var]int),
		variadic:  make(map[*funcNode]bool),
		siteEdges: make(map[*funcNode]map[token.Pos][]callEdge),
		sums:      make(map[*funcNode]*taintSummary),
		vars:      make(map[*types.Var]*flow),
		globals:   make(map[*types.Var]*flow),
		fields:    make(map[*types.Var]*flow),
	}
	eng.index()
	eng.order = eng.sccOrder()
	eng.seedGlobals()
	eng.solve()
	return eng
}

// index records every node's parameter objects, result arity, and per-site
// edge lists.
func (eng *taintEngine) index() {
	for _, n := range eng.g.nodes {
		sig := nodeSignature(n)
		if sig == nil {
			eng.sums[n] = &taintSummary{}
			continue
		}
		var ps []*types.Var
		if recv := sig.Recv(); recv != nil {
			ps = append(ps, recv)
		}
		for i := 0; i < sig.Params().Len(); i++ {
			ps = append(ps, sig.Params().At(i))
		}
		eng.params[n] = ps
		eng.variadic[n] = sig.Variadic()
		for i, v := range ps {
			eng.paramHome[v] = n
			eng.paramIdx[v] = i
		}
		sum := &taintSummary{results: make([]*flow, sig.Results().Len())}
		for i := range sum.results {
			sum.results[i] = &flow{}
		}
		eng.sums[n] = sum

		bySite := make(map[token.Pos][]callEdge, len(n.edges))
		for _, e := range n.edges {
			bySite[e.site] = append(bySite[e.site], e)
		}
		eng.siteEdges[n] = bySite
	}
}

// nodeSignature resolves a node's *types.Signature, or nil when type
// information is missing.
func nodeSignature(n *funcNode) *types.Signature {
	if n.obj != nil {
		sig, _ := n.obj.Type().(*types.Signature)
		return sig
	}
	if n.lit != nil {
		if tv, ok := n.pkg.Info.Types[n.lit]; ok && tv.Type != nil {
			sig, _ := tv.Type.(*types.Signature)
			return sig
		}
	}
	return nil
}

// resultVars returns the (possibly unnamed) result objects of n.
func (eng *taintEngine) resultVars(n *funcNode) []*types.Var {
	sig := nodeSignature(n)
	if sig == nil {
		return nil
	}
	out := make([]*types.Var, sig.Results().Len())
	for i := range out {
		out[i] = sig.Results().At(i)
	}
	return out
}

// sccOrder returns the nodes in bottom-up SCC order: Tarjan's algorithm
// emits each strongly connected component only after every component it
// calls into, so iterating the returned slice visits callees before
// callers. Members within an SCC keep their position order.
func (eng *taintEngine) sccOrder() []*funcNode {
	index := make(map[*funcNode]int)
	low := make(map[*funcNode]int)
	onStack := make(map[*funcNode]bool)
	var stack []*funcNode
	var order []*funcNode
	next := 0

	var strongconnect func(n *funcNode)
	strongconnect = func(n *funcNode) {
		index[n] = next
		low[n] = next
		next++
		stack = append(stack, n)
		onStack[n] = true
		for _, e := range n.edges {
			m := e.callee
			if _, seen := index[m]; !seen {
				strongconnect(m)
				if low[m] < low[n] {
					low[n] = low[m]
				}
			} else if onStack[m] && index[m] < low[n] {
				low[n] = index[m]
			}
		}
		if low[n] == index[n] {
			var scc []*funcNode
			for {
				m := stack[len(stack)-1]
				stack = stack[:len(stack)-1]
				onStack[m] = false
				scc = append(scc, m)
				if m == n {
					break
				}
			}
			sort.Slice(scc, func(i, j int) bool { return index[scc[i]] < index[scc[j]] })
			order = append(order, scc...)
		}
	}
	for _, n := range eng.g.nodes {
		if _, seen := index[n]; !seen {
			strongconnect(n)
		}
	}
	return order
}

// seedGlobals evaluates every package-level var initializer once, so taint
// minted there (an errors.New sentinel) is visible to every reader before
// the first sweep.
func (eng *taintEngine) seedGlobals() {
	for _, pkg := range eng.loader.FullPackages() {
		ctx := taintCtx{pkg: pkg}
		for _, f := range pkg.Files {
			for _, decl := range f.Decls {
				gd, ok := decl.(*ast.GenDecl)
				if !ok || gd.Tok != token.VAR {
					continue
				}
				for _, spec := range gd.Specs {
					vs, ok := spec.(*ast.ValueSpec)
					if !ok || len(vs.Names) != len(vs.Values) {
						continue
					}
					for i, name := range vs.Names {
						v, ok := pkg.Info.Defs[name].(*types.Var)
						if !ok {
							continue
						}
						eng.mergeGlobal(v, eng.eval(ctx, vs.Values[i]))
					}
				}
			}
		}
	}
}

// solve sweeps the bottom-up order to a global fixpoint. Acyclic call
// chains settle on the first sweep; recursion, closures capturing outer
// state, and the global/field side tables converge over later sweeps. The
// domain is finite and every merge is monotone, so the cap is a backstop,
// not a correctness device.
func (eng *taintEngine) solve() {
	for sweep := 0; sweep < 32; sweep++ {
		eng.changed = false
		for _, n := range eng.order {
			eng.analyzeNode(n)
		}
		if !eng.changed {
			return
		}
	}
}

// analyzeNode re-derives n's summary and side-table effects from its body.
func (eng *taintEngine) analyzeNode(n *funcNode) {
	ctx := taintCtx{node: n, pkg: n.pkg}
	results := eng.resultVars(n)
	inspectShallowStmts(n.body, func(m ast.Node) bool {
		switch m := m.(type) {
		case *ast.AssignStmt:
			eng.assign(ctx, m.Lhs, m.Rhs)
		case *ast.DeclStmt:
			if gd, ok := m.Decl.(*ast.GenDecl); ok {
				for _, spec := range gd.Specs {
					if vs, ok := spec.(*ast.ValueSpec); ok && len(vs.Values) > 0 {
						lhs := make([]ast.Expr, len(vs.Names))
						for i, name := range vs.Names {
							lhs[i] = name
						}
						eng.assign(ctx, lhs, vs.Values)
					}
				}
			}
		case *ast.RangeStmt:
			src := eng.eval(ctx, m.X)
			for _, e := range []ast.Expr{m.Key, m.Value} {
				if e != nil {
					eng.assignTo(ctx, e, src)
				}
			}
		case *ast.SendStmt:
			// A send taints the channel's identity (var or field); the
			// matching receive reads it back in eval.
			eng.assignTo(ctx, m.Chan, eng.eval(ctx, m.Value))
		case *ast.ReturnStmt:
			eng.returnStmt(ctx, m, results)
		case *ast.ExprStmt:
			eng.eval(ctx, m.X) // calls evaluated for their side effects
		case *ast.GoStmt:
			eng.eval(ctx, m.Call)
		case *ast.DeferStmt:
			eng.eval(ctx, m.Call)
		}
		return true
	})
}

// assign handles one assignment statement, spreading multi-result calls.
func (eng *taintEngine) assign(ctx taintCtx, lhs, rhs []ast.Expr) {
	if len(lhs) == len(rhs) {
		for i := range lhs {
			eng.assignTo(ctx, lhs[i], eng.eval(ctx, rhs[i]))
		}
		return
	}
	if len(rhs) != 1 {
		return
	}
	switch r := ast.Unparen(rhs[0]).(type) {
	case *ast.CallExpr:
		flows := eng.callResults(ctx, r)
		for i := range lhs {
			if i < len(flows) {
				eng.assignTo(ctx, lhs[i], flows[i])
			}
		}
	case *ast.TypeAssertExpr:
		eng.assignTo(ctx, lhs[0], eng.eval(ctx, r.X))
	case *ast.IndexExpr:
		eng.assignTo(ctx, lhs[0], eng.eval(ctx, r.X))
	case *ast.UnaryExpr:
		if r.Op == token.ARROW {
			eng.assignTo(ctx, lhs[0], eng.eval(ctx, r.X))
		}
	}
}

// returnStmt merges the returned flows into the node's summary.
func (eng *taintEngine) returnStmt(ctx taintCtx, ret *ast.ReturnStmt, results []*types.Var) {
	sum := eng.sums[ctx.node]
	switch {
	case len(ret.Results) == 0:
		// Bare return: named results carry whatever was assigned to them.
		for i, rv := range results {
			if i < len(sum.results) && rv != nil {
				if f := eng.vars[rv]; f != nil {
					eng.mergeSummary(sum, i, *f)
				}
			}
		}
	case len(ret.Results) == len(sum.results):
		for i, e := range ret.Results {
			eng.mergeSummary(sum, i, eng.eval(ctx, e))
		}
	case len(ret.Results) == 1:
		// return f() spreading a multi-result call.
		if call, ok := ast.Unparen(ret.Results[0]).(*ast.CallExpr); ok {
			flows := eng.callResults(ctx, call)
			for i := range sum.results {
				if i < len(flows) {
					eng.mergeSummary(sum, i, flows[i])
				}
			}
		}
	}
}

func (eng *taintEngine) mergeSummary(sum *taintSummary, i int, f flow) {
	if i < len(sum.results) && sum.results[i].merge(f) {
		eng.changed = true
	}
}

// assignTo merges f into the abstract location named by lhs.
func (eng *taintEngine) assignTo(ctx taintCtx, lhs ast.Expr, f flow) {
	switch lhs := ast.Unparen(lhs).(type) {
	case *ast.Ident:
		if lhs.Name == "_" {
			return
		}
		obj := ctx.pkg.Info.Defs[lhs]
		if obj == nil {
			obj = ctx.pkg.Info.Uses[lhs]
		}
		v, ok := obj.(*types.Var)
		if !ok {
			return
		}
		if isPackageLevel(v) {
			eng.mergeGlobal(v, f)
		} else {
			eng.mergeVar(v, f)
		}
	case *ast.SelectorExpr:
		if sel, ok := ctx.pkg.Info.Selections[lhs]; ok && sel.Kind() == types.FieldVal {
			if fv, ok := sel.Obj().(*types.Var); ok {
				eng.mergeField(fv, f)
			}
			return
		}
		if v, ok := ctx.pkg.Info.Uses[lhs.Sel].(*types.Var); ok && isPackageLevel(v) {
			eng.mergeGlobal(v, f)
		}
	case *ast.IndexExpr:
		eng.assignTo(ctx, lhs.X, f)
	case *ast.StarExpr:
		eng.assignTo(ctx, lhs.X, f)
	}
}

func (eng *taintEngine) mergeVar(v *types.Var, f flow) {
	dst := eng.vars[v]
	if dst == nil {
		dst = &flow{}
		eng.vars[v] = dst
	}
	if dst.merge(f) {
		eng.changed = true
	}
}

func (eng *taintEngine) mergeGlobal(v *types.Var, f flow) {
	dst := eng.globals[v]
	if dst == nil {
		dst = &flow{}
		eng.globals[v] = dst
	}
	if dst.merge(f) {
		eng.changed = true
	}
}

func (eng *taintEngine) mergeField(v *types.Var, f flow) {
	dst := eng.fields[v]
	if dst == nil {
		dst = &flow{}
		eng.fields[v] = dst
	}
	if dst.merge(f) {
		eng.changed = true
	}
}

// isPackageLevel reports whether v is declared at package scope.
func isPackageLevel(v *types.Var) bool {
	return v.Pkg() != nil && v.Parent() == v.Pkg().Scope()
}

// globalFlow reads a package-level var through wrapclass's filter.
func (eng *taintEngine) globalFlow(v *types.Var) flow {
	var f flow
	if g := eng.globals[v]; g != nil {
		f.merge(*g)
	}
	return eng.wrap.globalFilter(v, f)
}

// eval computes the flow of one expression in ctx. It is re-run every
// sweep; all side effects (field binds inside composite literals) are
// monotone merges.
func (eng *taintEngine) eval(ctx taintCtx, e ast.Expr) flow {
	var out flow
	if e == nil {
		return out
	}
	for _, o := range eng.wrap.exprOrigins(eng, ctx, e) {
		out.addOrigin(o)
	}
	switch e := e.(type) {
	case *ast.ParenExpr:
		out.merge(eng.eval(ctx, e.X))
	case *ast.Ident:
		obj := ctx.pkg.Info.Uses[e]
		if obj == nil {
			obj = ctx.pkg.Info.Defs[e]
		}
		v, ok := obj.(*types.Var)
		if !ok {
			break
		}
		switch {
		case eng.paramHome[v] != nil:
			out.addParam(v)
			if f := eng.vars[v]; f != nil {
				out.merge(*f) // reassigned parameters
			}
		case isPackageLevel(v):
			out.merge(eng.globalFlow(v))
		default:
			// Locals, named results, and free variables captured from an
			// enclosing function all resolve through the global table.
			if f := eng.vars[v]; f != nil {
				out.merge(*f)
			}
		}
	case *ast.SelectorExpr:
		if sel, ok := ctx.pkg.Info.Selections[e]; ok && sel.Kind() == types.FieldVal {
			if fv, ok := sel.Obj().(*types.Var); ok {
				if f := eng.fields[fv]; f != nil {
					out.merge(*f)
				}
			}
			break
		}
		if v, ok := ctx.pkg.Info.Uses[e.Sel].(*types.Var); ok && isPackageLevel(v) {
			out.merge(eng.globalFlow(v))
		}
	case *ast.CallExpr:
		flows := eng.callResults(ctx, e)
		if len(flows) == 1 {
			out.merge(flows[0])
		} else {
			for _, f := range flows {
				out.merge(f)
			}
		}
	case *ast.UnaryExpr:
		if e.Op == token.AND || e.Op == token.ARROW {
			out.merge(eng.eval(ctx, e.X))
		}
	case *ast.StarExpr:
		out.merge(eng.eval(ctx, e.X))
	case *ast.TypeAssertExpr:
		out.merge(eng.eval(ctx, e.X))
	case *ast.IndexExpr:
		out.merge(eng.eval(ctx, e.X))
	case *ast.SliceExpr:
		out.merge(eng.eval(ctx, e.X))
	case *ast.CompositeLit:
		out.merge(eng.compositeFlow(ctx, e))
	}
	return out
}

// compositeFlow evaluates a composite literal. Struct literals bind their
// field values into the field table; only exported-field values join the
// literal's own flow, because a client holding the value cannot reach the
// unexported ones. Non-struct composites (slices, arrays, maps) union all
// element flows.
func (eng *taintEngine) compositeFlow(ctx taintCtx, lit *ast.CompositeLit) flow {
	var out flow
	st := structOf(ctx.pkg.Info, lit)
	if st == nil {
		for _, el := range lit.Elts {
			if kv, ok := el.(*ast.KeyValueExpr); ok {
				out.merge(eng.eval(ctx, kv.Value))
				continue
			}
			out.merge(eng.eval(ctx, el))
		}
		return out
	}
	for i, el := range lit.Elts {
		var fv *types.Var
		val := el
		if kv, ok := el.(*ast.KeyValueExpr); ok {
			val = kv.Value
			if id, ok := kv.Key.(*ast.Ident); ok {
				fv, _ = ctx.pkg.Info.Uses[id].(*types.Var)
			}
		} else if i < st.NumFields() {
			fv = st.Field(i)
		}
		f := eng.eval(ctx, val)
		if fv != nil {
			eng.mergeField(fv, f)
			if fv.Exported() {
				out.merge(f)
			}
			continue
		}
		out.merge(f)
	}
	return out
}

// structOf returns the struct type a composite literal builds, or nil.
func structOf(info *types.Info, lit *ast.CompositeLit) *types.Struct {
	tv, ok := info.Types[lit]
	if !ok || tv.Type == nil {
		return nil
	}
	t := tv.Type
	if ptr, ok := t.Underlying().(*types.Pointer); ok {
		t = ptr.Elem()
	}
	st, _ := t.Underlying().(*types.Struct)
	return st
}

// callResults computes the per-result flows of one call: wrapclass's
// callFlow first (constructors and forwarding wrappers), then the
// callee summaries of every edge resolved at this site, with summary
// parameters mapped back to the caller's argument expressions.
func (eng *taintEngine) callResults(ctx taintCtx, call *ast.CallExpr) []flow {
	if f, handled := eng.wrap.callFlow(eng, ctx, call); handled {
		return []flow{f}
	}
	var edges []callEdge
	if ctx.node != nil {
		edges = eng.siteEdges[ctx.node][call.Pos()]
	}
	if len(edges) == 0 {
		return nil
	}
	var flows []flow
	for _, e := range edges {
		sum := eng.sums[e.callee]
		if sum == nil {
			continue
		}
		for len(flows) < len(sum.results) {
			flows = append(flows, flow{})
		}
		args := eng.argExprs(ctx, call, e.callee)
		for i, rf := range sum.results {
			mapped := eng.mapSummaryFlow(ctx, e.callee, args, *rf)
			flows[i].merge(mapped)
		}
	}
	return flows
}

// argExprs aligns a call's argument expressions with the callee's
// receiver-first parameter list. A nil slot means "unknown argument".
func (eng *taintEngine) argExprs(ctx taintCtx, call *ast.CallExpr, callee *funcNode) []ast.Expr {
	hasRecv := false
	if sig := nodeSignature(callee); sig != nil && sig.Recv() != nil {
		hasRecv = true
	}
	if !hasRecv {
		return call.Args
	}
	args := make([]ast.Expr, 0, len(call.Args)+1)
	if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
		if s, ok := ctx.pkg.Info.Selections[sel]; ok && s.Kind() == types.MethodVal {
			args = append(args, sel.X)
		}
	}
	if len(args) == 0 {
		args = append(args, nil) // method expression or unknown receiver
	}
	return append(args, call.Args...)
}

// mapSummaryFlow translates one callee result flow into the caller's
// context: origins pass through unchanged; parameters of the callee map to
// the argument expressions at the site (the variadic tail unions every
// trailing argument); parameters captured from elsewhere stay symbolic.
func (eng *taintEngine) mapSummaryFlow(ctx taintCtx, callee *funcNode, args []ast.Expr, rf flow) flow {
	var out flow
	for o := range rf.origins {
		out.addOrigin(o)
	}
	nparams := len(eng.params[callee])
	for pv := range rf.params {
		if eng.paramHome[pv] != callee {
			out.addParam(pv) // captured from an enclosing function
			continue
		}
		idx := eng.paramIdx[pv]
		if eng.variadic[callee] && idx == nparams-1 {
			for _, a := range args[min(idx, len(args)):] {
				if a != nil {
					out.merge(eng.eval(ctx, a))
				}
			}
			continue
		}
		if idx < len(args) && args[idx] != nil {
			out.merge(eng.eval(ctx, args[idx]))
		}
	}
	return out
}

// summaryOf returns n's converged summary (never nil).
func (eng *taintEngine) summaryOf(n *funcNode) *taintSummary {
	if s := eng.sums[n]; s != nil {
		return s
	}
	return &taintSummary{}
}

// inTestFile reports whether pos sits in a _test.go file — taint minted by
// test-only code never crosses a runtime boundary.
func (eng *taintEngine) inTestFile(pos token.Pos) bool {
	return strings.HasSuffix(eng.fset.Position(pos).Filename, "_test.go")
}

// resolveFuncExpr resolves a function-valued expression to the call-graph
// nodes it may denote: a literal, a declared function or method value, or
// a local variable assigned one of those anywhere in the enclosing
// function (flow-insensitive, source order).
func resolveFuncExpr(g *callGraph, encl *funcNode, e ast.Expr) []*funcNode {
	info := encl.pkg.Info
	direct := func(e ast.Expr) *funcNode {
		switch e := ast.Unparen(e).(type) {
		case *ast.FuncLit:
			return g.byLit[e]
		case *ast.Ident:
			if fn, ok := info.Uses[e].(*types.Func); ok {
				return g.byObj[fn]
			}
		case *ast.SelectorExpr:
			if fn, ok := info.Uses[e.Sel].(*types.Func); ok {
				return g.byObj[fn]
			}
		}
		return nil
	}
	if n := direct(e); n != nil {
		return []*funcNode{n}
	}
	id, ok := ast.Unparen(e).(*ast.Ident)
	if !ok {
		return nil
	}
	v, ok := info.Uses[id].(*types.Var)
	if !ok {
		v, ok = info.Defs[id].(*types.Var)
		if !ok {
			return nil
		}
	}
	var out []*funcNode
	bind := func(lhs, rhs ast.Expr) {
		lid, ok := ast.Unparen(lhs).(*ast.Ident)
		if !ok {
			return
		}
		obj := info.Defs[lid]
		if obj == nil {
			obj = info.Uses[lid]
		}
		if obj != v {
			return
		}
		if n := direct(rhs); n != nil {
			out = append(out, n)
		}
	}
	ast.Inspect(encl.body, func(m ast.Node) bool {
		switch m := m.(type) {
		case *ast.AssignStmt:
			if len(m.Lhs) == len(m.Rhs) {
				for i := range m.Lhs {
					bind(m.Lhs[i], m.Rhs[i])
				}
			}
		case *ast.ValueSpec:
			for i, name := range m.Names {
				if i < len(m.Values) {
					bind(name, m.Values[i])
				}
			}
		}
		return true
	})
	return out
}
