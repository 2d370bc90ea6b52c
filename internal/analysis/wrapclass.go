package analysis

// wrapclass is the interprocedural completion of errclass: instead of
// asking "is this sentinel declared with a classification", it asks "can
// an UNCLASSIFIED error value actually reach a retry boundary". Origins
// are minted wherever an unclassified error is born — errors.New calls,
// fmt.Errorf calls that do not %w-forward, composite literals of
// unclassified error types — and the taint engine propagates them through
// returns, assignments, struct fields, channels, and fmt.Errorf("%w")
// chains. The sinks are the function values passed to fault.Policy.Do:
// whatever their error results may carry decides retry behavior, so every
// origin reaching one is a place where chaos mode will misclassify a
// failure. fault.Fatal/Transient/Fatalf/Transientf calls launder their
// result (classified by construction), as does any call whose static
// result type implements fault.Classified; package-level sentinels that
// are classified or listed in a classifier's errors.Is set read as clean.
//
// Findings are reported at the ORIGIN (that is where the fix goes), with
// the boundary they reach named in the message.

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// wrapBoundaryPkgs are the packages whose fault.Policy.Do boundaries this
// check guards — errclass's four plus the transactional file system.
var wrapBoundaryPkgs = stringSet(
	"internal/core", "internal/faas", "internal/taskgraph", "internal/qos",
	"internal/faasfs",
)

var WrapClass = &Analyzer{
	Name:      "wrapclass",
	Kind:      "interprocedural",
	Directive: "wrapclass",
	Doc:       "require every error value reaching a fault.Policy.Do retry boundary to trace to a classified origin",
	Prepare:   prepareWrapClass,
	Run:       runWrapClass,
}

// wrapFinding is one origin→boundary flow, reported by the package owning
// the origin.
type wrapFinding struct {
	pkg *Package
	pos token.Pos
	msg string
}

func prepareWrapClass(pass *Pass) {
	classified := classifiedIface(pass)
	if classified == nil {
		pass.Cache["wrapclass.findings"] = []wrapFinding(nil)
		return
	}
	st := &wrapState{
		module:     pass.Module,
		classified: classified,
		idx:        buildErrClassIndex(pass),
	}
	pass.Cache["wrapclass.findings"] = collectWrapFindings(buildTaintEngine(pass, st), st)
}

func runWrapClass(pass *Pass) {
	findings, _ := pass.Cache["wrapclass.findings"].([]wrapFinding)
	for _, f := range findings {
		if f.pkg == pass.Pkg {
			pass.Report(f.pos, "%s", f.msg)
		}
	}
}

// wrapState carries the classification tables; its methods are the taint
// engine's minting, laundering and filtering policy.
type wrapState struct {
	module     string
	classified *types.Interface
	idx        *errClassIndex
}

func (st *wrapState) faultPkg() string { return st.module + "/internal/fault" }

// callFlow mints origins at unclassified error constructors, forwards
// fmt.Errorf("%w") chains, and launders fault constructors.
func (st *wrapState) callFlow(eng *taintEngine, ctx taintCtx, call *ast.CallExpr) (flow, bool) {
	fn := calleeFunc(ctx.pkg.Info, call)
	if fn != nil {
		fp := st.faultPkg()
		for _, name := range [...]string{"Fatal", "Transient", "Fatalf", "Transientf"} {
			if isPkgFunc(fn, fp, name) {
				return flow{}, true // classified by construction
			}
		}
		if isPkgFunc(fn, "errors", "New") {
			var out flow
			if st.mintable(eng, ctx, call.Pos()) {
				out.addOrigin(origin{pkg: ctx.pkg, pos: call.Pos(), kind: "errors.New", what: "errors.New"})
			}
			return out, true
		}
		if isPkgFunc(fn, "fmt", "Errorf") {
			if errorfWraps(call) {
				var out flow
				for _, a := range call.Args[1:] {
					out.merge(eng.eval(ctx, a))
				}
				return out, true
			}
			var out flow
			if st.mintable(eng, ctx, call.Pos()) {
				out.addOrigin(origin{pkg: ctx.pkg, pos: call.Pos(), kind: "fmt.Errorf", what: "fmt.Errorf without %w"})
			}
			return out, true
		}
	}
	// Any call whose static result type implements Classified launders:
	// typed constructors like qos's overload errors classify themselves.
	if tv, ok := ctx.pkg.Info.Types[call]; ok && tv.Type != nil {
		if _, isTuple := tv.Type.(*types.Tuple); !isTuple && implementsEither(tv.Type, st.classified) {
			return flow{}, true
		}
	}
	return flow{}, false
}

// errorfWraps reports whether a fmt.Errorf call's format literal contains
// a %w verb (the chain-preserving form).
func errorfWraps(call *ast.CallExpr) bool {
	if len(call.Args) == 0 {
		return false
	}
	lit, ok := ast.Unparen(call.Args[0]).(*ast.BasicLit)
	if !ok || lit.Kind != token.STRING {
		return true // non-literal format: assume it forwards
	}
	return strings.Contains(lit.Value, "%w")
}

// exprOrigins mints origins at composite literals of unclassified
// concrete error types.
func (st *wrapState) exprOrigins(eng *taintEngine, ctx taintCtx, e ast.Expr) []origin {
	lit, ok := e.(*ast.CompositeLit)
	if !ok || !st.mintable(eng, ctx, lit.Pos()) {
		return nil
	}
	tv, ok := ctx.pkg.Info.Types[lit]
	if !ok || tv.Type == nil {
		return nil
	}
	errorIface := types.Universe.Lookup("error").Type().Underlying().(*types.Interface)
	t := tv.Type
	if !implementsEither(t, errorIface) || implementsEither(t, st.classified) {
		return nil
	}
	if named, ok := t.(*types.Named); ok && st.idx.mentioned[named] {
		return nil
	}
	return []origin{{pkg: ctx.pkg, pos: lit.Pos(), kind: "composite", what: types.TypeString(t, nil)}}
}

// globalFilter drops flows read from classified package-level sentinels.
func (st *wrapState) globalFilter(v *types.Var, f flow) flow {
	if implementsEither(v.Type(), st.classified) || st.idx.listed[v] {
		return flow{}
	}
	return f
}

// mintable gates origin creation: never in test files, external test
// packages, or the fault package itself.
func (st *wrapState) mintable(eng *taintEngine, ctx taintCtx, pos token.Pos) bool {
	if ctx.pkg.XTest || eng.inTestFile(pos) {
		return false
	}
	return ctx.pkg.Path != st.faultPkg()
}

// collectWrapFindings locates every fault.Policy.Do boundary, resolves the
// function values passed to it (through parameters, interprocedurally),
// and turns each origin reaching an error result into one finding.
func collectWrapFindings(eng *taintEngine, st *wrapState) []wrapFinding {
	type boundary struct {
		node *funcNode
		op   string // first op literal seen, for the message
	}
	errorIface := types.Universe.Lookup("error").Type().Underlying().(*types.Interface)
	boundaries := make(map[*funcNode]*boundary)
	callers := callerIndex(eng.g)
	for _, n := range eng.g.nodes {
		if !wrapBoundaryPkgs[relPath(eng.module, n.pkg.Path)] {
			continue
		}
		n := n
		ast.Inspect(n.body, func(m ast.Node) bool {
			call, ok := m.(*ast.CallExpr)
			if !ok || len(call.Args) != 3 {
				return true
			}
			fn := calleeFunc(n.pkg.Info, call)
			if !isModuleMethodFunc(fn, st.module, "internal/fault", "Policy", "Do") {
				return true
			}
			for _, h := range resolveBoundaryFns(eng, callers, n, call.Args[1], call.Args[2], nil) {
				if boundaries[h.node] == nil {
					boundaries[h.node] = &boundary{node: h.node, op: h.op}
				}
			}
			return true
		})
	}
	ordered := make([]*boundary, 0, len(boundaries))
	for _, b := range boundaries {
		ordered = append(ordered, b)
	}
	sort.Slice(ordered, func(i, j int) bool { return ordered[i].node.Pos() < ordered[j].node.Pos() })

	type hit struct {
		o        origin
		boundary string
		op       string
	}
	seen := make(map[origin]hit)
	for _, b := range ordered {
		sum := eng.summaryOf(b.node)
		results := eng.resultVars(b.node)
		for i, rf := range sum.results {
			if i >= len(results) || !types.Implements(results[i].Type(), errorIface) {
				continue
			}
			for _, o := range rf.sortedOrigins() {
				if _, ok := seen[o]; !ok {
					seen[o] = hit{o: o, boundary: b.node.name, op: b.op}
				}
			}
		}
	}
	hits := make([]hit, 0, len(seen))
	for _, h := range seen {
		hits = append(hits, h)
	}
	sort.Slice(hits, func(i, j int) bool {
		if hits[i].o.pkg.Path != hits[j].o.pkg.Path {
			return hits[i].o.pkg.Path < hits[j].o.pkg.Path
		}
		return hits[i].o.pos < hits[j].o.pos
	})
	findings := make([]wrapFinding, 0, len(hits))
	for _, h := range hits {
		findings = append(findings, wrapFinding{
			pkg: h.o.pkg,
			pos: h.o.pos,
			msg: fmt.Sprintf("unclassified error (%s) can reach the retry boundary %s (op %q): construct it with fault.Fatal/Transient, wrap a classified error with %%w, or list it in a classifier",
				h.o.what, h.boundary, h.op),
		})
	}
	return findings
}

// isModuleMethodFunc reports whether fn is the method relPkg.recv.name of
// the analyzed module (a Pass-free isModuleMethod).
func isModuleMethodFunc(fn *types.Func, module, relPkg, recv, name string) bool {
	if fn == nil || fn.Name() != name {
		return false
	}
	named := receiverNamed(fn)
	if named == nil || named.Obj().Pkg() == nil {
		return false
	}
	return named.Obj().Pkg().Path() == module+"/"+relPkg && named.Obj().Name() == recv
}

// callerIndex inverts the call graph: callee → (caller, call site).
type callerSite struct {
	caller *funcNode
	site   token.Pos
}

func callerIndex(g *callGraph) map[*funcNode][]callerSite {
	idx := make(map[*funcNode][]callerSite)
	for _, n := range g.nodes {
		for _, e := range n.edges {
			idx[e.callee] = append(idx[e.callee], callerSite{caller: n, site: e.site})
		}
	}
	return idx
}

// boundaryHit is one resolved retry-boundary function with the op string
// in force where it was resolved.
type boundaryHit struct {
	node *funcNode
	op   string
}

// resolveBoundaryFns resolves a function-valued expression to call-graph
// nodes, following parameters back through call sites: Policy.Do is almost
// always reached through a helper (core.Client.do receives op and fn and
// forwards both), so the function literal — and the op literal — live one
// or two frames up.
func resolveBoundaryFns(eng *taintEngine, callers map[*funcNode][]callerSite, encl *funcNode, opE, fnE ast.Expr, seen map[*types.Var]bool) []boundaryHit {
	op := "?"
	if opE != nil {
		if lit, ok := ast.Unparen(opE).(*ast.BasicLit); ok && lit.Kind == token.STRING {
			op = strings.Trim(lit.Value, `"`)
		}
	}
	if nodes := resolveFuncExpr(eng.g, encl, fnE); len(nodes) > 0 {
		hits := make([]boundaryHit, 0, len(nodes))
		for _, n := range nodes {
			hits = append(hits, boundaryHit{node: n, op: op})
		}
		return hits
	}
	id, ok := ast.Unparen(fnE).(*ast.Ident)
	if !ok {
		return nil
	}
	v, ok := encl.pkg.Info.Uses[id].(*types.Var)
	if !ok || eng.paramHome[v] != encl || seen[v] {
		return nil
	}
	if seen == nil {
		seen = make(map[*types.Var]bool)
	}
	seen[v] = true
	fnIdx := eng.paramIdx[v]
	opIdx := -1
	if opID, ok := ast.Unparen(opE).(*ast.Ident); ok {
		if ov, ok := encl.pkg.Info.Uses[opID].(*types.Var); ok && eng.paramHome[ov] == encl {
			opIdx = eng.paramIdx[ov]
		}
	}
	var out []boundaryHit
	for _, cs := range callers[encl] {
		call := findCall(cs.caller, cs.site)
		if call == nil {
			continue
		}
		args := eng.argExprs(taintCtx{node: cs.caller, pkg: cs.caller.pkg}, call, encl)
		if fnIdx >= len(args) || args[fnIdx] == nil {
			continue
		}
		var callerOp ast.Expr
		if opIdx >= 0 && opIdx < len(args) {
			callerOp = args[opIdx]
		}
		out = append(out, resolveBoundaryFns(eng, callers, cs.caller, callerOp, args[fnIdx], seen)...)
	}
	return out
}

// findCall locates the CallExpr at pos inside n's body.
func findCall(n *funcNode, pos token.Pos) *ast.CallExpr {
	var out *ast.CallExpr
	ast.Inspect(n.body, func(m ast.Node) bool {
		if out != nil {
			return false
		}
		if call, ok := m.(*ast.CallExpr); ok && call.Pos() == pos {
			out = call
			return false
		}
		return true
	})
	return out
}
