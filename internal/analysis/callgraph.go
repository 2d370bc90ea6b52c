package analysis

// callgraph.go builds a whole-program call graph over every fully loaded
// module package, using only go/ast + go/types (no x/tools, no SSA). It is
// the substrate for the one interprocedural analyzer, hotpath: where cfg.go
// answers "which paths exist inside one function body", the
// call graph answers "which functions can run downstream of this one".
//
// Resolution is CHA-style (class-hierarchy analysis), deliberately
// over-approximate but deterministic:
//
//   - static: a call whose callee resolves to a declared function or
//     method (including calls in go/defer statements) gets one edge.
//   - iface: a call through an interface method gets an edge to every
//     concrete method of every module type that implements the interface
//     (types collected in sorted order, so edge order is stable).
//   - funcval: calls through local function-valued variables are resolved
//     with the forward-dataflow framework: assignments of a resolvable
//     function value (declared func, method value, or function literal)
//     gen a fact for the variable, unresolvable assignments kill it, and
//     the call site gets an edge per fact that reaches it.
//   - lit: a function literal invoked in place gets an edge to the
//     literal's own node. Literals that escape (stored, passed as
//     arguments) produce no edge; each literal is still its own node, so
//     intraprocedural checks cover its body wherever it runs.
//
// Nodes, edges, and roots are all ordered by source position, so every
// traversal of the graph is deterministic.
//
// Hot-path roots are declared in the source with a directive:
//
//	//pcsi:hotpath [reason...]
//
// in the doc comment of a function or method declaration. Reachability
// from the roots (hotReachable) drives the hotpath analyzer; a directive
// that is not attached to a function declaration with a body marks
// nothing and is reported as a diagnostic, mirroring the unused
// //pcsi:allow rule.

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strconv"
	"strings"
)

// hotpathDirective is the comment prefix marking a call-graph root.
const hotpathDirective = "//pcsi:hotpath"

// funcNode is one call-graph node: a declared function or method, or a
// function literal.
type funcNode struct {
	pkg   *Package
	name  string // deterministic printable name
	body  *ast.BlockStmt
	hot   bool // carries a //pcsi:hotpath directive
	edges []callEdge
}

// callEdge is one resolved call from a node to a callee.
type callEdge struct {
	site   token.Pos
	kind   string // "static", "iface", "funcval", "lit"
	callee *funcNode
}

// strayHotpath is a //pcsi:hotpath directive that marks no function.
type strayHotpath struct {
	pkg *Package
	pos token.Pos
}

// callGraph is the whole-program graph plus its hot-path roots.
type callGraph struct {
	nodes []*funcNode
	byObj map[*types.Func]*funcNode
	byLit map[*ast.FuncLit]*funcNode
	roots []*funcNode
	stray []strayHotpath

	// reach maps every function reachable from a hot root to the root it
	// was first discovered from (breadth-first, deterministic order).
	reach map[*funcNode]*funcNode
}

// buildCallGraph constructs (once per Run, via the shared cache) the call
// graph of every fully loaded module package.
func buildCallGraph(pass *Pass) *callGraph {
	if g, ok := pass.Cache["callgraph"].(*callGraph); ok {
		return g
	}
	g := &callGraph{
		byObj: make(map[*types.Func]*funcNode),
		byLit: make(map[*ast.FuncLit]*funcNode),
	}
	pkgs := pass.Loader.FullPackages()
	for _, pkg := range pkgs {
		g.collectNodes(pass, pkg)
	}
	types := moduleConcreteTypes(pkgs)
	for _, n := range g.nodes {
		g.resolveEdges(n, types)
	}
	for _, n := range g.nodes {
		sortEdges(n.edges)
		if n.hot {
			g.roots = append(g.roots, n)
		}
	}
	g.computeReach()
	pass.Cache["callgraph"] = g
	return g
}

// collectNodes creates a node for every declared function and every
// function literal in the package, in source order, and applies the
// //pcsi:hotpath directives found in its files.
func (g *callGraph) collectNodes(pass *Pass, pkg *Package) {
	for _, f := range pkg.Files {
		// Directives attached to function declarations mark roots; every
		// other occurrence is stray.
		hotDecls := make(map[*ast.FuncDecl]bool)
		claimed := make(map[*ast.Comment]bool)
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Doc == nil {
				continue
			}
			for _, c := range fd.Doc.List {
				if strings.HasPrefix(c.Text, hotpathDirective) {
					claimed[c] = true
					if fd.Body != nil {
						hotDecls[fd] = true
					}
				}
			}
		}
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				if strings.HasPrefix(c.Text, hotpathDirective) && !claimed[c] {
					g.stray = append(g.stray, strayHotpath{pkg: pkg, pos: c.Pos()})
				}
			}
		}
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			obj, _ := pkg.Info.Defs[fd.Name].(*types.Func)
			n := &funcNode{
				pkg:  pkg,
				name: declName(pass.Module, pkg, fd),
				body: fd.Body,
				hot:  hotDecls[fd],
			}
			g.nodes = append(g.nodes, n)
			if obj != nil {
				g.byObj[obj] = n
			}
			g.collectLits(pkg, n.name, fd.Body)
		}
		// Function literals in package-level variable initializers.
		for _, decl := range f.Decls {
			gd, ok := decl.(*ast.GenDecl)
			if !ok {
				continue
			}
			for _, spec := range gd.Specs {
				vs, ok := spec.(*ast.ValueSpec)
				if !ok {
					continue
				}
				for _, v := range vs.Values {
					g.collectLits(pkg, relPath(pass.Module, pkg.Path)+".init", v)
				}
			}
		}
	}
}

// collectLits creates nodes for every function literal under root, named
// parent$1, parent$2, ... in source order (nested literals extend the
// chain: parent$1$1).
func (g *callGraph) collectLits(pkg *Package, parent string, root ast.Node) {
	i := 0
	ast.Inspect(root, func(n ast.Node) bool {
		lit, ok := n.(*ast.FuncLit)
		if !ok || lit == root {
			return true
		}
		i++
		node := &funcNode{
			pkg:  pkg,
			name: joinLitName(parent, i),
			body: lit.Body,
		}
		g.nodes = append(g.nodes, node)
		g.byLit[lit] = node
		g.collectLits(pkg, node.name, lit.Body)
		return false // nested literals were just handled recursively
	})
}

func joinLitName(parent string, i int) string {
	return parent + "$" + strconv.Itoa(i)
}

// declName renders a deterministic printable name for a declared function:
// "internal/sim.(*Env).runUntil" or "internal/analysis.Run".
func declName(module string, pkg *Package, fd *ast.FuncDecl) string {
	prefix := relPath(module, pkg.Path)
	if fd.Recv == nil || len(fd.Recv.List) == 0 {
		return prefix + "." + fd.Name.Name
	}
	recv := fd.Recv.List[0].Type
	star := ""
	if se, ok := recv.(*ast.StarExpr); ok {
		star = "*"
		recv = se.X
	}
	// Strip type parameters from generic receivers.
	if ix, ok := recv.(*ast.IndexExpr); ok {
		recv = ix.X
	} else if ix, ok := recv.(*ast.IndexListExpr); ok {
		recv = ix.X
	}
	name := "?"
	if id, ok := recv.(*ast.Ident); ok {
		name = id.Name
	}
	return prefix + ".(" + star + name + ")." + fd.Name.Name
}

// moduleConcreteTypes returns every non-interface named type declared in
// the loaded module packages, sorted by (package path, name), for CHA
// interface-call resolution.
func moduleConcreteTypes(pkgs []*Package) []*types.Named {
	var out []*types.Named
	for _, pkg := range pkgs {
		if pkg.Types == nil {
			continue
		}
		scope := pkg.Types.Scope()
		names := scope.Names() // already sorted
		for _, name := range names {
			tn, ok := scope.Lookup(name).(*types.TypeName)
			if !ok || tn.IsAlias() {
				continue
			}
			named, ok := tn.Type().(*types.Named)
			if !ok {
				continue
			}
			if _, isIface := named.Underlying().(*types.Interface); isIface {
				continue
			}
			out = append(out, named)
		}
	}
	return out
}

// resolveEdges walks one node's body (not descending into nested literals,
// which are their own nodes) and resolves its call sites.
func (g *callGraph) resolveEdges(n *funcNode, concrete []*types.Named) {
	info := n.pkg.Info

	inspectShallowStmts(n.body, func(m ast.Node) bool {
		call, ok := m.(*ast.CallExpr)
		if !ok {
			return true
		}
		// In-place invoked literal.
		if lit, ok := ast.Unparen(call.Fun).(*ast.FuncLit); ok {
			if callee := g.byLit[lit]; callee != nil {
				n.edges = append(n.edges, callEdge{site: call.Pos(), kind: "lit", callee: callee})
			}
			return true
		}
		fn := calleeFunc(info, call)
		if fn != nil {
			if callee := g.byObj[fn]; callee != nil {
				n.edges = append(n.edges, callEdge{site: call.Pos(), kind: "static", callee: callee})
				return true
			}
			// Interface method call: CHA over module types.
			if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
				if s := info.Selections[sel]; s != nil {
					if _, isIface := s.Recv().Underlying().(*types.Interface); isIface {
						g.chaEdges(n, call.Pos(), s.Recv().Underlying().(*types.Interface), fn.Name(), concrete)
					}
				}
			}
		}
		return true
	})

	g.funcValEdges(n)
}

// chaEdges adds an edge to method `name` of every concrete module type
// implementing iface.
func (g *callGraph) chaEdges(n *funcNode, site token.Pos, iface *types.Interface, name string, concrete []*types.Named) {
	for _, named := range concrete {
		if !implementsEither(named, iface) {
			continue
		}
		ms := types.NewMethodSet(types.NewPointer(named))
		sel := ms.Lookup(nil, name)
		if sel == nil {
			// Method may be exported from another package.
			if pkg := named.Obj().Pkg(); pkg != nil {
				sel = ms.Lookup(pkg, name)
			}
		}
		if sel == nil {
			continue
		}
		m, ok := sel.Obj().(*types.Func)
		if !ok {
			continue
		}
		if callee := g.byObj[m]; callee != nil {
			n.edges = append(n.edges, callEdge{site: site, kind: "iface", callee: callee})
		}
	}
}

// funcValFact records that variable v may hold the function callee.
type funcValFact struct {
	v      *types.Var
	callee *funcNode
}

// funcValEdges tracks function values through locals with the dataflow
// framework: resolvable assignments gen facts, unresolvable ones kill
// them, and each call through a tracked variable gets an edge per fact.
func (g *callGraph) funcValEdges(n *funcNode) {
	info := n.pkg.Info

	resolve := func(e ast.Expr) *funcNode {
		e = ast.Unparen(e)
		if lit, ok := e.(*ast.FuncLit); ok {
			return g.byLit[lit]
		}
		switch e := e.(type) {
		case *ast.Ident:
			if fn, ok := info.Uses[e].(*types.Func); ok {
				return g.byObj[fn]
			}
		case *ast.SelectorExpr:
			if fn, ok := info.Uses[e.Sel].(*types.Func); ok {
				return g.byObj[fn] // method value
			}
		}
		return nil
	}

	killVar := func(in factSet, v *types.Var) factSet {
		out := in
		copied := false
		for f := range in {
			if fv, ok := f.(funcValFact); ok && fv.v == v {
				if !copied {
					out = in.clone()
					copied = true
				}
				delete(out, f)
			}
		}
		return out
	}

	bind := func(out factSet, lhs, rhs ast.Expr) factSet {
		id, ok := lhs.(*ast.Ident)
		if !ok || id.Name == "_" {
			return out
		}
		obj := info.Defs[id]
		if obj == nil {
			obj = info.Uses[id]
		}
		v, ok := obj.(*types.Var)
		if !ok {
			return out
		}
		out = killVar(out, v)
		if callee := resolve(rhs); callee != nil {
			out = out.clone()
			out[funcValFact{v: v, callee: callee}] = true
		}
		return out
	}

	tf := func(node ast.Node, in factSet) factSet {
		out := in
		switch node := node.(type) {
		case *ast.AssignStmt:
			if len(node.Lhs) != len(node.Rhs) {
				break
			}
			for i := range node.Lhs {
				out = bind(out, node.Lhs[i], node.Rhs[i])
			}
		case *ast.DeclStmt:
			if gd, ok := node.Decl.(*ast.GenDecl); ok {
				for _, spec := range gd.Specs {
					if vs, ok := spec.(*ast.ValueSpec); ok {
						for i, name := range vs.Names {
							if i < len(vs.Values) {
								out = bind(out, name, vs.Values[i])
							}
						}
					}
				}
			}
		}
		return out
	}

	cfg := buildCFG(n.body, info)
	in := forwardDataflow(cfg, tf)
	replay(cfg, in, tf, func(node ast.Node, before factSet) {
		inspectShallow(node, func(m ast.Node) bool {
			call, ok := m.(*ast.CallExpr)
			if !ok {
				return true
			}
			id, ok := ast.Unparen(call.Fun).(*ast.Ident)
			if !ok {
				return true
			}
			v, ok := info.Uses[id].(*types.Var)
			if !ok {
				return true
			}
			var callees []*funcNode
			for f := range before {
				if fv, ok := f.(funcValFact); ok && fv.v == v {
					callees = append(callees, fv.callee)
				}
			}
			sort.Slice(callees, func(i, j int) bool { return callees[i].name < callees[j].name })
			for _, c := range callees {
				n.edges = append(n.edges, callEdge{site: call.Pos(), kind: "funcval", callee: c})
			}
			return true
		})
	})
}

// sortEdges orders and dedupes a node's edges by (site, callee name, kind).
func sortEdges(edges []callEdge) {
	sort.SliceStable(edges, func(i, j int) bool {
		if edges[i].site != edges[j].site {
			return edges[i].site < edges[j].site
		}
		if edges[i].callee.name != edges[j].callee.name {
			return edges[i].callee.name < edges[j].callee.name
		}
		return edges[i].kind < edges[j].kind
	})
}

// computeReach runs a breadth-first traversal from the hot roots and
// records, for every reachable node, the root it was first discovered
// from. Roots and edges are position-sorted, so the assignment is stable.
func (g *callGraph) computeReach() {
	g.reach = make(map[*funcNode]*funcNode)
	sort.Slice(g.roots, func(i, j int) bool { return g.roots[i].name < g.roots[j].name })
	queue := make([]*funcNode, 0, len(g.roots))
	for _, r := range g.roots {
		if _, ok := g.reach[r]; !ok {
			g.reach[r] = r
			queue = append(queue, r)
		}
	}
	for len(queue) > 0 {
		n := queue[0]
		queue = queue[1:]
		for _, e := range n.edges {
			if _, ok := g.reach[e.callee]; !ok {
				g.reach[e.callee] = g.reach[n]
				queue = append(queue, e.callee)
			}
		}
	}
}

// nodesIn returns the graph's nodes belonging to pkg, in source order.
func (g *callGraph) nodesIn(pkg *Package) []*funcNode {
	var out []*funcNode
	for _, n := range g.nodes {
		if n.pkg == pkg {
			out = append(out, n)
		}
	}
	return out
}
