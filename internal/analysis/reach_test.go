package analysis

import (
	"fmt"
	"go/ast"
	"go/types"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"
)

// reach_test.go holds the module to "every line is reachable": a
// declaration in runtime code earns its place only when something a user
// can run reaches it. The walk starts from the roots
//
//   - every main and init function, and every top-level blank var (its
//     initializer runs at init);
//   - every declaration under bench/, test files included: the benchmark
//     harness is the contract runtime changes may not edit;
//   - every declaration reachExempt names,
//
// and follows types.Info.Uses from each live declaration to the
// declarations it names. A method nobody names directly stays live when
// its type is live and the type, or a pointer to it, implements an
// interface type that live code mentions and that has the method (a call
// through that interface may land on it). For a generic type the test is
// made on each instantiation live code mentions. A method named in
// dynamicMethods, which the standard library calls on values it is handed,
// stays live with its type.
// What is left over in non-test files under internal/, cmd/ and pcsi/ is
// dead code. The pcsi facade is no root: an exported name there earns its
// place like any other declaration, through an examples/ program (each is
// a main package), a cmd/ binary or bench/.

// reachExempt lists the declarations kept although no root reaches them,
// each with its reason. A key is an import path relative to the module (the
// whole package) or a declaration in it ("internal/sim.IdleWorkers"; a type
// covers its methods). Each entry is a root, so what it reaches stays live
// with it.
//
// An entry is allowed only for code that a pending decision keeps, or for
// a declaration a named tier-1 test uses to check the behaviour of
// reachable code. Never add one to silence a finding: delete the
// declaration instead.
var reachExempt = map[string]string{
	"internal/consistency.History": "ROADMAP item 8(a) decides it, with the HistOp and OpKind it holds: the one history checker, or deleted",
	// faasfs's commit is checked against a model by property tests that
	// drive the whole POSIX surface of a Session, not only what E15 runs.
	"internal/faasfs.Session.Unlink":  "TestPropSerializableAgainstModel and TestPropAbortLeavesNoPartialState unlink in their transactions",
	"internal/faasfs.Session.ReadDir": "the faasfs tests' tree walk reads committed directories with it",
	"internal/faasfs.Session.Stat":    "the faasfs tests' tree walk reads committed file sizes with it",
	"internal/faasfs.Session.Seek":    "TestSparseWriteHole and TestPosixSurface position writes and reads with it",
	"internal/obs.Plane.SeriesData":   "Example_dashboards, which README quotes, and TestSamplerSeriesAndTermination read the sampler's series with it",
}

// dynamicMethods are the method names that fmt, errors, sort, container/heap
// and encoding/json call on values handed to them, by dynamic type.
var dynamicMethods = map[string]bool{
	"String": true, "GoString": true, "Format": true, "Error": true, // fmt
	"Unwrap": true, "Is": true, "As": true, // errors
	"Len": true, "Less": true, "Swap": true, // sort
	"Push": true, "Pop": true, // container/heap
	"MarshalJSON": true, "UnmarshalJSON": true, "MarshalText": true, "UnmarshalText": true, // encoding/json
}

// reachDecl is one top-level declaration: a function, method, type, var or
// const (a var or const spec with several names is one declaration).
type reachDecl struct {
	objs   []types.Object
	name   string // "internal/sim.IdleWorkers", "internal/core.Client.Mutability"
	file   string // slash path relative to the module root
	line   int
	test   bool               // declared in a _test.go file
	uses   []types.Object     // the declarations it names
	ifaces []*types.Interface // the interface types it mentions
	insts  []*types.Named     // the instantiated generic types it mentions
	recv   *types.TypeName    // a method's receiver type
}

// unreachable walks pkgs of l from the roots and returns "file:line name"
// for every dead declaration in a non-test file whose path starts with one
// of scope.
func unreachable(l *Loader, pkgs []*Package, exempt map[string]string, scope ...string) []string {
	decls := make(map[types.Object]*reachDecl)
	methods := make(map[*types.TypeName][]*reachDecl)
	var all, roots []*reachDecl
	for _, p := range pkgs {
		rel := strings.TrimSuffix(strings.TrimPrefix(strings.TrimPrefix(p.Path, l.Module), "/"), "_test")
		for _, f := range p.Files {
			file, _ := filepath.Rel(l.Root, l.Fset.Position(f.Pos()).Filename)
			file = filepath.ToSlash(file)
			test := strings.HasSuffix(file, "_test.go")
			add := func(node ast.Node, objs []types.Object, recv *types.TypeName, name string, root bool) {
				d := &reachDecl{objs: objs, name: rel + "." + name, file: file,
					line: l.Fset.Position(node.Pos()).Line, test: test, recv: recv}
				ast.Inspect(node, func(n ast.Node) bool {
					if id, ok := n.(*ast.Ident); ok && p.Info.Uses[id] != nil {
						d.uses = append(d.uses, origin(p.Info.Uses[id]))
					}
					if e, ok := n.(ast.Expr); ok && p.Info.Types[e].Type != nil {
						t := p.Info.Types[e].Type
						d.ifaces = appendIfaces(d.ifaces, t)
						if ptr, ok := t.(*types.Pointer); ok {
							t = ptr.Elem()
						}
						if named, ok := t.(*types.Named); ok && named.TypeArgs().Len() > 0 {
							d.insts = append(d.insts, named)
						}
					}
					return true
				})
				for _, obj := range objs {
					decls[obj] = d
				}
				if recv != nil {
					methods[recv] = append(methods[recv], d)
				}
				root = root || strings.HasPrefix(file, "bench/")
				for key := range exempt {
					root = root || d.name == key || strings.HasPrefix(d.name, key+".")
				}
				if root {
					roots = append(roots, d)
				}
				all = append(all, d)
			}
			for _, decl := range f.Decls {
				switch decl := decl.(type) {
				case *ast.FuncDecl:
					fn, _ := p.Info.Defs[decl.Name].(*types.Func)
					if fn == nil {
						continue
					}
					name := decl.Name.Name
					if decl.Recv == nil {
						root := !test && (name == "init" || name == "main" && p.Types.Name() == "main")
						add(decl, []types.Object{fn}, nil, name, root)
					} else if recv := recvTypeName(fn); recv != nil {
						add(decl, []types.Object{fn}, recv, recv.Name()+"."+name, false)
					}
				case *ast.GenDecl:
					for _, spec := range decl.Specs {
						var ids []*ast.Ident
						switch spec := spec.(type) {
						case *ast.TypeSpec:
							ids = []*ast.Ident{spec.Name}
						case *ast.ValueSpec:
							ids = spec.Names
						default:
							continue
						}
						var objs []types.Object
						var names []string
						root := false
						for _, id := range ids {
							if id.Name == "_" {
								// A blank var's initializer runs at init.
								root = !test
							} else if obj := p.Info.Defs[id]; obj != nil {
								objs = append(objs, obj)
								names = append(names, id.Name)
							}
						}
						if len(objs) > 0 || root {
							add(spec, objs, nil, strings.Join(names, ","), root)
						}
					}
				}
			}
		}
	}

	live := make(map[*reachDecl]bool)
	ifaces := make(map[string][]*types.Interface)   // live interfaces, by method name
	insts := make(map[*types.TypeName][]types.Type) // live instantiations of generic types
	var waiting []*reachDecl                        // unnamed methods of live types
	var queue []*reachDecl
	mark := func(d *reachDecl) {
		if d != nil && !live[d] {
			live[d] = true
			queue = append(queue, d)
		}
	}
	// implemented reports whether m's receiver type, or for a generic type
	// one of its live instantiations, implements a live interface that has
	// m.
	implemented := func(m *reachDecl) bool {
		recvs := []types.Type{m.recv.Type()}
		if m.recv.Type().(*types.Named).TypeParams().Len() > 0 {
			recvs = insts[m.recv]
		}
		for _, it := range ifaces[m.objs[0].Name()] {
			for _, t := range recvs {
				if types.Implements(t, it) || types.Implements(types.NewPointer(t), it) {
					return true
				}
			}
		}
		return false
	}
	for _, d := range roots {
		mark(d)
	}
	for len(queue) > 0 {
		for len(queue) > 0 {
			d := queue[0]
			queue = queue[1:]
			for _, obj := range d.uses {
				mark(decls[obj])
			}
			if d.recv != nil {
				mark(decls[d.recv]) // a method keeps its type live
			}
			for _, it := range d.ifaces {
				for i := 0; i < it.NumMethods(); i++ {
					ifaces[it.Method(i).Name()] = append(ifaces[it.Method(i).Name()], it)
				}
			}
			for _, n := range d.insts {
				insts[n.Origin().Obj()] = append(insts[n.Origin().Obj()], n)
			}
			for _, obj := range d.objs {
				if tn, ok := obj.(*types.TypeName); ok {
					waiting = append(waiting, methods[tn]...)
				}
			}
		}
		// What the walk has found so far may make a waiting method live.
		still := waiting[:0]
		for _, m := range waiting {
			switch {
			case live[m]:
			case dynamicMethods[m.objs[0].Name()] || implemented(m):
				mark(m)
			default:
				still = append(still, m)
			}
		}
		waiting = still
	}

	var dead []string
	for _, d := range all {
		if live[d] || d.test || len(d.objs) == 0 {
			continue
		}
		for _, s := range scope {
			if strings.HasPrefix(d.file, s) {
				dead = append(dead, fmt.Sprintf("%s:%d %s", d.file, d.line, d.name))
				break
			}
		}
	}
	sort.Strings(dead)
	return dead
}

// appendIfaces appends t if it is an interface, and every interface
// parameter if it is a function: an argument passed to one (http.Serve's
// Handler, io.Copy's Writer) has that interface's methods called.
func appendIfaces(ifaces []*types.Interface, t types.Type) []*types.Interface {
	switch u := t.Underlying().(type) {
	case *types.Interface:
		if u.NumMethods() > 0 {
			ifaces = append(ifaces, u)
		}
	case *types.Signature:
		for i := 0; i < u.Params().Len(); i++ {
			ifaces = appendIfaces(ifaces, u.Params().At(i).Type())
		}
	}
	return ifaces
}

// origin maps an instantiated generic function, method or field to its
// declaration.
func origin(obj types.Object) types.Object {
	switch obj := obj.(type) {
	case *types.Func:
		return obj.Origin()
	case *types.Var:
		return obj.Origin()
	}
	return obj
}

// recvTypeName returns the named type a method is declared on.
func recvTypeName(fn *types.Func) *types.TypeName {
	t := fn.Type().(*types.Signature).Recv().Type()
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	if named, ok := t.(*types.Named); ok {
		return named.Origin().Obj()
	}
	return nil
}

// TestEveryDeclarationReachable fails on every declaration in runtime code
// that no main, init, blank var, bench/ or reachExempt entry reaches. Each
// failure line is "file:line name". Delete the declaration (and any test
// that exercised only it); an entry in reachExempt is for the cases its
// comment allows.
func TestEveryDeclarationReachable(t *testing.T) {
	if testing.Short() {
		t.Skip("full-repo type check is not short")
	}
	l, pkgs := repoModule.load(t, filepath.Join("..", ".."))
	for _, p := range pkgs {
		if len(p.TypeErrors) > 0 {
			t.Fatalf("%s: %v", p.Path, p.TypeErrors[0])
		}
	}
	for _, line := range unreachable(l, pkgs, reachExempt, "internal/", "cmd/", "pcsi/") {
		t.Errorf("unreachable: %s", line)
	}
}

// TestReachabilityFixture runs the walk on a package with one live
// function, two methods kept only by the interface they satisfy (one on a
// generic type), a method whose name matches that interface on a type that
// does not implement it, and one planted dead function: it must report
// exactly the mismatched method and the planted function.
func TestReachabilityFixture(t *testing.T) {
	l, _ := fixtureModule.load(t, filepath.Join("testdata", "fixture"))
	pkgs, err := l.Load("./reach")
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	got := unreachable(l, pkgs, nil, "reach/")
	want := []string{"reach/reach.go:23 reach.decoy.name", "reach/reach.go:37 reach.planted"}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("unreachable = %q, want %q", got, want)
	}
}

// fieldExempt lists the exported struct fields kept although no runtime
// code sets them, each with its reason. A key is a field
// ("internal/obs.Objective.Budget") or a struct type, which covers its
// fields. As with reachExempt, an entry is for a pending decision, never to
// silence a finding: a value nothing sets is a constant, so make it one.
var fieldExempt = map[string]string{
	"internal/fault.Event":                      "only the chaos tests write schedules until ROADMAP item 7 draws fault placement",
	"internal/experiments.ChaosConfig.Schedule": "the chaos tests' schedule reaches a sweep through it, until ROADMAP item 7 draws fault placement",
	"internal/consistency.HistOp":               "ROADMAP item 8(a) decides it, with the History that holds it",
}

// unsetFields returns "file:line name" for every exported field of a
// package-level struct type declared in a non-test file under one of scope
// that no non-test file sets. A field is set by a keyed or positional
// composite literal, an assignment or an inc/dec whose target selects it,
// or a JSON decode into a value whose type reaches it.
func unsetFields(l *Loader, pkgs []*Package, exempt map[string]string, scope ...string) []string {
	set := make(map[*types.Var]bool)
	seen := make(map[types.Type]bool)
	var decoded func(t types.Type)
	decoded = func(t types.Type) {
		if seen[t] {
			return
		}
		seen[t] = true
		switch u := t.Underlying().(type) {
		case *types.Pointer:
			decoded(u.Elem())
		case *types.Slice:
			decoded(u.Elem())
		case *types.Array:
			decoded(u.Elem())
		case *types.Map:
			decoded(u.Elem())
		case *types.Struct:
			for i := 0; i < u.NumFields(); i++ {
				set[u.Field(i).Origin()] = true
				decoded(u.Field(i).Type())
			}
		}
	}
	for _, p := range pkgs {
		target := func(e ast.Expr) {
			if sel, ok := ast.Unparen(e).(*ast.SelectorExpr); ok {
				if v, ok := p.Info.Uses[sel.Sel].(*types.Var); ok && v.IsField() {
					set[v.Origin()] = true
				}
			}
		}
		for _, f := range p.Files {
			if strings.HasSuffix(l.Fset.Position(f.Pos()).Filename, "_test.go") {
				continue
			}
			ast.Inspect(f, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.CompositeLit:
					st, ok := p.Info.Types[n].Type.Underlying().(*types.Struct)
					for i, e := range n.Elts {
						if kv, isKV := e.(*ast.KeyValueExpr); isKV {
							if id, isID := kv.Key.(*ast.Ident); isID {
								if v, isVar := p.Info.Uses[id].(*types.Var); isVar && v.IsField() {
									set[v.Origin()] = true
								}
							}
						} else if ok {
							set[st.Field(i).Origin()] = true
						}
					}
				case *ast.AssignStmt:
					for _, lhs := range n.Lhs {
						target(lhs)
					}
				case *ast.IncDecStmt:
					target(n.X)
				case *ast.CallExpr:
					if sel, ok := n.Fun.(*ast.SelectorExpr); ok && len(n.Args) > 0 {
						fn, _ := p.Info.Uses[sel.Sel].(*types.Func)
						if fn != nil && fn.Pkg() != nil && fn.Pkg().Path() == "encoding/json" &&
							(fn.Name() == "Unmarshal" || fn.Name() == "Decode") {
							decoded(p.Info.Types[n.Args[len(n.Args)-1]].Type)
						}
					}
				}
				return true
			})
		}
	}

	var unset []string
	for _, p := range pkgs {
		rel := strings.TrimPrefix(strings.TrimPrefix(p.Path, l.Module), "/")
		for _, f := range p.Files {
			file, _ := filepath.Rel(l.Root, l.Fset.Position(f.Pos()).Filename)
			file = filepath.ToSlash(file)
			inScope := false
			for _, s := range scope {
				inScope = inScope || strings.HasPrefix(file, s)
			}
			if !inScope || strings.HasSuffix(file, "_test.go") {
				continue
			}
			for _, decl := range f.Decls {
				gd, ok := decl.(*ast.GenDecl)
				if !ok {
					continue
				}
				for _, spec := range gd.Specs {
					ts, ok := spec.(*ast.TypeSpec)
					if !ok {
						continue
					}
					tn, _ := p.Info.Defs[ts.Name].(*types.TypeName)
					if tn == nil || tn.IsAlias() {
						continue
					}
					st, ok := tn.Type().Underlying().(*types.Struct)
					if !ok {
						continue
					}
					typ := rel + "." + tn.Name()
					for i := 0; i < st.NumFields(); i++ {
						v := st.Field(i)
						name := typ + "." + v.Name()
						if !v.Exported() || set[v] || exempt[typ] != "" || exempt[name] != "" {
							continue
						}
						unset = append(unset, fmt.Sprintf("%s:%d %s", file, l.Fset.Position(v.Pos()).Line, name))
					}
				}
			}
		}
	}
	sort.Strings(unset)
	return unset
}

// TestEveryFieldSet fails on every exported field of a runtime struct that
// no runtime code sets: each failure line is "file:line name". A field
// nothing sets always holds its zero value, so it is a constant: delete it
// and write the value where it is read. An entry in fieldExempt is for the
// cases its comment allows.
func TestEveryFieldSet(t *testing.T) {
	if testing.Short() {
		t.Skip("full-repo type check is not short")
	}
	l, pkgs := repoModule.load(t, filepath.Join("..", ".."))
	for _, line := range unsetFields(l, pkgs, fieldExempt, "internal/", "cmd/", "pcsi/") {
		t.Errorf("never set: %s", line)
	}
}
