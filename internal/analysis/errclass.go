package analysis

import (
	"go/ast"
	"go/types"
	"strings"
)

// retryBoundaryPkgs are the module-relative packages whose errors can reach
// fault.Policy retry loops: the core data plane, the invoke path, the task
// executor, and admission control. Every concrete error they declare must
// carry a retry classification, or a new sentinel silently becomes
// fatal-by-accident (or retried-forever) the first time chaos mode wraps it
// — the exact bug class qos.ErrOverload fixed by hand in PR 4.
var retryBoundaryPkgs = stringSet(
	"internal/core", "internal/faas", "internal/taskgraph", "internal/qos",
)

// ErrClass checks that every error sentinel and concrete error type
// declared in a retry-boundary package is classified: constructed with
// fault.Fatal/fault.Transient, implementing fault.Classified, or listed in
// a known classifier — a func(error) bool anywhere in the analyzed module
// that mentions the sentinel (errors.Is table, == comparison, switch case)
// or its type (errors.As target).
var ErrClass = &Analyzer{
	Name:      "errclass",
	Kind:      "syntactic",
	Directive: "errclass",
	Doc:       "require retry-boundary errors to implement fault.Classified or appear in a classifier",
	Prepare:   prepareErrClass,
	Run:       runErrClass,
}

// prepareErrClass resolves fault.Classified (a lazy package load) and
// builds the whole-program classifier index while the run is still
// serial; the parallel per-package passes then only read the cache.
func prepareErrClass(pass *Pass) {
	pass.Cache["errclass.classified"] = classifiedIface(pass)
	buildErrClassIndex(pass)
}

// errClassIndex is the whole-program classifier index, built once per Run
// from every fully loaded module package and shared through Pass.Cache.
type errClassIndex struct {
	listed    map[types.Object]bool // sentinels mentioned in a classifier
	mentioned map[*types.Named]bool // error types mentioned in a classifier
}

func runErrClass(pass *Pass) {
	if pass.Pkg.XTest {
		return
	}
	target := relPath(pass.Module, pass.Pkg.Path)
	if !retryBoundaryPkgs[target] {
		return
	}
	if _, ok := pass.Cache["errclass.classified"]; !ok {
		prepareErrClass(pass) // direct use without the prepare phase
	}
	classified, _ := pass.Cache["errclass.classified"].(*types.Interface)
	if classified == nil {
		return // no fault.Classified in this module: nothing to enforce
	}
	idx := buildErrClassIndex(pass)
	errorIface := types.Universe.Lookup("error").Type().Underlying().(*types.Interface)

	for _, f := range pass.Pkg.Files {
		if strings.HasSuffix(pass.Fset.Position(f.Pos()).Filename, "_test.go") {
			continue // test-local errors never cross the runtime retry boundary
		}
		for _, decl := range f.Decls {
			gd, ok := decl.(*ast.GenDecl)
			if !ok {
				continue
			}
			for _, spec := range gd.Specs {
				switch spec := spec.(type) {
				case *ast.ValueSpec:
					checkErrSentinels(pass, spec, errorIface, classified, idx)
				case *ast.TypeSpec:
					checkErrType(pass, spec, errorIface, classified, idx)
				}
			}
		}
	}
}

// classifiedIface resolves fault.Classified in the analyzed module.
func classifiedIface(pass *Pass) *types.Interface {
	faultPkg, err := pass.Loader.Import(pass.Module + "/internal/fault")
	if err != nil || faultPkg == nil {
		return nil
	}
	obj := faultPkg.Scope().Lookup("Classified")
	if obj == nil {
		return nil
	}
	iface, _ := obj.Type().Underlying().(*types.Interface)
	return iface
}

// buildErrClassIndex scans every fully loaded module package for classifier
// functions — any func(error) bool — and records the package-level error
// sentinels and error types they mention.
func buildErrClassIndex(pass *Pass) *errClassIndex {
	if idx, ok := pass.Cache["errclass.index"].(*errClassIndex); ok {
		return idx
	}
	idx := &errClassIndex{
		listed:    make(map[types.Object]bool),
		mentioned: make(map[*types.Named]bool),
	}
	errorIface := types.Universe.Lookup("error").Type().Underlying().(*types.Interface)
	for _, pkg := range pass.Loader.FullPackages() {
		for _, f := range pkg.Files {
			for _, decl := range f.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Body == nil || !isClassifierSig(pkg.Info, fd) {
					continue
				}
				ast.Inspect(fd.Body, func(n ast.Node) bool {
					id, ok := n.(*ast.Ident)
					if !ok {
						return true
					}
					switch obj := pkg.Info.Uses[id].(type) {
					case *types.Var:
						if obj.Pkg() != nil && obj.Parent() == obj.Pkg().Scope() &&
							types.Implements(obj.Type(), errorIface) {
							idx.listed[obj] = true
						}
					case *types.TypeName:
						if named, ok := obj.Type().(*types.Named); ok {
							if implementsEither(named, errorIface) {
								idx.mentioned[named] = true
							}
						}
					}
					return true
				})
			}
		}
	}
	pass.Cache["errclass.index"] = idx
	return idx
}

// isClassifierSig reports whether fd declares a func(error) bool (the shape
// of fault.Retryable, core.DefaultRetryable, and Policy.Retryable hooks).
func isClassifierSig(info *types.Info, fd *ast.FuncDecl) bool {
	fn, ok := info.Defs[fd.Name].(*types.Func)
	if !ok {
		return false
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Params().Len() != 1 || sig.Results().Len() != 1 {
		return false
	}
	return types.Identical(sig.Params().At(0).Type(), types.Universe.Lookup("error").Type()) &&
		types.Identical(sig.Results().At(0).Type(), types.Typ[types.Bool])
}

// implementsEither reports whether T or *T implements iface.
func implementsEither(t types.Type, iface *types.Interface) bool {
	return types.Implements(t, iface) || types.Implements(types.NewPointer(t), iface)
}

// checkErrSentinels verifies each error-typed package var in the spec.
func checkErrSentinels(pass *Pass, spec *ast.ValueSpec, errorIface, classified *types.Interface, idx *errClassIndex) {
	info := pass.Pkg.Info
	for i, name := range spec.Names {
		obj, ok := info.Defs[name].(*types.Var)
		if !ok || obj.Pkg() == nil || obj.Parent() != obj.Pkg().Scope() {
			continue
		}
		if !types.Implements(obj.Type(), errorIface) &&
			!types.Implements(types.NewPointer(obj.Type()), errorIface) {
			continue
		}
		if implementsEither(obj.Type(), classified) || idx.listed[obj] {
			continue
		}
		if i < len(spec.Values) && initClassified(pass, spec.Values[i], classified) {
			continue
		}
		pass.Report(name.Pos(),
			"error sentinel %s is declared in retry-boundary package %s without a retry classification: construct it with fault.Fatal/fault.Transient, make it implement fault.Classified, or list it in a classifier's errors.Is set",
			name.Name, relPath(pass.Module, pass.Pkg.Path))
	}
}

// initClassified reports whether an initializer expression yields a
// classified error: a fault.Fatal/Transient call, or a value whose static
// type implements fault.Classified.
func initClassified(pass *Pass, init ast.Expr, classified *types.Interface) bool {
	init = ast.Unparen(init)
	if call, ok := init.(*ast.CallExpr); ok {
		fn := calleeFunc(pass.Pkg.Info, call)
		faultPkg := pass.Module + "/internal/fault"
		for _, name := range [...]string{"Fatal", "Transient", "Fatalf", "Transientf"} {
			if isPkgFunc(fn, faultPkg, name) {
				return true
			}
		}
	}
	if tv, ok := pass.Pkg.Info.Types[init]; ok && tv.Type != nil {
		if implementsEither(tv.Type, classified) {
			return true
		}
	}
	return false
}

// checkErrType verifies a concrete named error type declared in a
// retry-boundary package.
func checkErrType(pass *Pass, spec *ast.TypeSpec, errorIface, classified *types.Interface, idx *errClassIndex) {
	obj, ok := pass.Pkg.Info.Defs[spec.Name].(*types.TypeName)
	if !ok {
		return
	}
	named, ok := obj.Type().(*types.Named)
	if !ok {
		return
	}
	if _, isIface := named.Underlying().(*types.Interface); isIface {
		return
	}
	if !implementsEither(named, errorIface) {
		return
	}
	if implementsEither(named, classified) || idx.mentioned[named] {
		return
	}
	pass.Report(spec.Name.Pos(),
		"error type %s is declared in retry-boundary package %s without a retry classification: give it a Retryable() bool method (fault.Classified) or target it with errors.As in a classifier",
		spec.Name.Name, relPath(pass.Module, pass.Pkg.Path))
}
