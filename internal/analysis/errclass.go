package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"strconv"
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

// ErrClass checks two things. Declarations: every error sentinel and
// concrete error type declared in a retry-boundary package is classified —
// constructed with fault.Fatal/fault.Transient, implementing
// fault.Classified, or listed in a known classifier, a func(error) bool
// anywhere in the analyzed module that mentions the sentinel (errors.Is
// table, == comparison, switch case) or its type (errors.As target). Mint
// sites: in every package inside the import closure of a package that calls
// fault.Policy.Do, no unclassified error value is born — no errors.New, no
// fmt.Errorf whose format drops %w, no composite literal of an unclassified
// error type — except as the initializer of a sentinel a classifier lists.
// layering.go's substrate and baseline tiers are exempt: fault sits on top
// of the substrates it perturbs and classifies their errors in its own
// table (fault.Retryable), and the baselines model foreign systems whose
// errors are opaque by design (§2.1).
var ErrClass = &Analyzer{
	Name:      "errclass",
	Kind:      "syntactic",
	Directive: "errclass",
	Doc:       "require errors declared in a retry-boundary package, or minted inside the import closure of a fault.Policy.Do caller, to carry a retry classification",
	Prepare:   prepareErrClass,
	Run:       runErrClass,
}

var errorIface = types.Universe.Lookup("error").Type().Underlying().(*types.Interface)

// errClassFacts is the whole-program state of the check, built once per Run
// from every fully loaded module package while the run is still serial (it
// triggers a lazy package load); the parallel per-package passes only read
// it.
type errClassFacts struct {
	classified *types.Interface      // fault.Classified
	listed     map[types.Object]bool // sentinels mentioned in a classifier
	mentioned  map[*types.Named]bool // error types mentioned in a classifier
	minting    map[string]bool       // import closure of the fault.Policy.Do callers
}

func prepareErrClass(pass *Pass) {
	classified := classifiedIface(pass)
	if classified == nil {
		return // no fault.Classified in this module: nothing to enforce
	}
	facts := &errClassFacts{
		classified: classified,
		listed:     make(map[types.Object]bool),
		mentioned:  make(map[*types.Named]bool),
		minting:    make(map[string]bool),
	}
	// The retry boundaries (packages whose non-test code calls Policy.Do)
	// seed the worklist; the closure adds everything they import.
	byPath := make(map[string]*Package)
	var work []string
	for _, pkg := range pass.Loader.FullPackages() {
		byPath[pkg.Path] = pkg
		for _, f := range pkg.Files {
			facts.indexClassifiers(pkg.Info, f)
			if !isTestFile(pass.Fset, f) && callsPolicyDo(pass, pkg.Info, f) {
				work = append(work, pkg.Path)
			}
		}
	}
	for len(work) > 0 {
		path := work[len(work)-1]
		work = work[:len(work)-1]
		pkg := byPath[path]
		if pkg == nil || facts.minting[path] {
			continue
		}
		facts.minting[path] = true
		for _, f := range pkg.Files {
			if isTestFile(pass.Fset, f) {
				continue
			}
			for _, imp := range f.Imports {
				if dep, err := strconv.Unquote(imp.Path.Value); err == nil {
					work = append(work, dep)
				}
			}
		}
	}
	pass.Cache["errclass"] = facts
}

func runErrClass(pass *Pass) {
	facts, _ := pass.Cache["errclass"].(*errClassFacts)
	if facts == nil || pass.Pkg.XTest {
		return
	}
	target := relPath(pass.Module, pass.Pkg.Path)
	declares := retryBoundaryPkgs[target]
	mints := facts.minting[pass.Pkg.Path] && !substratePkgs[target] && !baselinePkgs[target]
	for _, f := range pass.Pkg.Files {
		if isTestFile(pass.Fset, f) {
			continue // test-local errors never cross the runtime retry boundary
		}
		if declares {
			for _, decl := range f.Decls {
				gd, ok := decl.(*ast.GenDecl)
				if !ok {
					continue
				}
				for _, spec := range gd.Specs {
					switch spec := spec.(type) {
					case *ast.ValueSpec:
						checkErrSentinels(pass, spec, facts)
					case *ast.TypeSpec:
						checkErrType(pass, spec, facts)
					}
				}
			}
		}
		if mints {
			checkMintSites(pass, f, facts)
		}
	}
}

func isTestFile(fset *token.FileSet, f *ast.File) bool {
	return strings.HasSuffix(fset.Position(f.Pos()).Filename, "_test.go")
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

// callsPolicyDo reports whether f contains a fault.Policy.Do call: a retry
// boundary, where whatever error the attempt returns gets classified.
func callsPolicyDo(pass *Pass, info *types.Info, f *ast.File) bool {
	found := false
	ast.Inspect(f, func(n ast.Node) bool {
		if call, ok := n.(*ast.CallExpr); ok &&
			isModuleMethod(pass, calleeFunc(info, call), "internal/fault", "Policy", "Do") {
			found = true
		}
		return !found
	})
	return found
}

// indexClassifiers records the package-level error sentinels and error types
// mentioned by f's classifier functions — any func(error) bool.
func (facts *errClassFacts) indexClassifiers(info *types.Info, f *ast.File) {
	for _, decl := range f.Decls {
		fd, ok := decl.(*ast.FuncDecl)
		if !ok || fd.Body == nil || !isClassifierSig(info, fd) {
			continue
		}
		ast.Inspect(fd.Body, func(n ast.Node) bool {
			id, ok := n.(*ast.Ident)
			if !ok {
				return true
			}
			switch obj := info.Uses[id].(type) {
			case *types.Var:
				if obj.Pkg() != nil && obj.Parent() == obj.Pkg().Scope() &&
					types.Implements(obj.Type(), errorIface) {
					facts.listed[obj] = true
				}
			case *types.TypeName:
				if named, ok := obj.Type().(*types.Named); ok {
					if implementsEither(named, errorIface) {
						facts.mentioned[named] = true
					}
				}
			}
			return true
		})
	}
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

// unclassified reports whether t is a concrete error type that neither
// implements fault.Classified nor is an errors.As target of a classifier.
func (facts *errClassFacts) unclassified(t types.Type) bool {
	if !implementsEither(t, errorIface) || implementsEither(t, facts.classified) {
		return false
	}
	named, ok := t.(*types.Named)
	return !ok || !facts.mentioned[named]
}

// checkErrSentinels verifies each error-typed package var in the spec.
func checkErrSentinels(pass *Pass, spec *ast.ValueSpec, facts *errClassFacts) {
	info := pass.Pkg.Info
	for i, name := range spec.Names {
		obj, ok := info.Defs[name].(*types.Var)
		if !ok || obj.Pkg() == nil || obj.Parent() != obj.Pkg().Scope() {
			continue
		}
		if !implementsEither(obj.Type(), errorIface) {
			continue
		}
		if implementsEither(obj.Type(), facts.classified) || facts.listed[obj] {
			continue
		}
		if i < len(spec.Values) && initClassified(pass, spec.Values[i], facts.classified) {
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
func checkErrType(pass *Pass, spec *ast.TypeSpec, facts *errClassFacts) {
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
	if !facts.unclassified(named) {
		return
	}
	pass.Report(spec.Name.Pos(),
		"error type %s is declared in retry-boundary package %s without a retry classification: give it a Retryable() bool method (fault.Classified) or target it with errors.As in a classifier",
		spec.Name.Name, relPath(pass.Module, pass.Pkg.Path))
}

// checkMintSites flags every expression in f that gives birth to an
// unclassified error value. fault.Fatal/Transient/Fatalf/Transientf are the
// classified constructors and so never match; a %w chain forwards whatever
// classification its operand carries.
func checkMintSites(pass *Pass, f *ast.File, facts *errClassFacts) {
	info := pass.Pkg.Info
	listedInit := make(map[ast.Node]bool)
	report := func(pos token.Pos, what string) {
		pass.Report(pos,
			"unclassified error (%s) is minted in %s, inside the import closure of a fault.Policy.Do retry boundary: construct it with fault.Fatal/Transient, wrap a classified error with %%w, or list its sentinel in a classifier",
			what, relPath(pass.Module, pass.Pkg.Path))
	}
	ast.Inspect(f, func(n ast.Node) bool {
		if listedInit[n] {
			return false
		}
		switch n := n.(type) {
		case *ast.ValueSpec:
			// The initializer of a sentinel a classifier lists IS that
			// sentinel; Inspect reaches it after this spec.
			for i, name := range n.Names {
				if i < len(n.Values) && facts.listed[info.Defs[name]] {
					listedInit[n.Values[i]] = true
				}
			}
		case *ast.CallExpr:
			fn := calleeFunc(info, n)
			if isPkgFunc(fn, "errors", "New") {
				report(n.Pos(), "errors.New")
			} else if isPkgFunc(fn, "fmt", "Errorf") && !errorfWraps(n) {
				report(n.Pos(), "fmt.Errorf without %w")
			}
		case *ast.CompositeLit:
			if t := info.TypeOf(n); t != nil && facts.unclassified(t) {
				report(n.Pos(), types.TypeString(t, nil))
			}
		}
		return true
	})
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
