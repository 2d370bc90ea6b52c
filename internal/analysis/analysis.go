// Package analysis is a stdlib-only static-analysis framework (go/parser +
// go/types, no golang.org/x/tools) that enforces this repository's design
// invariants from DESIGN.md §5: deterministic virtual time, seeded
// randomness, the substrate→state→compute→core layering, and
// capability-checked object mutation. The cmd/pcsi-vet CLI runs it over
// any package pattern, and a self-enforcement test keeps the repo itself
// clean. `pcsi-vet -list` prints the checks, the machinery behind each
// (Analyzer.Kind) and its directive keyword; DESIGN.md §5 says why each
// one is there. Two engines sit behind them and no more: an
// intraprocedural CFG with forward gen/kill dataflow (cfg.go, dataflow.go)
// and a whole-module call graph (callgraph.go). Everything else is an AST
// or declaration walk, plus errclass's two module-wide facts (the
// classifier index and the import closure of the fault.Policy.Do callers).
//
// Legitimate exceptions are annotated in the source with a directive:
//
//	//pcsi:allow <check> [reason...]
//
// where <check> is an analyzer's directive keyword. A directive suppresses
// its check on the same line and the following line; a directive in the
// doc comment of a top-level declaration covers the whole declaration. A
// directive whose analyzer runs without suppressing anything is itself
// reported, so stale suppressions cannot accumulate.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
	"sync"
)

// Diagnostic is one finding, positioned in the analyzed source.
type Diagnostic struct {
	Pos     token.Position
	Check   string // analyzer name
	Message string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s: %s: %s", d.Pos, d.Check, d.Message)
}

// Analyzer is one invariant checker.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and -checks selections.
	Name string
	// Directive is the //pcsi:allow keyword that suppresses this analyzer.
	Directive string
	// Doc is a one-line description.
	Doc string
	// Kind classifies the machinery behind the check: "syntactic" (AST and
	// declaration walks, no engine), "dataflow" (CFG + gen/kill facts within
	// one function), or "interprocedural" (the call graph across the
	// module).
	Kind string
	// Prepare, if set, runs once before the per-package passes fan out,
	// with a pass carrying no package. It builds whole-program indexes
	// (the call graph, the classifier index) into the shared Cache and may
	// trigger lazy package loads; because the per-package passes then run
	// in parallel, ALL Cache writes and Loader loads must happen here.
	// Prepare must not report diagnostics.
	Prepare func(*Pass)
	// Run inspects one package and reports findings through the pass.
	Run func(*Pass)
}

// All returns the repo's analyzers.
func All() []*Analyzer {
	return []*Analyzer{
		SimTime, DetRand, Layering, CapDiscipline,
		MapRange, ObsRand, ErrClass, SpanBalance,
		HotPath,
	}
}

// Pass carries one analyzer's visit of one package.
type Pass struct {
	Analyzer *Analyzer
	Fset     *token.FileSet
	Module   string // module path of the analyzed tree
	Pkg      *Package
	// Loader gives whole-program analyzers (errclass) access to every
	// fully loaded module package, not just the one under the pass.
	Loader *Loader
	// Cache is shared across all passes of one Run, for indexes that are
	// expensive to build and package-independent.
	Cache map[string]any

	allows map[string][]*allowRange // directive keyword -> suppressed ranges
	diags  *[]Diagnostic
}

// allowRange is the source span one //pcsi:allow directive suppresses. used
// flips when a diagnostic is actually suppressed, so Run can report stale
// directives that no longer cover anything.
type allowRange struct {
	file       string
	start, end int
	pos        token.Position // the directive comment itself
	used       bool
}

// relPath returns the package path relative to the module ("internal/sim"),
// or "." for the module root. External test packages keep their "_test"
// suffix.
func relPath(module, path string) string {
	if path == module {
		return "."
	}
	if rest, ok := strings.CutPrefix(path, module+"/"); ok {
		return rest
	}
	return path
}

// Report records a diagnostic unless a //pcsi:allow directive covers it.
func (p *Pass) Report(pos token.Pos, format string, args ...any) {
	position := p.Fset.Position(pos)
	for _, r := range p.allows[p.Analyzer.Directive] {
		if r.file == position.Filename && position.Line >= r.start && position.Line <= r.end {
			r.used = true
			return
		}
	}
	*p.diags = append(*p.diags, Diagnostic{
		Pos:     position,
		Check:   p.Analyzer.Name,
		Message: fmt.Sprintf(format, args...),
	})
}

// calleeFunc resolves the function or method a call invokes, or nil for
// calls through function values, conversions, and builtins.
func calleeFunc(info *types.Info, call *ast.CallExpr) *types.Func {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		f, _ := info.Uses[fun].(*types.Func)
		return f
	case *ast.SelectorExpr:
		f, _ := info.Uses[fun.Sel].(*types.Func)
		return f
	}
	return nil
}

// isModuleMethod reports whether fn is the method recv.name declared in the
// analyzed module's package relPkg ("internal/trace").
func isModuleMethod(pass *Pass, fn *types.Func, relPkg, recv, name string) bool {
	if fn == nil || fn.Name() != name {
		return false
	}
	named := receiverNamed(fn)
	if named == nil || named.Obj().Pkg() == nil {
		return false
	}
	return named.Obj().Pkg().Path() == pass.Module+"/"+relPkg && named.Obj().Name() == recv
}

// isPkgFunc reports whether fn is the package-level function pkgPath.name.
func isPkgFunc(fn *types.Func, pkgPath, name string) bool {
	if fn == nil || fn.Name() != name || fn.Pkg() == nil {
		return false
	}
	return fn.Pkg().Path() == pkgPath && receiverNamed(fn) == nil
}

// directiveKeywords are the recognized //pcsi:allow arguments.
func directiveKeywords() map[string]bool {
	m := make(map[string]bool)
	for _, a := range All() {
		m[a.Directive] = true
	}
	return m
}

// collectAllows scans a package's comments for //pcsi:allow directives and
// returns the suppressed line ranges per keyword. Unknown keywords are
// reported as diagnostics so typos cannot silently disable a check.
func collectAllows(fset *token.FileSet, pkg *Package, diags *[]Diagnostic) map[string][]*allowRange {
	known := directiveKeywords()
	keywords := make([]string, 0, len(known))
	for k := range known {
		keywords = append(keywords, k)
	}
	sort.Strings(keywords)
	allows := make(map[string][]*allowRange)
	for _, f := range pkg.Files {
		// Doc-comment directives cover their whole declaration.
		declRange := make(map[*ast.Comment]*allowRange)
		for _, decl := range f.Decls {
			var doc *ast.CommentGroup
			switch d := decl.(type) {
			case *ast.FuncDecl:
				doc = d.Doc
			case *ast.GenDecl:
				doc = d.Doc
			}
			if doc == nil {
				continue
			}
			for _, c := range doc.List {
				declRange[c] = &allowRange{
					file:  fset.Position(decl.Pos()).Filename,
					start: fset.Position(decl.Pos()).Line,
					end:   fset.Position(decl.End()).Line,
				}
			}
		}
		// A directive on or above a multi-line statement covers all of it:
		// map each starting line to the last line of the widest node
		// beginning there, so annotating e.g. a call taking a closure
		// covers the closure body too.
		lastLine := make(map[int]int)
		ast.Inspect(f, func(n ast.Node) bool {
			if n == nil {
				return false
			}
			start := fset.Position(n.Pos()).Line
			if end := fset.Position(n.End()).Line; end > lastLine[start] {
				lastLine[start] = end
			}
			return true
		})
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				rest, ok := strings.CutPrefix(c.Text, "//pcsi:allow")
				if !ok {
					continue
				}
				fields := strings.Fields(rest)
				if len(fields) == 0 {
					*diags = append(*diags, Diagnostic{
						Pos:     fset.Position(c.Pos()),
						Check:   "directive",
						Message: fmt.Sprintf("//pcsi:allow needs a check name (%s)", strings.Join(keywords, ", ")),
					})
					continue
				}
				keyword := fields[0]
				if !known[keyword] {
					*diags = append(*diags, Diagnostic{
						Pos:     fset.Position(c.Pos()),
						Check:   "directive",
						Message: fmt.Sprintf("unknown //pcsi:allow check %q", keyword),
					})
					continue
				}
				r, ok := declRange[c]
				if !ok {
					pos := fset.Position(c.Pos())
					// A trailing directive covers the statement it sits on;
					// a standalone one covers the statement below it.
					end := pos.Line + 1
					if e := lastLine[pos.Line]; e > end {
						end = e
					}
					if e := lastLine[pos.Line+1]; e > end {
						end = e
					}
					r = &allowRange{file: pos.Filename, start: pos.Line, end: end}
				}
				r.pos = fset.Position(c.Pos())
				allows[keyword] = append(allows[keyword], r)
			}
		}
	}
	return allows
}

// Run applies the analyzers to every package and returns the combined
// diagnostics sorted by position. Type errors in the analyzed packages are
// reported as "typecheck" diagnostics: the invariants cannot be trusted on
// code that does not compile. After the analyzers finish, //pcsi:allow
// directives whose analyzer ran but which suppressed nothing are reported
// as "directive" diagnostics, so suppressions cannot rot in place.
//
// Execution is two-phase: first every analyzer's Prepare hook runs
// serially, building whole-program indexes into the shared cache (and
// performing any lazy package loads); then the per-package passes run in
// parallel, one goroutine per package, touching only immutable shared
// state. Each package's diagnostics collect into a private slice; the
// slices merge in package order and the result is globally sorted, so the
// output is byte-identical to a serial run.
func Run(l *Loader, pkgs []*Package, analyzers []*Analyzer) []Diagnostic {
	cache := make(map[string]any)
	ran := make(map[string]bool, len(analyzers))
	for _, a := range analyzers {
		ran[a.Directive] = true
		if a.Prepare != nil {
			a.Prepare(&Pass{
				Analyzer: a,
				Fset:     l.Fset,
				Module:   l.Module,
				Loader:   l,
				Cache:    cache,
			})
		}
	}
	perPkg := make([][]Diagnostic, len(pkgs))
	var wg sync.WaitGroup
	for i, pkg := range pkgs {
		wg.Add(1)
		go func(i int, pkg *Package) {
			defer wg.Done()
			perPkg[i] = runPackage(l, pkg, analyzers, cache, ran)
		}(i, pkg)
	}
	wg.Wait()
	var diags []Diagnostic
	for _, d := range perPkg {
		diags = append(diags, d...)
	}
	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i], diags[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		return a.Check < b.Check
	})
	return diags
}

// runPackage runs every analyzer over one package and returns its
// diagnostics. It is the parallel unit of Run: everything it touches
// outside its own slice is read-only by the prepare-phase contract.
func runPackage(l *Loader, pkg *Package, analyzers []*Analyzer, cache map[string]any, ran map[string]bool) []Diagnostic {
	var diags []Diagnostic
	for _, err := range pkg.TypeErrors {
		msg := err.Error()
		pos := token.Position{Filename: pkg.Dir}
		if te, ok := err.(types.Error); ok {
			pos = l.Fset.Position(te.Pos)
			msg = te.Msg
		}
		diags = append(diags, Diagnostic{Pos: pos, Check: "typecheck", Message: msg})
	}
	allows := collectAllows(l.Fset, pkg, &diags)
	for _, a := range analyzers {
		pass := &Pass{
			Analyzer: a,
			Fset:     l.Fset,
			Module:   l.Module,
			Pkg:      pkg,
			Loader:   l,
			Cache:    cache,
			allows:   allows,
			diags:    &diags,
		}
		a.Run(pass)
	}
	// Stale suppressions: only judged for analyzers that actually ran,
	// so a -checks subset never flags directives it could not exercise.
	keywords := make([]string, 0, len(allows))
	for k := range allows {
		keywords = append(keywords, k)
	}
	sort.Strings(keywords)
	for _, k := range keywords {
		if !ran[k] {
			continue
		}
		for _, r := range allows[k] {
			if !r.used {
				diags = append(diags, Diagnostic{
					Pos:     r.pos,
					Check:   "directive",
					Message: fmt.Sprintf("unused //pcsi:allow %s: no %s finding is suppressed by this directive; delete it", k, k),
				})
			}
		}
	}
	return diags
}
