// Package analysis is a stdlib-only static-analysis framework (go/parser +
// go/types, no golang.org/x/tools) that enforces this repository's design
// invariants from DESIGN.md §5: deterministic virtual time, seeded
// randomness, the substrate→state→compute→core layering, and
// capability-checked object mutation. The cmd/pcsi-vet CLI runs it over
// any package pattern, and a self-enforcement test keeps the repo itself
// clean. `pcsi-vet -list` prints the checks and their directive keywords;
// DESIGN.md §5 says why each one is there. No engine sits behind them:
// every check is an AST or declaration walk within one function or
// package, plus errclass's one module-wide fact (the import closure of the
// fault.Policy.Do callers). maprange and spanbalance share one question
// about exits (exits.go) in place of a control-flow graph.
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
	"cmp"
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"slices"
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
	// Prepare, if set, runs once before the per-package passes fan out,
	// with a pass carrying no package. It builds whole-program indexes
	// (errclass's import closure) into the shared Cache and may trigger
	// lazy package loads; because the per-package passes then run in
	// parallel, ALL Cache writes and Loader loads must happen here.
	// Prepare must not report diagnostics.
	Prepare func(*Pass)
	// Run inspects one package and reports findings through the pass.
	Run func(*Pass)
}

// All returns the repo's analyzers.
func All() []*Analyzer {
	return []*Analyzer{
		SimTime, DetRand, Layering, CapDiscipline,
		MapRange, ErrClass, SpanBalance,
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

// collectAllows scans a package's comments for //pcsi:allow directives and
// returns the suppressed line ranges per keyword. Unknown keywords, and any
// //pcsi: directive other than allow, are reported as diagnostics so typos
// and retired directives cannot silently linger.
func collectAllows(fset *token.FileSet, pkg *Package, diags *[]Diagnostic) map[string][]*allowRange {
	var keywords []string // the recognized //pcsi:allow arguments
	for _, a := range All() {
		keywords = append(keywords, a.Directive)
	}
	sort.Strings(keywords)
	bad := func(c *ast.Comment, format string, args ...any) {
		*diags = append(*diags, Diagnostic{Pos: fset.Position(c.Pos()), Check: "directive", Message: fmt.Sprintf(format, args...)})
	}
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
				rest, ok := strings.CutPrefix(c.Text, "//pcsi:")
				if !ok {
					continue
				}
				fields := strings.Fields(rest)
				if len(fields) == 0 || fields[0] != "allow" {
					bad(c, "unknown directive: the only //pcsi: directive is //pcsi:allow <check>")
					continue
				}
				fields = fields[1:]
				if len(fields) == 0 {
					bad(c, "//pcsi:allow needs a check name (%s)", strings.Join(keywords, ", "))
					continue
				}
				keyword := fields[0]
				if !slices.Contains(keywords, keyword) {
					bad(c, "unknown //pcsi:allow check %q", keyword)
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
	slices.SortFunc(diags, func(a, b Diagnostic) int {
		return cmp.Or(cmp.Compare(a.Pos.Filename, b.Pos.Filename), cmp.Compare(a.Pos.Line, b.Pos.Line),
			cmp.Compare(a.Pos.Column, b.Pos.Column), cmp.Compare(a.Check, b.Check), cmp.Compare(a.Message, b.Message))
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
