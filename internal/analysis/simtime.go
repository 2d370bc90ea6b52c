package analysis

import (
	"go/ast"
	"go/types"
)

// wallClockFuncs are the package time functions that read or wait on the
// machine clock. Durations, formatting, and construction (time.Duration,
// time.Unix, ...) are fine everywhere — only clock access is domain-bound.
var wallClockFuncs = stringSet(
	"Now", "Sleep", "Since", "Until", "After", "AfterFunc", "Tick", "NewTimer", "NewTicker",
)

// SimTime forbids wall-clock access in simulation-domain code. DESIGN.md §5:
// all cloud-side latencies advance the deterministic sim.Env clock, so a
// stray time.Now silently breaks "same seed ⇒ identical output tables". The
// real-measurement sites (Table 1 rows, loopback servers) opt out with
// //pcsi:allow wallclock.
var SimTime = &Analyzer{
	Name:      "simtime",
	Directive: "wallclock",
	Doc:       "forbid wall-clock time.Now/Sleep/... outside annotated real-measurement code",
	Run:       runSimTime,
}

func runSimTime(pass *Pass) {
	forEachPkgRef(pass, "time", func(sel *ast.SelectorExpr) {
		if wallClockFuncs[sel.Sel.Name] {
			pass.Report(sel.Pos(),
				"wall-clock time.%s in simulation-domain code; use sim.Env virtual time, or annotate a real measurement with //pcsi:allow wallclock",
				sel.Sel.Name)
		}
	})
}

// forEachPkgRef calls fn for every selector expression whose qualifier
// resolves (via go/types) to an import of pkgPath. Locally shadowed
// identifiers named after the package do not trigger fn.
func forEachPkgRef(pass *Pass, pkgPath string, fn func(*ast.SelectorExpr)) {
	for _, f := range pass.Pkg.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			sel, ok := n.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			id, ok := sel.X.(*ast.Ident)
			if !ok {
				return true
			}
			pn, ok := pass.Pkg.Info.Uses[id].(*types.PkgName)
			if !ok || pn.Imported().Path() != pkgPath {
				return true
			}
			fn(sel)
			return true
		})
	}
}
