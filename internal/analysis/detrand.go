package analysis

import (
	"go/ast"
	"go/types"
)

// globalRandFuncs are the math/rand package-level functions that draw from
// the shared, unseedable-per-experiment global source. rand.New,
// rand.NewSource, rand.NewZipf and the type names stay legal: RNGs must be
// constructed from a plumbed seed and injected.
var globalRandFuncs = stringSet(
	"Int", "Intn", "Int31", "Int31n", "Int63", "Int63n", "Uint32", "Uint64",
	"Float32", "Float64", "ExpFloat64", "NormFloat64", "Perm", "Shuffle", "Read", "Seed",
)

// globalRandV2Funcs is the same list for math/rand/v2, should it ever be
// adopted: every top-level draw uses the global ChaCha8 source.
var globalRandV2Funcs = stringSet(
	"Int", "IntN", "Int32", "Int32N", "Int64", "Int64N", "Uint", "UintN", "Uint32", "Uint32N",
	"Uint64", "Uint64N", "Float32", "Float64", "ExpFloat64", "NormFloat64", "Perm", "Shuffle", "N",
)

// DetRand enforces DESIGN.md §5's determinism invariant on randomness:
// no draws from the global math/rand source, and no unseeded testing/quick
// configurations. Every RNG must be derived from an explicit seed (sim.Env
// or a literal in tests) so that "same seed ⇒ identical output tables".
var DetRand = &Analyzer{
	Name:      "detrand",
	Directive: "globalrand",
	Doc:       "forbid global math/rand draws and unseeded testing/quick configs",
	Run:       runDetRand,
}

func runDetRand(pass *Pass) {
	forEachPkgRef(pass, "math/rand", func(sel *ast.SelectorExpr) {
		if globalRandFuncs[sel.Sel.Name] {
			pass.Report(sel.Pos(),
				"rand.%s draws from the unseeded global source; inject a *rand.Rand built from a plumbed seed (e.g. sim.Env.Rand or ForkRand)",
				sel.Sel.Name)
		}
	})
	forEachPkgRef(pass, "math/rand/v2", func(sel *ast.SelectorExpr) {
		if globalRandV2Funcs[sel.Sel.Name] {
			pass.Report(sel.Pos(),
				"rand.%s draws from the global math/rand/v2 source; inject a seeded *rand.Rand instead", sel.Sel.Name)
		}
	})
	checkQuickConfigs(pass)
}

// checkQuickConfigs flags testing/quick usage that falls back to the
// wall-clock-seeded default RNG: Config literals without a Rand field and
// Check/CheckEqual calls with a nil config.
func checkQuickConfigs(pass *Pass) {
	info := pass.Pkg.Info
	for _, f := range pass.Pkg.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.CompositeLit:
				tv, ok := info.Types[n]
				if !ok || !isQuickConfig(tv.Type) {
					return true
				}
				for _, elt := range n.Elts {
					if kv, ok := elt.(*ast.KeyValueExpr); ok {
						if key, ok := kv.Key.(*ast.Ident); ok && key.Name == "Rand" {
							return true
						}
					}
				}
				pass.Report(n.Pos(),
					"testing/quick config without Rand uses a wall-clock-seeded RNG; set Rand: rand.New(rand.NewSource(<literal>))")
			case *ast.CallExpr:
				sel, ok := n.Fun.(*ast.SelectorExpr)
				if !ok || (sel.Sel.Name != "Check" && sel.Sel.Name != "CheckEqual") {
					return true
				}
				id, ok := sel.X.(*ast.Ident)
				if !ok {
					return true
				}
				pn, ok := info.Uses[id].(*types.PkgName)
				if !ok || pn.Imported().Path() != "testing/quick" {
					return true
				}
				last := n.Args[len(n.Args)-1]
				if lid, ok := last.(*ast.Ident); ok && lid.Name == "nil" {
					pass.Report(last.Pos(),
						"nil testing/quick config uses a wall-clock-seeded RNG; pass &quick.Config{Rand: rand.New(rand.NewSource(<literal>))}")
				}
			}
			return true
		})
	}
}

func isQuickConfig(t types.Type) bool {
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Pkg() != nil && obj.Pkg().Path() == "testing/quick" && obj.Name() == "Config"
}
