package analysis

import (
	"go/ast"
	"go/types"
	"strings"
)

// objectMutators are the internal/object methods that change object state.
// Snapshot is one: it moves the object's shared mark and hands out its array
// uncopied. Reads (ReadAt, Read, ContentHash, ...) and construction (New,
// Clone) are unrestricted.
var objectMutators = stringSet(
	"SetData", "ShareData", "WriteAt", "Append", "Truncate", "SetMutability", "ApplyState", "Snapshot",
)

// storeMutators are the internal/store methods that create, change, or
// delete stored objects or their accounting.
var storeMutators = stringSet(
	"Create", "Insert", "AllocID", "CountWrite", "SetData", "Append", "Delete",
)

// mutationClients are the packages allowed to mutate objects and stores
// directly: the state layer itself, core (whose Client checks capability
// rights before every mutation), and the baselines (whose whole point is
// modelling the non-capability world). Everyone else must go through a
// capability-checked entry point — core.Client or the pcsi facade — or
// annotate a deliberate exception with //pcsi:allow rawmutation.
var mutationClients = union(statePkgs, baselinePkgs, stringSet("internal/core"))

// CapDiscipline enforces DESIGN.md §5's capability-safety invariant
// statically: no ambient authority over state. Outside the sanctioned
// layers, calling a mutating method on an internal/object.Object or an
// internal/store.Store bypasses the rights check that every capability
// reference carries.
var CapDiscipline = &Analyzer{
	Name:      "capdiscipline",
	Directive: "rawmutation",
	Doc:       "forbid raw object/store mutation outside capability-checked layers",
	Run:       runCapDiscipline,
}

func runCapDiscipline(pass *Pass) {
	target := relPath(pass.Module, strings.TrimSuffix(pass.Pkg.Path, "_test"))
	if mutationClients[target] {
		return
	}
	for _, f := range pass.Pkg.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			sel, ok := call.Fun.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			fn, name := calleeFunc(pass.Pkg.Info, call), sel.Sel.Name
			switch {
			case objectMutators[name] && isModuleMethod(pass, fn, "internal/object", "Object", name):
				pass.Report(sel.Pos(),
					"raw object mutation object.Object.%s outside the capability-checked layers; go through core.Client/pcsi (rights-checked) or annotate //pcsi:allow rawmutation",
					name)
			case storeMutators[name] && isModuleMethod(pass, fn, "internal/store", "Store", name):
				pass.Report(sel.Pos(),
					"raw store mutation store.Store.%s outside the state layer; go through core.Client/pcsi (rights-checked) or annotate //pcsi:allow rawmutation",
					name)
			}
			return true
		})
	}
}

// receiverNamed returns the named type of fn's receiver, unwrapping a
// pointer, or nil if fn is not a method.
func receiverNamed(fn *types.Func) *types.Named {
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return nil
	}
	t := sig.Recv().Type()
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, _ := t.(*types.Named)
	return named
}
