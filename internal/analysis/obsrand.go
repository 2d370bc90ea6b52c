package analysis

import (
	"go/ast"
	"go/types"
	"strings"
)

// obsrandClients are the module-relative packages allowed to draw from
// sim.Env.ObserverRand: the stream's owner plus the observer-domain layers
// (tracing, fault jitter, QoS tie-breaking). Everything else is
// workload-visible and must use Env.Rand/ForkRand, whose draws are part of
// the replayed execution.
var obsrandClients = stringSet(
	"internal/sim", "internal/fault", "internal/trace", "internal/qos",
)

// ObsRand enforces the PR 3 byte-identity invariant statically: observer
// streams (span IDs, retry jitter, WFQ tie-breaks) are derived from the
// seed without touching the environment's fork counter, so reading one from
// workload-visible code would make "observed" and "unobserved" runs draw
// different random numbers — exactly the perturbation ObserverRand exists
// to prevent.
var ObsRand = &Analyzer{
	Name:      "obsrand",
	Kind:      "syntactic",
	Directive: "obsrand",
	Doc:       "restrict sim.Env.ObserverRand to the observer-domain packages (fault, trace, qos)",
	Run:       runObsRand,
}

func runObsRand(pass *Pass) {
	target := relPath(pass.Module, strings.TrimSuffix(pass.Pkg.Path, "_test"))
	if obsrandClients[target] {
		return
	}
	simPkg := pass.Module + "/internal/sim"
	for _, f := range pass.Pkg.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			sel, ok := n.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			fn, ok := pass.Pkg.Info.Uses[sel.Sel].(*types.Func)
			if !ok || fn.Name() != "ObserverRand" {
				return true
			}
			recv := receiverNamed(fn)
			if recv == nil || recv.Obj().Pkg() == nil ||
				recv.Obj().Pkg().Path() != simPkg || recv.Obj().Name() != "Env" {
				return true
			}
			pass.Report(sel.Pos(),
				"sim.Env.ObserverRand is reserved for observer-domain packages (internal/fault, internal/trace, internal/qos): workload-visible code must draw from Env.Rand or Env.ForkRand so observation never perturbs the run")
			return true
		})
	}
}
