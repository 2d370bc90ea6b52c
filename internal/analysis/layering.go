package analysis

import (
	"go/ast"
	"strconv"
	"strings"
)

// The architecture tiers of DESIGN.md §3, as module-relative package paths.
var (
	substratePkgs = stringSet(
		"internal/sim", "internal/metrics", "internal/simnet", "internal/cluster",
		"internal/platform", "internal/wire", "internal/cost", "internal/workload",
		"internal/media", "internal/trace", "internal/fault", "internal/qos",
		"internal/obs",
	)
	statePkgs = stringSet(
		"internal/object", "internal/capability", "internal/store",
		"internal/namespace", "internal/consistency", "internal/gc",
	)
	computePkgs  = stringSet("internal/faas", "internal/taskgraph", "internal/scheduler")
	baselinePkgs = stringSet("internal/restbase", "internal/nfsbase", "internal/dynamo")
)

// importRule confines one side of an import: the packages in set are the
// only ones allowed (or, with except, the ones forbidden), and why says
// what the rule protects.
type importRule struct {
	set    map[string]bool
	except bool
	why    string
}

func only(why string, pkgs ...string) importRule { return importRule{stringSet(pkgs...), false, why} }

// depRules confine what a package may import, by importer; the first rule
// whose test matches the importer applies. The cross-cutting substrates
// come first: any layer may import them, so each may itself depend on only
// what it observes or perturbs.
var depRules = []struct {
	target func(string) bool
	rule   importRule
}{
	{is("internal/trace"), only("the tracer depends only on internal/sim and the stdlib so any layer can be instrumented", "internal/sim")},
	{is("internal/fault"), only("the fault injector depends only on the sim engine and the network and cluster substrates it perturbs, so any layer can inject faults",
		"internal/sim", "internal/simnet", "internal/cluster")},
	// The admission controller gates the data plane and the invoke path;
	// the layers it gates wire it in.
	{is("internal/qos"), only("the admission controller depends only on virtual time, cluster capacity, fault classification, the tracer and the metrics it registers",
		"internal/sim", "internal/cluster", "internal/fault", "internal/trace", "internal/metrics")},
	{is("internal/obs"), only("the telemetry plane reads the metric registry and the virtual clock and writes trace instants, so attaching it never perturbs a domain layer",
		"internal/sim", "internal/metrics", "internal/trace")},
	// The colocated cache sits between state and compute; core converts
	// object IDs at the boundary.
	{is("internal/fncache"), only("the colocated cache sees the consistency layer's stamps and the substrates, nothing above",
		"internal/sim", "internal/cluster", "internal/consistency", "internal/trace", "internal/metrics", "internal/fault")},
	{is("internal/faasfs"), only("the transactional file system reaches objects only through the capability-checked core client",
		"internal/core", "internal/consistency", "internal/fault", "internal/trace", "internal/sim")},
	{in(substratePkgs), importRule{substratePkgs, false, "substrates depend only on the stdlib and other substrates"}},
	{in(statePkgs), importRule{union(substratePkgs, statePkgs), false, "the state layer sits below compute and core"}},
	{in(computePkgs), importRule{union(substratePkgs, statePkgs, computePkgs, stringSet("internal/fncache")), false, "only internal/core ties compute to the full system"}},
	{in(baselinePkgs), importRule{union(computePkgs, stringSet("internal/core", "pcsi")), true, "baselines are what PCSI is measured against and must not share its implementation"}},
	{is("internal/core"), importRule{union(baselinePkgs, stringSet("pcsi", "internal/experiments")), true, "the PCSI core stands alone from baselines and harnesses"}},
	{is("pcsi"), importRule{union(baselinePkgs, stringSet("internal/store", "internal/experiments", "internal/pcsinet", "internal/analysis")), true, "the facade re-exports internal/core's API surface only"}},
}

// importerRules confine who may import a package.
var importerRules = map[string]importRule{
	// The baselines are alternative front doors "over the same store".
	"internal/store": {union(statePkgs, baselinePkgs, stringSet("internal/core")), false,
		"raw store access is reserved for the state layer, core, and the baselines; pick media via internal/media and reach objects through capability-checked interfaces"},
	"internal/core": only("binaries and examples go through the pcsi facade",
		"pcsi", "internal/pcsinet", "internal/experiments", "internal/faasfs"),
	"internal/analysis": only("only cmd/pcsi-vet runs the analyzers", "cmd/pcsi-vet"),
	"internal/qos": only("admission control is wired in by core, faas, and taskgraph; configure it through the pcsi facade",
		"internal/core", "internal/faas", "internal/taskgraph", "pcsi", "internal/experiments"),
	"internal/obs": only("telemetry planes are attached by core, faas, and taskgraph and rendered by the harness and binaries; export metrics through the registry instead",
		"internal/core", "internal/faas", "internal/taskgraph", "pcsi", "internal/experiments", "cmd/pcsictl"),
	"internal/fncache": only("colocated caches are wired in by faas and core; configure them through the pcsi facade",
		"internal/faas", "internal/core", "pcsi", "internal/experiments"),
	"internal/faasfs": only("sessions are opened by faas and taskgraph invocations; configure mounts through the pcsi facade",
		"internal/faas", "internal/taskgraph", "pcsi", "internal/experiments"),
}

func is(pkg string) func(string) bool          { return func(p string) bool { return p == pkg } }
func in(set map[string]bool) func(string) bool { return func(p string) bool { return set[p] } }

// allows reports whether the rule admits pkg.
func (r importRule) allows(pkg string) bool { return r.set[pkg] != r.except }

func stringSet(elems ...string) map[string]bool {
	m := make(map[string]bool, len(elems))
	for _, e := range elems {
		m[e] = true
	}
	return m
}

func union(sets ...map[string]bool) map[string]bool {
	m := make(map[string]bool)
	for _, s := range sets {
		for k := range s {
			m[k] = true
		}
	}
	return m
}

// Layering enforces the import-graph rules of DESIGN.md §3: substrates
// import no state/compute/core code, the state layer never reaches up into
// compute or core, baselines never import internal/core, direct
// internal/store access is reserved for the state layer + core + baselines,
// and only the stdlib is ever imported from outside the module.
var Layering = &Analyzer{
	Name:      "layering",
	Directive: "layering",
	Doc:       "enforce the substrate→state→compute→core import layering and the stdlib-only rule",
	Run:       runLayering,
}

func runLayering(pass *Pass) {
	target := relPath(pass.Module, strings.TrimSuffix(pass.Pkg.Path, "_test"))
	for _, f := range pass.Pkg.Files {
		for _, imp := range f.Imports {
			path, err := strconv.Unquote(imp.Path.Value)
			if err != nil {
				continue
			}
			checkImport(pass, imp, target, path)
		}
	}
}

func checkImport(pass *Pass, imp *ast.ImportSpec, target, path string) {
	if path == "C" {
		pass.Report(imp.Pos(), "cgo is not used in this repository")
		return
	}
	inModule := path == pass.Module || strings.HasPrefix(path, pass.Module+"/")
	if !inModule {
		if first, _, _ := strings.Cut(path, "/"); strings.Contains(first, ".") {
			pass.Report(imp.Pos(), "import of %s breaks the stdlib-only rule: all code builds from the standard library alone", path)
		}
		return
	}
	dep := relPath(pass.Module, path)
	if dep == target {
		// An external _test package importing the package under test.
		return
	}
	for _, r := range depRules {
		if r.target(target) {
			if !r.rule.allows(dep) {
				pass.Report(imp.Pos(), "%s may not import %s: %s (DESIGN.md §3)", target, dep, r.rule.why)
				return
			}
			break
		}
	}
	if r, ok := importerRules[dep]; ok && !r.allows(target) {
		pass.Report(imp.Pos(), "%s may not import %s: %s", target, dep, r.why)
	}
}
