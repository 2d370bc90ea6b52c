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

	// faultDeps are the only packages internal/fault may import: the fault
	// injector manipulates the network and cluster substrates but must stay
	// importable from every domain layer without dragging anything else in.
	faultDeps = stringSet("internal/sim", "internal/simnet", "internal/cluster")

	// qosDeps are the only packages internal/qos may import: the admission
	// controller schedules over virtual time and cluster capacity and emits
	// trace events, but must not know about metrics (it takes interfaces),
	// the state layer, or compute — the layers it gates wire it in.
	qosDeps = stringSet("internal/sim", "internal/cluster", "internal/fault", "internal/trace")

	// qosClients are the only packages that may import internal/qos: the
	// admission-controlled layers (core's data plane, faas invoke,
	// taskgraph), the facade that re-exports its configuration, and the
	// experiment harness that measures it.
	qosClients = stringSet(
		"internal/core", "internal/faas", "internal/taskgraph",
		"pcsi", "internal/experiments",
	)
	// obsDeps are the only packages internal/obs may import: the telemetry
	// plane samples metrics on virtual time and emits alert instants into
	// the tracer, and nothing else — attaching a plane must never drag a
	// domain layer in.
	obsDeps = stringSet("internal/sim", "internal/metrics", "internal/trace")

	// obsClients are the only packages that may import internal/obs: the
	// layers that attach planes and record flight events (core, faas,
	// taskgraph), the facade, the experiment harness, and the binaries that
	// render dashboards. Everything else observes through the registry.
	obsClients = stringSet(
		"internal/core", "internal/faas", "internal/taskgraph",
		"pcsi", "internal/experiments", "cmd/pcsictl", "cmd/pcsi-bench",
	)

	// fncacheDeps are the only packages internal/fncache may import: the
	// colocated function cache keeps coherence bookkeeping over virtual
	// time, stamps from the consistency layer, and metrics in the registry,
	// and classifies its decode errors through fault, but never touches
	// objects or the store directly — core converts IDs at the boundary.
	fncacheDeps = stringSet(
		"internal/sim", "internal/cluster", "internal/consistency",
		"internal/trace", "internal/metrics", "internal/fault",
	)

	// fncacheClients are the only packages that may import internal/fncache:
	// the compute layer that colocates it (faas), the core that wires
	// coherence hooks, the facade, and the experiment harness.
	fncacheClients = stringSet(
		"internal/faas", "internal/core", "pcsi", "internal/experiments",
	)

	// faasfsDeps are the only packages internal/faasfs may import: the
	// transactional file system is a client of the capability-checked core
	// (its only route to objects), classifies conflicts through fault,
	// pins snapshots with consistency stamps, and instruments commits over
	// virtual time — never the store, the baselines, or compute.
	faasfsDeps = stringSet(
		"internal/core", "internal/consistency", "internal/fault",
		"internal/trace", "internal/sim",
	)

	// faasfsClients are the only packages that may import internal/faasfs:
	// the compute layers that open per-invocation sessions (faas,
	// taskgraph), the facade that re-exports the session API, and the
	// experiment harness.
	faasfsClients = stringSet(
		"internal/faas", "internal/taskgraph", "pcsi", "internal/experiments",
	)

	statePkgs = stringSet(
		"internal/object", "internal/capability", "internal/store",
		"internal/namespace", "internal/consistency", "internal/gc",
	)
	computePkgs  = stringSet("internal/faas", "internal/taskgraph", "internal/scheduler")
	baselinePkgs = stringSet("internal/restbase", "internal/nfsbase", "internal/dynamo", "internal/posix")

	// storeClients are the only packages that may import internal/store
	// directly: the rest of the state layer, core, and the baselines (which
	// the paper defines as alternative front doors "over the same store").
	// Everything else configures media via internal/media and reaches
	// objects through capability-checked interfaces.
	storeClients = union(statePkgs, baselinePkgs, stringSet("internal/core"))

	// coreClients are the only packages that may import internal/core: the
	// public facade, the wire daemon, and the experiment harness. Binaries
	// and examples go through the pcsi facade.
	coreClients = stringSet("pcsi", "internal/pcsinet", "internal/experiments", "internal/faasfs")

	// analysisClients may import internal/analysis.
	analysisClients = stringSet("cmd/pcsi-vet")
)

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
	Kind:      "syntactic",
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

	switch {
	case target == "internal/trace":
		// The tracer is cross-cutting: any layer may import it, but it may
		// itself depend only on the sim engine (and the stdlib) so that
		// instrumenting a package never drags in extra layers.
		if dep != "internal/sim" {
			pass.Report(imp.Pos(), "internal/trace may not import %s: the tracer depends only on internal/sim and the stdlib so any layer can be instrumented (DESIGN.md §3)", dep)
			return
		}
	case target == "internal/fault":
		// The fault injector is cross-cutting like the tracer: any layer may
		// import it, but it may itself depend only on the sim engine and the
		// network/cluster substrates it perturbs.
		if !faultDeps[dep] {
			pass.Report(imp.Pos(), "internal/fault may not import %s: the fault injector depends only on internal/sim, internal/simnet, and internal/cluster so any layer can inject faults (DESIGN.md §3)", dep)
			return
		}
	case target == "internal/qos":
		// The admission controller gates the data plane and the invoke path
		// but depends only on the scheduling substrate: virtual time, the
		// cluster it derives capacity from, the fault layer's error
		// classification, and the tracer. Metrics arrive as interfaces.
		if !qosDeps[dep] {
			pass.Report(imp.Pos(), "internal/qos may not import %s: the admission controller depends only on internal/sim, internal/cluster, internal/fault, and internal/trace; metrics are wired in as interfaces (DESIGN.md §3)", dep)
			return
		}
	case target == "internal/obs":
		// The telemetry plane is an observer: it reads the metric registry
		// and the virtual clock and writes trace instants, so those three
		// substrates are its whole dependency surface.
		if !obsDeps[dep] {
			pass.Report(imp.Pos(), "internal/obs may not import %s: the telemetry plane depends only on internal/sim, internal/metrics, and internal/trace so attaching it never perturbs a domain layer (DESIGN.md §3)", dep)
			return
		}
	case target == "internal/fncache":
		// The colocated cache sits between state and compute: it may see
		// the consistency layer's stamps and the substrates, nothing above.
		if !fncacheDeps[dep] {
			pass.Report(imp.Pos(), "internal/fncache may not import %s: the colocated cache depends only on internal/sim, internal/cluster, internal/consistency, internal/trace, internal/metrics, and internal/fault (DESIGN.md §3)", dep)
			return
		}
	case target == "internal/faasfs":
		// The transactional file system reaches objects only through the
		// capability-checked core client; everything else it may see is the
		// cross-cutting substrate.
		if !faasfsDeps[dep] {
			pass.Report(imp.Pos(), "internal/faasfs may not import %s: the transactional file system depends only on internal/core, internal/consistency, internal/fault, internal/trace, and internal/sim (DESIGN.md §3)", dep)
			return
		}
	case substratePkgs[target]:
		if !substratePkgs[dep] {
			pass.Report(imp.Pos(), "substrate package %s may not import %s: substrates depend only on the stdlib and other substrates (DESIGN.md §3)", target, dep)
			return
		}
	case statePkgs[target]:
		if !substratePkgs[dep] && !statePkgs[dep] {
			pass.Report(imp.Pos(), "state-layer package %s may not import %s: the state layer sits below compute and core (DESIGN.md §3)", target, dep)
			return
		}
	case computePkgs[target]:
		if !substratePkgs[dep] && !statePkgs[dep] && !computePkgs[dep] && dep != "internal/fncache" {
			pass.Report(imp.Pos(), "compute-layer package %s may not import %s: only internal/core ties compute to the full system (DESIGN.md §3)", target, dep)
			return
		}
	case baselinePkgs[target]:
		if dep == "internal/core" || dep == "pcsi" || computePkgs[dep] {
			pass.Report(imp.Pos(), "baseline package %s may not import %s: baselines are what PCSI is measured against and must not share its implementation", target, dep)
			return
		}
	case target == "internal/core":
		if baselinePkgs[dep] || dep == "pcsi" || dep == "internal/experiments" {
			pass.Report(imp.Pos(), "internal/core may not import %s: the PCSI core stands alone from baselines and harnesses", dep)
			return
		}
	case target == "pcsi":
		if baselinePkgs[dep] || dep == "internal/store" || dep == "internal/experiments" || dep == "internal/pcsinet" || dep == "internal/analysis" {
			pass.Report(imp.Pos(), "pcsi may not import %s: the facade re-exports internal/core's API surface only", dep)
			return
		}
	}

	switch dep {
	case "internal/store":
		if !storeClients[target] {
			pass.Report(imp.Pos(), "%s may not import internal/store directly: raw store access is reserved for the state layer, core, and the baselines; pick media via internal/media and reach objects through capability-checked interfaces", target)
		}
	case "internal/core":
		if !coreClients[target] {
			pass.Report(imp.Pos(), "%s may not import internal/core directly: use the pcsi facade", target)
		}
	case "internal/analysis":
		if !analysisClients[target] {
			pass.Report(imp.Pos(), "%s may not import internal/analysis: only cmd/pcsi-vet runs the analyzers", target)
		}
	case "internal/qos":
		if !qosClients[target] {
			pass.Report(imp.Pos(), "%s may not import internal/qos: admission control is wired in by core, faas, and taskgraph; configure it through the pcsi facade", target)
		}
	case "internal/obs":
		if !obsClients[target] {
			pass.Report(imp.Pos(), "%s may not import internal/obs: telemetry planes are attached by core, faas, and taskgraph and rendered by the harness and binaries; export metrics through the registry instead", target)
		}
	case "internal/fncache":
		if !fncacheClients[target] {
			pass.Report(imp.Pos(), "%s may not import internal/fncache: colocated caches are wired in by faas and core; configure them through the pcsi facade", target)
		}
	case "internal/faasfs":
		if !faasfsClients[target] {
			pass.Report(imp.Pos(), "%s may not import internal/faasfs: sessions are opened by faas and taskgraph invocations; configure mounts through the pcsi facade", target)
		}
	}
}
