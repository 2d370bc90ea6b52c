// Package core implements the paper's contribution: the Portable Cloud
// System Interface (PCSI), a unified interface to cloud state and
// computation (§3).
//
// A Cloud wires together every substrate — the simulated datacenter
// network and cluster, the replicated object store with the two-entry
// consistency menu, capability references, per-function namespaces with
// union layering, the autoscaling function runtime, task graphs, and
// reachability GC — behind one small set of verbs. Clients are bound to an
// origin node, so every operation pays realistic (simulated) network,
// media, and protocol costs.
//
// The deliberate contrasts with the baselines:
//
//   - Access is by reference (capability), not by re-authenticated name:
//     rights are checked locally at the API boundary once per operation
//     instead of per-request credential validation on a remote front door.
//   - The protocol is stateful and binary-framed: no per-call connection
//     setup, HTTP parsing, or JSON marshaling (cf. internal/restbase).
//   - Consistency and mutability are explicit per object.
package core

import (
	"bytes"
	"errors"
	"fmt"
	"slices"
	"sort"

	"repro/internal/capability"
	"repro/internal/cluster"
	"repro/internal/consistency"
	"repro/internal/cost"
	"repro/internal/faas"
	"repro/internal/fault"
	"repro/internal/fncache"
	"repro/internal/gc"
	"repro/internal/media"
	"repro/internal/metrics"
	"repro/internal/object"
	"repro/internal/obs"
	"repro/internal/platform"
	"repro/internal/qos"
	"repro/internal/scheduler"
	"repro/internal/sim"
	"repro/internal/simnet"
	"repro/internal/trace"
)

// PlacementPolicy selects the scheduler used for function placement.
type PlacementPolicy int

// The available policies.
const (
	PlaceNaive PlacementPolicy = iota
	PlacePacked
	PlaceColocate
	PlaceScavenge
)

// String names the policy.
func (p PlacementPolicy) String() string {
	switch p {
	case PlaceNaive:
		return "naive"
	case PlacePacked:
		return "packed"
	case PlaceColocate:
		return "colocate"
	case PlaceScavenge:
		return "scavenge"
	default:
		return "unknown"
	}
}

// Options configures a Cloud.
type Options struct {
	Seed       int64
	NetProfile simnet.Profile
	ClusterCfg cluster.Config
	// Replicas is the state replication factor (one per rack by default).
	Replicas int
	Media    media.Profile
	Policy   PlacementPolicy
	// FaaS tuning.
	IdleTimeout  sim.Duration
	EvictionProb float64
	// Retry, when set, wraps data/meta/fn operations in the policy (bound
	// to this cloud's env). Nil keeps the historical fail-immediately
	// behavior; during an active fault session the session's default
	// policy is adopted instead.
	Retry *fault.Policy
	// QoS, when set, builds an admission controller over the cluster and
	// threads it through data ops, function invocations, and task graphs.
	// Nil keeps the historical unguarded paths byte-identical.
	QoS *qos.Config
	// FnCache, when set, colocates a function cache with the executors
	// (internal/fncache): linearizable objects cache under virtual-time
	// leases with invalidate-on-write, eventual objects as lattice CRDTs
	// merged by anti-entropy. Nil keeps every hook inert and the run
	// byte-identical to a cache-free build.
	FnCache *fncache.Config
}

// gpuMemMB is each GPU node's device memory.
const gpuMemMB = 16384

// DefaultOptions returns a representative mid-size deployment.
func DefaultOptions() Options {
	return Options{
		Seed:       1,
		NetProfile: simnet.DC2021,
		ClusterCfg: cluster.DefaultConfig,
		Replicas:   3,
		Media:      media.NVMe,
		Policy:     PlaceColocate,
	}
}

// Cloud is one PCSI deployment.
type Cloud struct {
	opts Options
	env  *sim.Env
	net  *simnet.Network
	cl   *cluster.Cluster
	grp  *consistency.Group
	rt   *faas.Runtime
	caps *capability.Registry
	col  *gc.Collector

	inj      *fault.Injector // nil outside chaos sessions
	retry    *fault.Policy   // nil = no retries
	qos      *qos.Controller // nil = no admission control
	obsPlane *obs.Plane      // nil outside obs sessions
	fncache  *fncache.Cache  // nil = no colocated caches

	fnRefs   map[string]Ref // function name -> code object ref
	fnByCode map[object.ID]string
	nsRoots  map[object.ID]struct{}
	devices  map[simnet.NodeID]*platform.Device

	// caches holds what each node may serve: cache-stable content (§3.3: once
	// frozen, "content ... may be safely cached anywhere") and nothing else.
	// A whole-object write or read leaves only a version mark; freezing to
	// IMMUTABLE turns a current mark into a view of the frozen bytes, and
	// same-node reads are then local — the mechanism of §4.1's co-location win.
	caches map[cacheKey]cacheEntry

	// ephem holds node-local, unreplicated objects (see ephemeral.go).
	ephem      map[object.ID]*ephemObj
	ephemDrops object.ID

	// reg is the unified metrics directory; the exported fields below
	// alias its entries for terse call sites.
	reg *trace.Registry

	// Meters and counters shared by experiments.
	Meter   *cost.Meter
	DataLat *metrics.Histogram
	// BytesMoved tallies payload bytes that crossed the network on data
	// operations (E4's data-movement metric).
	BytesMoved int64
	// CacheHits counts local reads served from a node cache.
	CacheHits int64
	// RetryAttempts counts retried operations (chaos diagnostics).
	RetryAttempts int64
	// GraphsStarted/GraphsFinished bracket RunGraph calls; the chaos
	// harness asserts they match (graphs complete or fail cleanly, never
	// leak mid-flight).
	GraphsStarted  int64
	GraphsFinished int64
}

type cacheKey struct {
	node simnet.NodeID
	id   object.ID
}

// cacheEntry is what one node holds of one object: the frozen bytes once it
// is IMMUTABLE, and until then no bytes at all.
type cacheEntry struct {
	stable bool   // frozen IMMUTABLE: data is safe to serve
	data   []byte // a view of the frozen bytes, shared with the store
	mark   uint64 // until stable: the version this node last wrote or read whole
}

// New builds a Cloud.
func New(opts Options) *Cloud {
	if opts.Replicas <= 0 {
		opts.Replicas = 3
	}
	if opts.Media.Name == "" {
		opts.Media = media.NVMe
	}
	env := sim.NewEnv(opts.Seed)
	trace.Of(env).SetLabel("pcsi/" + opts.Policy.String())
	net := simnet.New(env, opts.NetProfile)
	cl := cluster.New(env, net, opts.ClusterCfg)

	// Storage replicas spread across racks on dedicated storage nodes.
	var storageNodes []simnet.NodeID
	for i := 0; i < opts.Replicas; i++ {
		rack := i % max(opts.ClusterCfg.Racks, 1)
		storageNodes = append(storageNodes, net.AddNode(rack))
	}
	grp := consistency.NewGroup(env, net, storageNodes, opts.Media)

	c := &Cloud{
		opts:    opts,
		env:     env,
		net:     net,
		cl:      cl,
		grp:     grp,
		caps:    capability.NewRegistry(),
		fnRefs:  make(map[string]Ref),
		nsRoots: make(map[object.ID]struct{}),
		devices: make(map[simnet.NodeID]*platform.Device),
		caches:  make(map[cacheKey]cacheEntry),
		reg:     trace.NewRegistry(),
		Meter:   cost.NewMeter("pcsi"),
		DataLat: metrics.NewHistogram("pcsi_data_ops"),
	}
	c.reg.Register(c.DataLat)

	// Telemetry plane (optional): an active obs session samples this
	// cloud's registry on its own virtual clock. No session ⇒ nil plane ⇒
	// every hook below is an inert nil check and the run stays
	// byte-identical to an unobserved one.
	c.obsPlane = obs.ActiveSession().Attach(env, c.reg, "pcsi/"+opts.Policy.String())

	// Colocated function caches (optional): lease coherence for
	// linearizable objects, lattice merges for eventual ones. The merger
	// upgrade to anti-entropy only installs alongside the cache, so
	// cache-free deployments keep last-writer-wins byte-identically.
	if opts.FnCache != nil {
		c.fncache = fncache.New(env, *opts.FnCache, c.reg)
		grp.SetMerger(fncache.MergePayload)
	}

	var plc faas.Placer
	switch opts.Policy {
	case PlaceNaive:
		plc = scheduler.Naive{C: cl}
	case PlacePacked:
		plc = scheduler.Packed{C: cl}
	case PlaceScavenge:
		plc = scheduler.Scavenge{C: cl, Fallback: scheduler.Packed{C: cl}}
	default:
		plc = scheduler.GPUAware{C: cl, Inner: scheduler.Colocate{C: cl}}
	}
	// Admission control (optional): the controller derives concurrency
	// limits from this cluster and exports per-class queue metrics into
	// the cloud's registry. Nil config ⇒ nil controller ⇒ every Admit is
	// an inlined no-op and the run is byte-identical to a pre-QoS build.
	if opts.QoS != nil {
		c.qos = qos.New(env, cl, *opts.QoS)
		c.instrumentQoS()
	}

	c.rt = faas.NewRuntime(cl, scheduler.Traced{Env: env, Inner: plc}, faas.Config{
		IdleTimeout:  opts.IdleTimeout,
		CodeStore:    grp.Primary0Node(),
		EvictionProb: opts.EvictionProb,
		Metrics:      c.reg,
		QoS:          c.qos,
		FnCache:      c.fncache,
	})

	// Fault-injection wiring. Only a non-idle active session yields an
	// injector; otherwise all of this is inert and the run stays
	// byte-identical to a fault-free one.
	if inj := fault.Attach(env, net, cl); inj != nil {
		c.inj = inj
		c.rt.SetFailFast(true)
		inj.Observe(func(n fault.Notice) {
			trace.Of(env).Instant("fault", "fault", n.Kind, trace.Str("detail", n.Detail))
			c.obsPlane.Record("fault", n.Kind, n.Detail)
		})
		inj.OnNodeDown(func(id simnet.NodeID, down bool) {
			if down {
				c.rt.FailNode(id)
			}
		})
		if opts.Retry == nil {
			opts.Retry = fault.ActiveSession().Spec().Retry
		}
	}
	if opts.Retry != nil {
		c.retry = opts.Retry.Bind(env)
		if c.retry.Retryable == nil {
			c.retry.Retryable = DefaultRetryable
		}
		if c.retry.OnAttempt == nil {
			c.retry.OnAttempt = func(op string, attempt int, err error, delay sim.Duration) {
				c.RetryAttempts++
				c.inj.Note("retry.attempt")
				c.obsPlane.Record("retry", op, err.Error())
				trace.Of(env).Instant("fault", "retry", op,
					trace.Int("attempt", int64(attempt)),
					trace.Str("err", err.Error()), trace.Str("delay", delay.String()))
			}
		}
	}
	if s := fault.ActiveSession(); s != nil {
		s.AddCheck("pcsi/"+opts.Policy.String(), c.chaosInvariants)
	}

	c.col = gc.New(grp.Primary0Store())
	c.col.AddRoots(c.caps)
	c.col.AddRoots(gc.RootsFunc(c.namespaceRoots))
	c.col.AddRoots(gc.RootsFunc(c.functionRoots))

	for _, n := range cl.Nodes() {
		if n.HasGPU() {
			c.devices[n.ID] = platform.NewDevice(gpuMemMB)
		}
	}
	return c
}

// instrumentQoS registers per-class queue-depth/in-flight gauges, a
// queue-delay histogram, and admit/shed counters in the cloud's metrics
// registry and hands them to the controller. metrics.Gauge, Histogram,
// and Counter satisfy the qos metric interfaces structurally — qos itself
// never imports internal/metrics.
func (c *Cloud) instrumentQoS() {
	for _, class := range []qos.Class{qos.ClassData, qos.ClassInvoke, qos.ClassTask} {
		if !c.qos.Enabled(class) {
			continue
		}
		depth := metrics.NewGauge("qos_" + class.String() + "_queue_depth")
		inflight := metrics.NewGauge("qos_" + class.String() + "_inflight")
		delay := metrics.NewHistogram("qos_" + class.String() + "_queue_delay")
		admitted := metrics.NewCounter("qos_" + class.String() + "_admitted")
		shed := metrics.NewCounter("qos_" + class.String() + "_shed")
		c.reg.Register(depth)
		c.reg.Register(inflight)
		c.reg.Register(delay)
		c.reg.Register(admitted)
		c.reg.Register(shed)
		// Per-tenant accounting: counters created lazily at first sight of
		// a tenant, cached so the admission hot path pays one map lookup.
		// The name concatenation runs once per (class, tenant).
		prefix := "qos_" + class.String() + "_tenant_"
		qlabel := "qos_" + class.String()
		admitByTenant := make(map[string]*metrics.Counter)
		shedByTenant := make(map[string]*metrics.Counter)
		c.qos.Instrument(class, qos.Instruments{
			QueueDepth: depth,
			InFlight:   inflight,
			QueueDelay: delay,
			Admitted:   admitted,
			Shed:       shed,
			OnAdmit: func(now sim.Time, tenant string, delay sim.Duration) {
				m := admitByTenant[tenant]
				if m == nil {
					m = metrics.NewCounter(prefix + tenant + "_admitted")
					c.reg.Register(m)
					admitByTenant[tenant] = m
				}
				m.Inc()
			},
			OnShed: func(now sim.Time, tenant, reason string) {
				m := shedByTenant[tenant]
				if m == nil {
					m = metrics.NewCounter(prefix + tenant + "_shed")
					c.reg.Register(m)
					shedByTenant[tenant] = m
				}
				m.Inc()
				c.obsPlane.Record("shed", qlabel, tenant+" "+reason)
			},
		})
	}
}

// QoS returns the admission controller, or nil when the deployment runs
// without one.
func (c *Cloud) QoS() *qos.Controller { return c.qos }

// Obs returns the cloud's telemetry plane, or nil when no obs session was
// active at construction.
func (c *Cloud) Obs() *obs.Plane { return c.obsPlane }

// FnCache returns the colocated function cache, or nil when the deployment
// runs without one.
func (c *Cloud) FnCache() *fncache.Cache { return c.fncache }

// Env returns the simulation environment.
func (c *Cloud) Env() *sim.Env { return c.env }

// Net returns the datacenter network.
func (c *Cloud) Net() *simnet.Network { return c.net }

// Cluster returns the compute cluster.
func (c *Cloud) Cluster() *cluster.Cluster { return c.cl }

// Runtime returns the function runtime.
func (c *Cloud) Runtime() *faas.Runtime { return c.rt }

// Group returns the replicated state layer.
func (c *Cloud) Group() *consistency.Group { return c.grp }

// Caps returns the capability registry (tests/experiments).
func (c *Cloud) Caps() *capability.Registry { return c.caps }

// Metrics returns the unified registry holding every metric of this
// deployment — the Cloud's own histograms and the runtime's counters.
func (c *Cloud) Metrics() *trace.Registry { return c.reg }

// Device returns the GPU device memory attached to a node, or nil.
func (c *Cloud) Device(n simnet.NodeID) *platform.Device { return c.devices[n] }

// Ref is a PCSI reference: the sole way to reach objects (§3.2).
type Ref struct {
	cap capability.Ref
	// lvl is the object's default consistency level, captured at open.
	lvl consistency.Level
}

// Valid reports whether the reference was issued by a Cloud.
func (r Ref) Valid() bool { return r.cap.Valid() }

// Rights returns the reference's rights.
func (r Ref) Rights() capability.Rights { return r.cap.Rights() }

// ObjectID exposes the referenced object's ID (diagnostics).
func (r Ref) ObjectID() object.ID { return r.cap.Object() }

// Level returns the reference's default consistency level.
func (r Ref) Level() consistency.Level { return r.lvl }

// String renders the reference.
func (r Ref) String() string { return fmt.Sprintf("pcsi-%v[%v]", r.cap.Object(), r.cap.Rights()) }

// Errors returned by the PCSI API. Both are answers, not conditions:
// retrying an invalid reference or an unknown function re-asks a question
// the system already answered, so they classify as fatal.
var (
	ErrInvalidRef = fault.Fatal("core: invalid reference")
	ErrNoSuchFn   = fault.Fatal("core: unknown function")
)

// namespaceRoots contributes registered namespace roots to the GC, in
// sorted order so the mark phase's visit order is run-independent.
func (c *Cloud) namespaceRoots() []object.ID {
	out := make([]object.ID, 0, len(c.nsRoots))
	for id := range c.nsRoots {
		out = append(out, id)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// functionRoots keeps registered function code objects alive, in sorted
// order for the same reason as namespaceRoots.
func (c *Cloud) functionRoots() []object.ID {
	out := make([]object.ID, 0, len(c.fnRefs))
	for _, r := range c.fnRefs {
		out = append(out, r.cap.Object())
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Collect runs a GC cycle over the state layer, propagating sweeps to all
// replicas and node caches, and returns the number of objects reclaimed.
func (c *Cloud) Collect() int {
	n := c.col.Collect()
	c.grp.Delete(c.col.LastSweptIDs...)
	for k := range c.caches {
		if _, swept := slices.BinarySearch(c.col.LastSweptIDs, k.id); swept { // sorted: the sweep walks store.IDs
			delete(c.caches, k)
		}
	}
	c.dropLeases(c.col.LastSweptIDs...)
	return n + c.sweepEphemeral()
}

// dropLeases invalidates every function-cache copy of ids. GC sweeps and
// metadata mirrors bypass the lease write path, so they drop cached copies
// themselves — before the state replicates, so none outlives its content.
func (c *Cloud) dropLeases(ids ...object.ID) {
	if c.fncache == nil {
		return
	}
	for _, id := range ids {
		c.fncache.Invalidate(fncache.Key(id))
	}
}

// Collector exposes GC statistics.
func (c *Cloud) Collector() *gc.Collector { return c.col }

// DefaultRetryable extends the substrate classifier with PCSI-level
// transients: consistency unavailability and placement pressure are worth
// retrying; not-found, invalid references, and capability denials are not.
func DefaultRetryable(err error) bool {
	return fault.Retryable(err) ||
		errors.Is(err, consistency.ErrUnavailable) ||
		errors.Is(err, faas.ErrNoPlacement)
}

// chaosInvariants audits end-of-run state for the chaos harness. Runs
// after the harness heals partitions; SyncAll forces quiescent
// anti-entropy so eventual convergence is checked, not awaited.
func (c *Cloud) chaosInvariants() []string {
	var v []string
	if n := c.grp.LinStaleReads; n > 0 {
		v = append(v, fmt.Sprintf("%d stale linearizable reads", n))
	}
	if c.fncache != nil {
		if n := c.fncache.StaleLeaseServes.Value(); n > 0 {
			v = append(v, fmt.Sprintf("%d linearizable reads served from stale lease entries", n))
		}
		v = append(v, c.LatticeAudit()...)
	}
	c.grp.SyncAll()
	if ids := c.grp.Divergent(); len(ids) > 0 {
		v = append(v, fmt.Sprintf("%d objects divergent across replicas after heal+sync", len(ids)))
	}
	if c.GraphsStarted != c.GraphsFinished {
		v = append(v, fmt.Sprintf("task graphs leaked: %d started, %d finished", c.GraphsStarted, c.GraphsFinished))
	}
	st := c.grp.Primary0Store()
	// The node caches, by code that shares none with the rule that fills them.
	audited := len(v)
	for k, e := range c.caches {
		if o, err := st.Get(k.id); e.stable && err == nil && !bytes.Equal(e.data, o.Read()) {
			v = append(v, fmt.Sprintf("frozen cache entry on node %d differs from object %v", k.node, k.id))
		}
	}
	sort.Strings(v[audited:])
	for _, id := range c.caps.Roots() {
		if !st.Contains(id) && c.ephemOf(id) == nil {
			v = append(v, fmt.Sprintf("live capability refers to missing object %v", id))
		}
	}
	return v
}
