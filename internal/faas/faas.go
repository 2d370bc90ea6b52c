// Package faas implements PCSI computation (§3.1): functions with a
// universal compute interface, no implicit state between invocations, and
// narrow, heterogeneous execution platforms.
//
// The runtime autoscales each function from zero: an invocation with no
// idle instance cold-starts a fresh one on a node chosen by the pluggable
// Placer; warm instances serve subsequent invocations until an idle
// timeout reaps them. Instance time is metered for pay-per-use billing.
package faas

import (
	"fmt"
	"sort"
	"time"

	"repro/internal/cluster"
	"repro/internal/cost"
	"repro/internal/fault"
	"repro/internal/fncache"
	"repro/internal/metrics"
	"repro/internal/platform"
	"repro/internal/qos"
	"repro/internal/sim"
	"repro/internal/simnet"
	"repro/internal/trace"
)

// MaxBodySize bounds the pass-by-value request body (§3.1: "a small
// pass-by-value request body"); larger payloads must travel through the
// data layer.
const MaxBodySize = 4096

// Errors returned by the runtime. All three classify as fatal at this
// layer; core.DefaultRetryable overrides ErrNoPlacement to retryable,
// because a full cluster drains as instances are reaped.
var (
	ErrUnknownFunction = fault.Fatal("faas: unknown function")
	ErrBodyTooLarge    = fault.Fatal("faas: request body exceeds MaxBodySize")
	ErrNoPlacement     = fault.Fatal("faas: no node can host the function")
)

// PlacementHints guide the Placer for one instance start.
type PlacementHints struct {
	// NearNode requests co-location with a specific node (task-graph
	// locality, §4.1).
	NearNode simnet.NodeID
	HasNear  bool
	// PreferGPUNode asks for placement on a GPU-equipped node even for
	// CPU-only work — §4.1's forward-looking placement of a producer next
	// to its accelerator-bound consumer.
	PreferGPUNode bool
	// Scavenge requests harvested idle capacity (§4.2).
	Scavenge bool
	// Goal selects among a function's variants (§3.1's optimizer).
	Goal Goal
	// Tenant names the workload for QoS admission and weighted-fair
	// queueing ("" = the default tenant). Ignored when the runtime has no
	// QoS controller.
	Tenant string
}

// Placer chooses a node for a new instance. Implementations live in
// internal/scheduler.
type Placer interface {
	// Place returns the node to start an instance on, and whether the
	// allocation should be scavenged. A nil node means no capacity.
	Place(res cluster.Resources, hints PlacementHints) (*cluster.Node, bool)
}

// HandlerFunc is the body of a function. It runs inside a simulation
// process and models its compute by sleeping; it reaches state only
// through the Invocation's explicit inputs and outputs.
type HandlerFunc func(inv *Invocation) error

// Function is a registered function. Functions are themselves stored as
// objects in the data layer (CodeSize bytes fetched on cold start).
type Function struct {
	Name string
	Kind platform.Kind
	// Res is the per-instance resource footprint (beyond the platform
	// baseline).
	Res cluster.Resources
	// CodeSize is the size of the function's code object, fetched from
	// the code store on every cold start.
	CodeSize int64
	// Handler is the function body.
	Handler HandlerFunc
	// Concurrency is the max in-flight invocations per instance (1 =
	// classic FaaS).
	Concurrency int
	// Variants optionally provide alternative implementations (see
	// variants.go); when empty, Kind/Res above define the only one.
	Variants []Variant
	// TypicalExec is the modelled baseline compute time the optimizer
	// uses to estimate variant latency and cost.
	TypicalExec time.Duration
}

// Invocation carries one call's context.
type Invocation struct {
	proc     *sim.Proc
	Fn       *Function
	Body     []byte
	Instance *Instance
	// Scratch is per-invocation state, destroyed on return — the "no
	// implicit state" rule made mechanical.
	Scratch map[string]any
	// Ctx is an opaque slot the embedding system (PCSI core) uses to give
	// handlers data-layer access.
	Ctx any
	// Seq is the invocation sequence number on this runtime.
	Seq int64
}

// Proc returns the simulation process the handler runs in.
func (inv *Invocation) Proc() *sim.Proc { return inv.proc }

// Scale adjusts a baseline compute duration for the implementation
// serving this call: handlers write Sleep(inv.Scale(base)) and faster
// variants finish proportionally sooner.
func (inv *Invocation) Scale(d time.Duration) time.Duration {
	sf := inv.Instance.Variant().SpeedFactor
	if sf <= 0 {
		sf = 1
	}
	return time.Duration(float64(d) / sf)
}

// Node returns the node the invocation executes on.
func (inv *Invocation) Node() simnet.NodeID { return inv.Instance.Node.ID }

// instState tracks an instance through its lifecycle.
type instState uint8

const (
	instIdle instState = iota
	instBusy
	instDead
)

// Instance is one warm copy of a function.
type Instance struct {
	Fn        *Function
	Node      *cluster.Node
	alloc     *cluster.Alloc
	state     instState
	idleSince sim.Time
	bornAt    sim.Time
	busy      time.Duration
	inflight  int
	variant   int
}

// Variant returns the implementation this instance runs.
func (i *Instance) Variant() Variant { return variants(i.Fn)[i.variant] }

// Scavenged reports whether the instance runs on harvested capacity.
func (i *Instance) Scavenged() bool { return i.alloc.Scavenged }

// Config tunes the runtime.
type Config struct {
	// IdleTimeout reaps instances idle this long (0 = never).
	IdleTimeout time.Duration
	// CodeStore is the node code objects are fetched from on cold start.
	CodeStore simnet.NodeID
	// EvictionProb is the per-use probability that a scavenged instance
	// was preempted and must cold-start again.
	EvictionProb float64
	// Metrics optionally shares a metrics registry with the embedding
	// system; NewRuntime creates a private one when nil. The runtime's
	// counters and histograms register themselves there.
	Metrics *trace.Registry
	// FailFast races each handler against its node's failure event so an
	// invocation on a machine that dies mid-call fails at the fault time
	// instead of running to completion. Off by default: the extra handler
	// process changes event interleaving, so fault-free runs keep the
	// historical inline path byte-identical. Chaos runs switch it on.
	FailFast bool
	// QoS optionally gates invocations through an admission controller
	// (qos.ClassInvoke). Nil = no admission control, byte-identical to the
	// pre-QoS runtime.
	QoS *qos.Controller
	// FnCache optionally colocates a function cache with the executors:
	// node failures drop the node's cached state along with its instances
	// (the cache lives in the executor's DRAM). Nil = no cache.
	FnCache *fncache.Cache
}

// Runtime hosts functions on a cluster.
type Runtime struct {
	env  *sim.Env
	cl   *cluster.Cluster
	net  *simnet.Network
	plc  Placer
	cfg  Config
	fns  map[string]*Function
	pool map[string][]*Instance
	seq  int64
	// fnInvokes counts per-function invocations for the variant
	// optimizer's promotion rule.
	fnInvokes map[string]int64
	reg       *trace.Registry

	// Metrics. The fields alias entries in Metrics() — the registry owns
	// the canonical directory; the fields keep call sites terse.
	ColdStarts  *metrics.Counter
	WarmStarts  *metrics.Counter
	Invocations *metrics.Counter
	Preemptions *metrics.Counter
	// InvokeFails counts invocations that failed after admission —
	// placement errors and fail-fast node deaths. Typed sheds are not
	// failures (a shed is an answer), so SLO burn rates can separate
	// "degraded by design" from "broken".
	InvokeFails *metrics.Counter
	InvokeLat   *metrics.Histogram
	Meter       *cost.Meter
	// NodeFailKills counts instances lost to injected node failures.
	NodeFailKills int64
	// InstanceSeconds accumulates billed instance lifetime.
	InstanceSeconds float64
	// BusySeconds accumulates time instances spent executing.
	BusySeconds float64

	// reaperWake releases the parked reaper when instances exist again;
	// parking the reaper while the fleet is empty lets the event queue
	// drain so simulations terminate.
	reaperWake *sim.Event
}

// NewRuntime returns a runtime placing instances with plc.
func NewRuntime(cl *cluster.Cluster, plc Placer, cfg Config) *Runtime {
	reg := cfg.Metrics
	if reg == nil {
		reg = trace.NewRegistry()
	}
	rt := &Runtime{
		env:  cl.Env(),
		cl:   cl,
		net:  cl.Net(),
		plc:  plc,
		cfg:  cfg,
		fns:  make(map[string]*Function),
		pool: make(map[string][]*Instance),
		reg:  reg,

		ColdStarts:  metrics.NewCounter("cold_starts"),
		WarmStarts:  metrics.NewCounter("warm_starts"),
		Invocations: metrics.NewCounter("invocations"),
		Preemptions: metrics.NewCounter("preemptions"),
		InvokeFails: metrics.NewCounter("invoke_failures"),
		InvokeLat:   metrics.NewHistogram("invoke_latency"),
		Meter:       cost.NewMeter("faas"),
	}
	reg.Register(rt.ColdStarts)
	reg.Register(rt.WarmStarts)
	reg.Register(rt.Invocations)
	reg.Register(rt.Preemptions)
	reg.Register(rt.InvokeFails)
	reg.Register(rt.InvokeLat)
	if cfg.IdleTimeout > 0 {
		rt.startReaper()
	}
	return rt
}

// Metrics returns the registry holding every runtime metric.
func (rt *Runtime) Metrics() *trace.Registry { return rt.reg }

// Env returns the runtime's simulation environment.
func (rt *Runtime) Env() *sim.Env { return rt.env }

// Cluster returns the backing cluster.
func (rt *Runtime) Cluster() *cluster.Cluster { return rt.cl }

// Register adds a function. Concurrency defaults to 1.
func (rt *Runtime) Register(fn *Function) error {
	if fn.Name == "" || fn.Handler == nil {
		return fault.Fatal("faas: function needs a name and handler")
	}
	if _, dup := rt.fns[fn.Name]; dup {
		return fault.Fatalf("faas: function %q already registered", fn.Name)
	}
	if fn.Concurrency <= 0 {
		fn.Concurrency = 1
	}
	rt.fns[fn.Name] = fn
	return nil
}

// Lookup returns a registered function.
func (rt *Runtime) Lookup(name string) (*Function, bool) {
	fn, ok := rt.fns[name]
	return fn, ok
}

// Invoke runs fn with the given body, blocking the calling process until
// the handler returns. It returns the instance that served the call.
func (rt *Runtime) Invoke(p *sim.Proc, name string, body []byte, hints PlacementHints, ctx any) (*Instance, error) {
	fn, ok := rt.fns[name]
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrUnknownFunction, name)
	}
	if len(body) > MaxBodySize {
		return nil, fmt.Errorf("%w: %d bytes", ErrBodyTooLarge, len(body))
	}
	sp := trace.Of(rt.env).Start(p, "faas", "invoke", trace.Str("fn", name))
	start := p.Now()
	// Admission control: park in the tenant's weighted-fair queue (or shed
	// under overload) before any placement work happens. A nil controller
	// admits inline with zero overhead.
	grant, err := rt.cfg.QoS.Admit(p, qos.Request{Tenant: hints.Tenant, Class: qos.ClassInvoke})
	if err != nil {
		sp.Annotate(trace.Str("err", err.Error()))
		sp.Close(p)
		return nil, err
	}
	defer grant.Release()
	qsp := trace.Of(rt.env).Start(p, "sched", "acquire")
	inst, err := rt.acquire(p, fn, hints)
	qsp.Close(p)
	if err != nil {
		rt.InvokeFails.Inc()
		sp.Annotate(trace.Str("err", err.Error()))
		sp.Close(p)
		return nil, err
	}
	sp.Annotate(trace.Int("node", int64(inst.Node.ID)))
	spec := platform.Specs(inst.Variant().Kind)
	p.Sleep(spec.InvokeOverhead)
	rt.seq++
	inv := &Invocation{
		proc:     p,
		Fn:       fn,
		Body:     append([]byte(nil), body...),
		Instance: inst,
		Scratch:  make(map[string]any),
		Ctx:      ctx,
		Seq:      rt.seq,
	}
	busyFrom := p.Now()
	xsp := trace.Of(rt.env).Start(p, "fn", fn.Name)
	var herr error
	if rt.cfg.FailFast {
		herr = rt.runFailFast(p, fn, inv, inst)
	} else {
		herr = fn.Handler(inv)
	}
	xsp.Close(p)
	if herr != nil {
		rt.InvokeFails.Inc()
	}
	took := p.Now().Sub(busyFrom)
	inst.busy += took
	rt.BusySeconds += took.Seconds()
	// Destroy per-invocation state: the no-implicit-state rule.
	inv.Scratch = nil
	rt.release(inst)
	rt.Invocations.Inc()
	rt.InvokeLat.Observe(p.Now().Sub(start))
	fp := variantFootprint(inst.Variant())
	rt.Meter.Charge("compute", cost.ComputeBook.ComputeCost(
		fp.MilliCPU, fp.MemMB, fp.GPUs, took, inst.Scavenged()))
	sp.Close(p)
	return inst, herr
}

// SetFailFast toggles Config.FailFast after construction (chaos wiring).
func (rt *Runtime) SetFailFast(on bool) { rt.cfg.FailFast = on }

// runFailFast executes the handler in a child process and races it against
// the hosting node's failure event. On node failure the invocation returns
// immediately with the node error; the orphaned handler keeps running in
// the dead instance but its effects are already moot.
func (rt *Runtime) runFailFast(p *sim.Proc, fn *Function, inv *Invocation, inst *Instance) error {
	done := rt.env.NewEvent()
	parent := p.SpanCtx()
	rt.env.Go("handler:"+fn.Name, func(hp *sim.Proc) {
		hp.SetSpanCtx(parent)
		inv.proc = hp
		done.Complete(fn.Handler(inv))
	})
	idx, v, err := p.WaitAny(done, inst.Node.FailEvent())
	if idx == 1 {
		return fmt.Errorf("faas: %q interrupted: %w", fn.Name, err)
	}
	if v == nil {
		return nil
	}
	return v.(error)
}

// acquire returns an idle instance or cold-starts one.
func (rt *Runtime) acquire(p *sim.Proc, fn *Function, hints PlacementHints) (*Instance, error) {
	variant := rt.chooseVariant(fn, hints.Goal)
	for {
		inst := rt.takeIdle(fn, variant, hints)
		if inst == nil {
			break
		}
		// Scavenged instances may have been preempted while idle. Only
		// idle instances can be found preempted — one with calls in
		// flight is demonstrably alive.
		if inst.state == instIdle && inst.Scavenged() && rt.cfg.EvictionProb > 0 &&
			rt.env.Rand().Float64() < rt.cfg.EvictionProb {
			rt.Preemptions.Inc()
			rt.destroy(inst)
			continue
		}
		inst.state = instBusy
		inst.inflight++
		rt.WarmStarts.Inc()
		return inst, nil
	}
	return rt.coldStart(p, fn, variant, hints)
}

// takeIdle pops an idle instance of the chosen variant, preferring one on
// the hinted node.
func (rt *Runtime) takeIdle(fn *Function, variant int, hints PlacementHints) *Instance {
	insts := rt.pool[fn.Name]
	pick := -1
	for i, in := range insts {
		available := in.variant == variant && (in.state == instIdle ||
			(in.state == instBusy && in.inflight < in.Fn.Concurrency))
		if !available {
			continue
		}
		if hints.HasNear && in.Node.ID == hints.NearNode {
			pick = i
			break
		}
		if pick < 0 {
			pick = i
		}
	}
	if pick < 0 {
		return nil
	}
	return insts[pick]
}

// coldStart places, allocates, boots, and fetches code for a fresh
// instance of the chosen variant.
func (rt *Runtime) coldStart(p *sim.Proc, fn *Function, variant int, hints PlacementHints) (*Instance, error) {
	v := variants(fn)[variant]
	res := variantFootprint(v)
	sp := trace.Of(rt.env).Start(p, "faas", "coldstart", trace.Str("fn", fn.Name))
	defer sp.Close(p)
	node, scavenge := rt.plc.Place(res, hints)
	if node == nil {
		return nil, fmt.Errorf("%w: %q needs %v", ErrNoPlacement, fn.Name, res)
	}
	sp.Annotate(trace.Int("node", int64(node.ID)))
	if scavenge {
		sp.Annotate(trace.Str("scavenged", "true"))
	}
	var alloc *cluster.Alloc
	var err error
	if scavenge {
		alloc, err = rt.cl.Scavenge(node, res)
	} else {
		alloc, err = rt.cl.Allocate(node, res)
	}
	if err != nil {
		return nil, err
	}
	spec := platform.Specs(v.Kind)
	// Fetch the function's code object from the data layer.
	if fn.CodeSize > 0 {
		rt.net.Send(p, rt.cfg.CodeStore, node.ID, int(fn.CodeSize))
	}
	p.Sleep(spec.ColdStart)
	inst := &Instance{
		Fn:      fn,
		Node:    node,
		alloc:   alloc,
		state:   instBusy,
		bornAt:  p.Now(),
		variant: variant,
	}
	inst.inflight++
	rt.pool[fn.Name] = append(rt.pool[fn.Name], inst)
	rt.ColdStarts.Inc()
	if rt.reaperWake != nil {
		rt.reaperWake.Complete(nil)
	}
	return inst, nil
}

// release returns an instance to the idle pool. Instances destroyed while
// a call was in flight (node failure) stay dead.
func (rt *Runtime) release(inst *Instance) {
	inst.inflight--
	if inst.inflight <= 0 && inst.state != instDead {
		inst.state = instIdle
		inst.idleSince = rt.env.Now()
	}
}

// destroy tears an instance down and releases its resources.
func (rt *Runtime) destroy(inst *Instance) {
	if inst.state == instDead {
		return
	}
	inst.state = instDead
	life := rt.env.Now().Sub(inst.bornAt)
	rt.InstanceSeconds += life.Seconds()
	_ = rt.cl.Release(inst.alloc)
	insts := rt.pool[inst.Fn.Name]
	for i, in := range insts {
		if in == inst {
			rt.pool[inst.Fn.Name] = append(insts[:i], insts[i+1:]...)
			break
		}
	}
}

// poolFns returns the pooled function names in sorted order. Every sweep
// over the whole fleet walks functions through this, so teardown sleeps,
// instance-second accounting, and kill ordering never depend on
// randomized map-iteration order.
func (rt *Runtime) poolFns() []string {
	fns := make([]string, 0, len(rt.pool))
	for fn := range rt.pool {
		fns = append(fns, fn)
	}
	sort.Strings(fns)
	return fns
}

// startReaper launches the idle-instance reaper. While the fleet is empty
// the reaper parks on reaperWake instead of polling, so an otherwise-idle
// simulation's event queue can drain.
func (rt *Runtime) startReaper() {
	rt.reaperWake = rt.env.NewEvent()
	rt.env.Go("faas-reaper", func(p *sim.Proc) {
		for {
			if rt.liveInstances() == 0 {
				rt.reaperWake = rt.env.NewEvent()
				if _, err := p.Wait(rt.reaperWake); err != nil {
					return
				}
			}
			p.Sleep(rt.cfg.IdleTimeout / 2)
			cutoff := p.Now().Add(-rt.cfg.IdleTimeout)
			for _, fn := range rt.poolFns() {
				for _, in := range append([]*Instance(nil), rt.pool[fn]...) {
					if in.state == instIdle && in.idleSince <= cutoff {
						p.Sleep(platform.Specs(in.Variant().Kind).Teardown)
						rt.destroy(in)
					}
				}
			}
		}
	})
}

func (rt *Runtime) liveInstances() int {
	n := 0
	for _, insts := range rt.pool {
		n += len(insts)
	}
	return n
}

// FailNode destroys every instance on the given node, modelling a machine
// failure. In-flight invocations on the node fail at their next yield;
// future invocations re-place elsewhere. Returns the number of instances
// killed.
func (rt *Runtime) FailNode(node simnet.NodeID) int {
	rt.cl.SetDown(node, true)
	if rt.cfg.FnCache != nil {
		// The colocated cache shares the machine's fate: lease entries and
		// lattice replicas in its DRAM are gone.
		rt.cfg.FnCache.DropNode(int(node))
	}
	killed := 0
	for _, fn := range rt.poolFns() {
		for _, in := range append([]*Instance(nil), rt.pool[fn]...) {
			if in.Node.ID == node && in.state != instDead {
				rt.destroy(in)
				killed++
			}
		}
	}
	rt.NodeFailKills += int64(killed)
	return killed
}

// Drain destroys every instance (end of experiment) so instance-seconds
// accounting is complete.
func (rt *Runtime) Drain() {
	for _, fn := range rt.poolFns() {
		for _, in := range append([]*Instance(nil), rt.pool[fn]...) {
			rt.destroy(in)
		}
	}
}

// WarmCount returns the number of live instances for a function.
func (rt *Runtime) WarmCount(name string) int {
	n := 0
	for _, in := range rt.pool[name] {
		if in.state != instDead {
			n++
		}
	}
	return n
}
