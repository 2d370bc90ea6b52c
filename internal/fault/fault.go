// Package fault is the deterministic fault-injection substrate. A chaos run
// builds a Session describing a stochastic fault rate and/or a declarative
// schedule of timed events (node crashes, rack power, partitions) and
// attaches it to each environment it creates; domain layers then consult
// that environment's Injector (Of) at operation boundaries.
//
// Determinism contract: every random draw an Injector makes comes from
// sim.Env.ObserverRand streams, which are derived from the seed without
// touching the workload's shared stream or the fork counter. Enabling faults
// at seed S therefore perturbs nothing else — the same seed with the same
// Spec replays byte-identically, and an idle Spec (rate ≤ 0, empty
// schedule) attaches nothing at all, leaving runs bit-for-bit equal to
// fault-free ones.
//
// Layering: fault sits in the substrate tier. It may be imported by any
// domain package but itself imports only sim, simnet, and cluster; richer
// integrations (tracing, metrics, faas instance teardown) are wired in by
// the embedding layer through the Observe / OnNodeDown callbacks.
package fault

import (
	"fmt"
	"math/rand"
	"sort"
	"time"

	"repro/internal/cluster"
	"repro/internal/sim"
	"repro/internal/simnet"
)

// Injected operation failures. Both are transient.
var (
	// ErrInjected is the base error for injected operation failures.
	ErrInjected = Transient("fault: injected error")
	// ErrInjectedTimeout marks an injected timeout; the faulting operation
	// blocks for 100 ms of virtual time before returning it.
	ErrInjectedTimeout = Transient("fault: injected timeout")
)

// Action is a scheduled fault kind.
type Action int

const (
	// CrashNode powers off cluster node Node at time At.
	CrashNode Action = iota
	// RecoverNode powers Node back on.
	RecoverNode
	// RackPower fails every cluster node in rack Rack.
	RackPower
	// RackRestore recovers every cluster node in rack Rack.
	RackRestore
	// Partition splits the network into Groups; nodes in different groups
	// cannot reach each other. Nodes not listed fall into group 0.
	Partition
	// Heal removes any active partition.
	Heal
)

func (a Action) String() string {
	switch a {
	case CrashNode:
		return "crash-node"
	case RecoverNode:
		return "recover-node"
	case RackPower:
		return "rack-power"
	case RackRestore:
		return "rack-restore"
	case Partition:
		return "partition"
	case Heal:
		return "heal"
	}
	return fmt.Sprintf("action(%d)", int(a))
}

// Event is one entry in a declarative fault schedule.
type Event struct {
	At     sim.Duration      // virtual time offset from env start
	Action Action            //
	Node   simnet.NodeID     // CrashNode / RecoverNode
	Rack   int               // RackPower / RackRestore
	Groups [][]simnet.NodeID // Partition
}

// timeoutDelay is the virtual time an injected timeout blocks for.
const timeoutDelay = 100 * time.Millisecond

// Spec describes everything a Session injects.
type Spec struct {
	// Rate is the stochastic fault rate; ≤ 0 injects none. Operations fail
	// with ErrInjected and messages drop at Rate; the rarer modes —
	// injected timeouts, duplicated messages and delay spikes — fire at
	// Rate/2.
	Rate     float64
	Schedule []Event
	// Retry, when set, is the default retry policy embedding systems adopt
	// for the duration of the session (core uses it when Options.Retry is
	// nil). Policies are templates; each env binds its own jitter stream.
	Retry *Policy
}

func (s Spec) idle() bool { return s.Rate <= 0 && len(s.Schedule) == 0 }

// Notice describes one injected fault, delivered to Observe callbacks.
type Notice struct {
	Kind   string // e.g. "op.error", "link.drop", "node.crash", "partition"
	Detail string
}

// Counter is an aggregated injection count, for deterministic reporting.
type Counter struct {
	Name string
	N    int64
}

// Violation is a failed invariant check.
type Violation struct {
	Check  string
	Detail string
}

type check struct {
	name string
	fn   func() []string
}

// Session is one run's fault injection: the spec its injectors follow, and
// the invariants registered to audit them.
type Session struct {
	spec      Spec
	injectors []*Injector
	checks    []check
}

// NewSession returns a session injecting per spec.
func NewSession(spec Spec) *Session {
	return &Session{spec: spec}
}

// Spec returns the session's spec.
func (s *Session) Spec() Spec { return s.spec }

// AddCheck registers a named invariant; fn returns one message per
// violation. Embedding layers register these at construction so the chaos
// harness can audit end-of-run state it has no direct access to. Safe on a
// nil session.
func (s *Session) AddCheck(name string, fn func() []string) {
	if s != nil {
		s.checks = append(s.checks, check{name, fn})
	}
}

// RunChecks runs every registered invariant in registration order.
func (s *Session) RunChecks() []Violation {
	var out []Violation
	for _, c := range s.checks {
		for _, msg := range c.fn() {
			out = append(out, Violation{Check: c.name, Detail: msg})
		}
	}
	return out
}

// HealAll clears active partitions on every injector, for post-run
// quiescence before convergence checks.
func (s *Session) HealAll() {
	for _, in := range s.injectors {
		in.healPartition()
	}
}

// Counters aggregates injection counts across all injectors, sorted by name.
func (s *Session) Counters() []Counter {
	sum := make(map[string]int64)
	for _, in := range s.injectors {
		for k, v := range in.counts {
			sum[k] += v
		}
	}
	names := make([]string, 0, len(sum))
	for k := range sum {
		names = append(names, k)
	}
	sort.Strings(names)
	out := make([]Counter, 0, len(names))
	for _, k := range names {
		out = append(out, Counter{k, sum[k]})
	}
	return out
}

// Injector injects faults into one sim.Env. All methods are nil-safe so
// call sites can hold one unconditionally.
type Injector struct {
	env        *sim.Env
	net        *simnet.Network  // nil for op-only injectors
	cl         *cluster.Cluster // nil when no cluster is attached
	spec       Spec
	opRNG      *rand.Rand
	linkRNG    *rand.Rand
	part       map[simnet.NodeID]int
	partActive bool
	counts     map[string]int64
	observers  []func(Notice)
	onDown     []func(simnet.NodeID, bool)
	armed      bool
}

type slot int

const injectorSlot slot = 0

// Attach gives env an operation-only injector (once) and returns it. Safe on
// a nil session; an idle spec attaches nothing and returns nil — the
// zero-perturbation guarantee.
func (s *Session) Attach(env *sim.Env) *Injector {
	if s == nil || s.spec.idle() {
		return nil
	}
	if in := Of(env); in != nil {
		return in
	}
	in := &Injector{
		env:     env,
		spec:    s.spec,
		opRNG:   env.ObserverRand("fault.ops"),
		linkRNG: env.ObserverRand("fault.link"),
		counts:  make(map[string]int64),
	}
	env.SetObserver(injectorSlot, in)
	s.injectors = append(s.injectors, in)
	return in
}

// Of returns env's injector, or nil when no session attached one.
func Of(env *sim.Env) *Injector {
	in, _ := env.Observer(injectorSlot).(*Injector)
	return in
}

// Wire installs link faults and reachability hooks on net and arms the
// schedule (if any) as a virtual-time process. Safe on a nil injector.
func (in *Injector) Wire(net *simnet.Network, cl *cluster.Cluster) {
	if in == nil {
		return
	}
	if net != nil && in.net == nil {
		in.net = net
		net.SetLinkFaultFunc(in.linkFault)
		net.SetReachableFunc(in.reachable)
	}
	if cl != nil && in.cl == nil {
		in.cl = cl
	}
	if len(in.spec.Schedule) > 0 && !in.armed {
		in.armed = true
		in.armSchedule()
	}
}

// Observe registers fn to receive a Notice for every injected fault.
func (in *Injector) Observe(fn func(Notice)) {
	if in == nil {
		return
	}
	in.observers = append(in.observers, fn)
}

// OnNodeDown registers fn to run after the injector crashes or recovers a
// cluster node (down=true on crash). The embedding layer uses this to tear
// down higher-level state (e.g. faas instances) the substrate cannot see.
func (in *Injector) OnNodeDown(fn func(simnet.NodeID, bool)) {
	if in == nil {
		return
	}
	in.onDown = append(in.onDown, fn)
}

// Note bumps a named counter (e.g. retry attempts recorded by the embedding
// layer) so it appears in the session's deterministic summary.
func (in *Injector) Note(name string) {
	if in == nil {
		return
	}
	in.counts[name]++
}

func (in *Injector) emit(kind, detail string) {
	in.counts[kind]++
	for _, fn := range in.observers {
		fn(Notice{Kind: kind, Detail: detail})
	}
}

// OpFault rolls the stochastic operation-fault dice for op. It returns nil
// (no fault), ErrInjected, or — after blocking timeoutDelay of virtual
// time — ErrInjectedTimeout.
func (in *Injector) OpFault(p *sim.Proc, op string) error {
	if in == nil {
		return nil
	}
	r := in.spec.Rate
	if r <= 0 {
		return nil
	}
	if in.opRNG.Float64() < r {
		in.emit("op.error", op)
		return fmt.Errorf("%w: %s", ErrInjected, op)
	}
	if in.opRNG.Float64() < r/2 {
		in.emit("op.timeout", op)
		p.Sleep(timeoutDelay)
		return fmt.Errorf("%w: %s after %v", ErrInjectedTimeout, op, timeoutDelay)
	}
	return nil
}

// linkFault is installed as the network's per-message fault hook.
func (in *Injector) linkFault(a, b simnet.NodeID, size int) simnet.LinkFault {
	var lf simnet.LinkFault
	r := in.spec.Rate
	if a == b || r <= 0 {
		return lf
	}
	if in.linkRNG.Float64() < r {
		lf.Drop = true
		in.emit("link.drop", fmt.Sprintf("%d->%d", a, b))
	}
	if in.linkRNG.Float64() < r/2 {
		lf.Duplicate = true
		in.emit("link.dup", fmt.Sprintf("%d->%d", a, b))
	}
	if in.linkRNG.Float64() < r/2 {
		// Spike of 1–5 RTTs, magnitude from the injector's own stream.
		mult := 1 + 4*in.linkRNG.Float64()
		lf.ExtraDelay = time.Duration(mult * float64(in.net.RTT(a, b)))
		in.emit("link.delay", fmt.Sprintf("%d->%d +%v", a, b, lf.ExtraDelay))
	}
	return lf
}

// reachable is installed as the network's partition predicate.
func (in *Injector) reachable(a, b simnet.NodeID) bool {
	if !in.partActive {
		return true
	}
	return in.part[a] == in.part[b]
}

func (in *Injector) setPartition(groups [][]simnet.NodeID) {
	in.part = make(map[simnet.NodeID]int)
	for g, nodes := range groups {
		for _, id := range nodes {
			in.part[id] = g
		}
	}
	in.partActive = true
	in.emit("partition", fmt.Sprintf("%d groups", len(groups)))
}

func (in *Injector) healPartition() {
	if in == nil || !in.partActive {
		return
	}
	in.partActive = false
	in.part = nil
	in.emit("heal", "")
}

func (in *Injector) setNodeDown(id simnet.NodeID, down bool) {
	if in.cl == nil || in.cl.Node(id) == nil {
		return
	}
	in.cl.SetDown(id, down)
	if down {
		in.emit("node.crash", fmt.Sprintf("node %d", id))
	} else {
		in.emit("node.recover", fmt.Sprintf("node %d", id))
	}
	for _, fn := range in.onDown {
		fn(id, down)
	}
}

func (in *Injector) setRackDown(rack int, down bool) {
	if in.cl == nil {
		return
	}
	kind := "rack.restore"
	if down {
		kind = "rack.power"
	}
	in.emit(kind, fmt.Sprintf("rack %d", rack))
	for _, n := range in.cl.Nodes() {
		if n.Rack == rack {
			in.setNodeDown(n.ID, down)
		}
	}
}

// armSchedule spawns a virtual-time process that applies schedule events in
// order. Only called for non-empty schedules, so idle specs never add a
// process to the env.
func (in *Injector) armSchedule() {
	evs := make([]Event, len(in.spec.Schedule))
	copy(evs, in.spec.Schedule)
	sort.SliceStable(evs, func(i, j int) bool { return evs[i].At < evs[j].At })
	in.env.Go("fault-schedule", func(p *sim.Proc) {
		for _, ev := range evs {
			if until := sim.Time(0).Add(ev.At).Sub(p.Now()); until > 0 {
				p.Sleep(until)
			}
			in.apply(ev)
		}
	})
}

func (in *Injector) apply(ev Event) {
	switch ev.Action {
	case CrashNode:
		in.setNodeDown(ev.Node, true)
	case RecoverNode:
		in.setNodeDown(ev.Node, false)
	case RackPower:
		in.setRackDown(ev.Rack, true)
	case RackRestore:
		in.setRackDown(ev.Rack, false)
	case Partition:
		in.setPartition(ev.Groups)
	case Heal:
		in.healPartition()
	}
}
