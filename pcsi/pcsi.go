// Package pcsi is the public API of this repository's reference
// implementation of the Portable Cloud System Interface, the interface
// sketched in "The RESTless Cloud" (Pemberton, Schleier-Smith, Gonzalez —
// HotOS '21).
//
// PCSI models the cloud with two abstractions:
//
//   - Computation: stateless functions with explicit data-layer inputs
//     and outputs, heterogeneous execution platforms, and composable task
//     graphs ([Client.RegisterFunction], [Client.Invoke],
//     [Client.RunGraph]).
//   - State: objects (files, directories, FIFOs, sockets, devices)
//     reached through capability references, with a four-level mutability
//     lattice and a two-entry consistency menu ([Client.Create],
//     [Client.Put], [Client.Get], [Client.Freeze]).
//
// A [Cloud] is a complete simulated deployment — datacenter network,
// cluster, replicated store, function runtime — driven by a deterministic
// virtual clock. Everything a client does pays modelled network, media,
// and protocol costs, so experiments measure interface-induced overheads
// exactly as the paper discusses them.
//
// Buffers: [Client.Put], [Client.Append] and [Client.WriteAt] copy what they
// are given, and reads of an object below IMMUTABLE return the caller's own
// copy. Once an object is frozen to IMMUTABLE its bytes never change, so
// [Client.Get] (and GetAt, GetVersioned) return a read-only view shared with
// the store, the node cache and every other reader: do not write into it;
// copy it first if you need a scratch buffer. An ephemeral object is freed
// at the last [Client.Drop] of a reference to it; views already handed out
// stay valid.
//
// Quickstart:
//
//	cloud := pcsi.New(pcsi.DefaultOptions())
//	client := cloud.NewClient(0)
//	cloud.Env().Go("main", func(p *pcsi.Proc) {
//	    ref, _ := client.Create(p, pcsi.Regular)
//	    _ = client.Put(p, ref, []byte("hello"))
//	    data, _ := client.Get(p, ref)
//	    fmt.Println(string(data))
//	})
//	cloud.Env().Run()
package pcsi

import (
	"cmp"

	"repro/internal/capability"
	"repro/internal/cluster"
	"repro/internal/consistency"
	"repro/internal/core"
	"repro/internal/faas"
	"repro/internal/faasfs"
	"repro/internal/fault"
	"repro/internal/fncache"
	"repro/internal/object"
	"repro/internal/obs"
	"repro/internal/platform"
	"repro/internal/qos"
	"repro/internal/sim"
	"repro/internal/trace"
)

// Core types, re-exported for downstream users.
type (
	// Cloud is one PCSI deployment.
	Cloud = core.Cloud
	// Options configures a deployment.
	Options = core.Options
	// Client is a session bound to an origin node.
	Client = core.Client
	// Ref is a capability reference to an object.
	Ref = core.Ref
	// NS is a namespace handle.
	NS = core.NS
	// FnCtx is the context passed to function bodies.
	FnCtx = core.FnCtx
	// FnConfig describes a function to register.
	FnConfig = core.FnConfig
	// InvokeArgs parameterise an invocation.
	InvokeArgs = core.InvokeArgs
	// GraphTask is a node of a task graph.
	GraphTask = core.GraphTask
	// PlacementPolicy selects the function-placement scheduler.
	PlacementPolicy = core.PlacementPolicy
	// Proc is a simulated process handle.
	Proc = sim.Proc
	// Time is a point in virtual time.
	Time = sim.Time
	// Resources is a resource bundle for function footprints.
	Resources = cluster.Resources
	// Variant is one implementation of a function (§3.1's simultaneous
	// implementations).
	Variant = faas.Variant
	// Goal selects among a function's variants per invocation.
	Goal = faas.Goal
	// RetryPolicy retries operations with deadline, capped exponential
	// backoff, deterministic jitter, and retryable/fatal classification.
	// Set Options.Retry to thread it through data/meta/fn operations.
	RetryPolicy = fault.Policy
	// QoSConfig configures the admission controller: one limit and queue
	// per class. Set Options.QoS to enable it; nil keeps the unguarded
	// data and invoke paths.
	QoSConfig = qos.Config
	// QoSClassConfig configures one admission class: concurrency limit
	// (or a per-op footprint it is derived from), queue bound, queue-delay
	// budget, and CoDel backpressure.
	QoSClassConfig = qos.ClassConfig
	// ObsConfig is what a telemetry session is built from. It has no
	// fields: every plane samples each 50 ms of virtual time.
	ObsConfig = obs.Config
	// ObsSession is a telemetry session; each cloud built with it in
	// Options.Obs gets a telemetry plane (Cloud.Obs()).
	ObsSession = obs.Session
	// FnCacheConfig enables per-node caches colocated with function
	// executors. Set Options.FnCache to enable them; nil keeps every read
	// and write on the store path, byte-identical to builds without the
	// cache. Linearizable reads are cached under virtual-time leases with
	// invalidate-on-write; eventual lattice objects get local CRDT
	// replicas merged through anti-entropy.
	FnCacheConfig = fncache.Config
	// FaaSFS is a shared, transactional, POSIX-shaped file system over
	// PCSI objects. Mount one with MountFaaSFS; each function invocation
	// opens a snapshot-isolated FaaSFSSession and commits optimistically.
	FaaSFS = faasfs.FS
	// FaaSFSSession is one snapshot-isolated transaction over a mounted
	// FaaSFS: a POSIX surface (Open/Creat/Read/Write/Seek/Close, Mkdir,
	// Unlink, Rename, ReadDir, Stat) plus Commit/Abort.
	FaaSFSSession = faasfs.Session
	// FaaSFSConfig parameterises a mount; it has no fields.
	FaaSFSConfig = faasfs.Config
)

// ErrOverload is returned by admission-controlled operations when load is
// shed. It classifies as fatal — retry layers must not amplify overload.
var ErrOverload = qos.ErrOverload

// ErrConflict is returned by FaaSFSSession.Commit when optimistic
// validation fails. It classifies as transient — retry policies re-run
// the whole transaction against a fresh snapshot.
var ErrConflict = faasfs.ErrConflict

// MountFaaSFS creates a fresh transactional file system on the client's
// cloud. Sessions open with FaaSFS.Begin (or run whole transactions with
// FaaSFS.Run, which retries conflicts under a RetryPolicy).
func MountFaaSFS(p *Proc, cl *Client, cfg FaaSFSConfig) (*FaaSFS, error) {
	return faasfs.Mount(p, cl, cfg)
}

// Admission classes (for Cloud.QoS().ClassStats).
const (
	QoSClassData   = qos.ClassData
	QoSClassInvoke = qos.ClassInvoke
)

// obsDefault is the session ActivateObs installed, or nil; only New reads it.
var obsDefault *ObsSession

// ObsActivation is the session ActivateObs installed as New's default.
type ObsActivation struct{ *ObsSession }

// ActivateObs installs a new telemetry session as New's default for clouds
// whose Options.Obs is nil, until Deactivate. It serves callers not yet
// moved to Options.Obs.
func ActivateObs(cfg ObsConfig) ObsActivation {
	obsDefault = obs.NewSession(cfg)
	return ObsActivation{obsDefault}
}

// Deactivate uninstalls the session as New's default, if it still is.
func (a ObsActivation) Deactivate() {
	if obsDefault == a.ObsSession {
		obsDefault = nil
	}
}

// DefaultRetryPolicy is the stock chaos-mode retry policy.
func DefaultRetryPolicy() *RetryPolicy { return fault.DefaultPolicy() }

// Optimisation goals for variant selection.
const (
	GoalLatency = faas.GoalLatency
	GoalCost    = faas.GoalCost
)

// New builds a Cloud. A nil Options.Trace or Options.Obs falls back to the
// collector trace.StartCollecting or the session ActivateObs installed.
func New(opts Options) *Cloud {
	opts.Trace = cmp.Or(opts.Trace, trace.Collecting())
	opts.Obs = cmp.Or(opts.Obs, obsDefault)
	return core.New(opts)
}

// DefaultOptions returns a representative deployment configuration.
func DefaultOptions() Options { return core.DefaultOptions() }

// Object kinds.
const (
	Regular = object.Regular
	FIFO    = object.FIFO
	Socket  = object.Socket
)

// Mutability levels (Figure 1 of the paper).
const (
	Mutable    = object.Mutable
	AppendOnly = object.AppendOnly
	FixedSize  = object.FixedSize
	Immutable  = object.Immutable
)

// Consistency levels (§3.3's two-entry menu).
const (
	Linearizable = consistency.Linearizable
	Eventual     = consistency.Eventual
)

// Rights for capability references.
const (
	RightRead   = capability.Read
	RightWrite  = capability.Write
	RightAppend = capability.Append
	RightExec   = capability.Exec
	RightSetMut = capability.SetMut
	RightsAll   = capability.All
)

// Execution platform kinds (§3.1's heterogeneous implementations).
const (
	PlatformWasm = platform.Wasm
	PlatformGPU  = platform.GPU
)

// Socket ends (for Socket objects, Figure 2's TCP connection).
const (
	ClientEnd = core.ClientEnd
	ServerEnd = core.ServerEnd
)

// Placement policies.
const (
	PlaceNaive    = core.PlaceNaive
	PlacePacked   = core.PlacePacked
	PlaceColocate = core.PlaceColocate
)

// WithConsistency sets a created object's default consistency level.
var WithConsistency = core.WithConsistency

// WithMutability sets a created object's initial mutability level.
var WithMutability = core.WithMutability

// WithEphemeral makes the created object node-local and unreplicated —
// single-copy state for task-graph intermediates.
var WithEphemeral = core.WithEphemeral
