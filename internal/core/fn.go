package core

import (
	"fmt"
	"time"

	"repro/internal/capability"
	"repro/internal/cluster"
	"repro/internal/faas"
	"repro/internal/object"
	"repro/internal/platform"
	"repro/internal/sim"
	"repro/internal/taskgraph"
	"repro/internal/trace"
)

// FnCtx is the context a PCSI function body receives: explicit data-layer
// inputs and outputs (by reference), a small by-value body, and a client
// homed on the node the instance runs on — so the function's state access
// pays exactly the costs of its placement (§4.1).
type FnCtx struct {
	Inv     *faas.Invocation
	Client  *Client
	Inputs  []Ref
	Outputs []Ref
	Body    []byte
}

// Proc returns the simulation process the function runs in.
func (fc *FnCtx) Proc() *sim.Proc { return fc.Inv.Proc() }

// Cloud returns the deployment.
func (fc *FnCtx) Cloud() *Cloud { return fc.Client.c }

// Device returns the GPU memory of the node the function runs on, or nil.
func (fc *FnCtx) Device() *platform.Device {
	return fc.Client.c.Device(fc.Inv.Node())
}

// HandlerFunc is a PCSI function body.
type HandlerFunc func(fc *FnCtx) error

// FnConfig describes a function to register.
type FnConfig struct {
	Name string
	Kind platform.Kind
	// Res is the per-instance resource demand beyond the platform
	// baseline (set GPUs for accelerator functions).
	Res cluster.Resources
	// CodeSize is the size of the code object stored in the data layer.
	CodeSize int64
	// Concurrency is max in-flight invocations per instance (default 1).
	Concurrency int
	// Variants optionally provide alternative implementations the runtime
	// optimizer chooses among per invocation (§3.1).
	Variants []faas.Variant
	// TypicalExec is the optimizer's baseline compute-time estimate.
	TypicalExec time.Duration
	Handler     HandlerFunc
}

// invokeArgs travels through faas.Invocation.Ctx to the adapter.
type invokeArgs struct {
	inputs  []Ref
	outputs []Ref
}

// RegisterFunction stores the function's code as an object in the data
// layer (functions are objects, §3.1: "users store functions themselves as
// objects in the data layer") and returns an executable reference.
func (cl *Client) RegisterFunction(p *sim.Proc, cfg FnConfig) (Ref, error) {
	c := cl.c
	if cfg.CodeSize <= 0 {
		cfg.CodeSize = 1 << 20
	}
	rsp := trace.Of(c.env).Start(p, "core.fn", "register", trace.Str("fn", cfg.Name))
	defer rsp.Close(p)
	codeRef, err := cl.Create(p, object.Regular)
	if err != nil {
		return Ref{}, err
	}
	if err := cl.Put(p, codeRef, make([]byte, min(cfg.CodeSize, 1<<16))); err != nil {
		return Ref{}, err
	}
	// Code is immutable once published — drop-in replacement means
	// registering a new version, never mutating in place.
	if err := cl.Freeze(p, codeRef, object.Immutable); err != nil {
		return Ref{}, err
	}
	handler := cfg.Handler
	fn := &faas.Function{
		Name:        cfg.Name,
		Kind:        cfg.Kind,
		Res:         cfg.Res,
		CodeSize:    cfg.CodeSize,
		Concurrency: cfg.Concurrency,
		Variants:    cfg.Variants,
		TypicalExec: cfg.TypicalExec,
		Handler: func(inv *faas.Invocation) error {
			fc := &FnCtx{
				Inv:    inv,
				Client: c.ClientAt(inv.Node()),
				Body:   inv.Body,
			}
			if args, ok := inv.Ctx.(*invokeArgs); ok && args != nil {
				fc.Inputs = args.inputs
				fc.Outputs = args.outputs
			}
			return handler(fc)
		},
	}
	if err := c.rt.Register(fn); err != nil {
		return Ref{}, err
	}
	ref, err := cl.Attenuate(codeRef, capability.Read|capability.Exec|capability.Grant)
	if err != nil {
		return Ref{}, err
	}
	c.fnRefs[cfg.Name] = ref
	if c.fnByCode == nil {
		c.fnByCode = make(map[object.ID]string)
	}
	c.fnByCode[codeRef.cap.Object()] = cfg.Name
	return ref, nil
}

// InvokeArgs parameterise one invocation.
type InvokeArgs struct {
	Inputs  []Ref
	Outputs []Ref
	Body    []byte
	// Goal selects among the function's variants (§3.1's optimizer).
	Goal  faas.Goal
	Hints faas.PlacementHints
}

// Invoke calls the function behind fnRef, blocking until it returns.
// Requires the Exec right — functions are invoked through references like
// any other object.
func (cl *Client) Invoke(p *sim.Proc, fnRef Ref, args InvokeArgs) (*faas.Instance, error) {
	v := verbInvoke
	if err := cl.check(fnRef, v.need); err != nil {
		return nil, err
	}
	name, ok := cl.c.fnByCode[fnRef.cap.Object()]
	if !ok {
		return nil, ErrNoSuchFn
	}
	sp := trace.Of(cl.c.env).Start(p, v.cat, v.name, trace.Str("fn", name))
	defer sp.Close(p)
	hints := args.Hints
	if args.Goal != faas.GoalDefault {
		hints.Goal = args.Goal
	}
	if hints.Tenant == "" {
		hints.Tenant = cl.tenant
	}
	var inst *faas.Instance
	t := target{cl: cl, p: p, v: v, op: v.fault + ":" + name}
	err := t.retry(func() error {
		// The invocation request travels to the runtime's control plane
		// (and again on each retry — the request is re-sent).
		cl.c.net.Send(p, cl.node, cl.c.grp.Primary0Node(), 128+len(args.Body))
		var ierr error
		inst, ierr = cl.c.rt.Invoke(p, name, args.Body, hints, &invokeArgs{inputs: args.Inputs, outputs: args.Outputs})
		return ierr
	})
	return inst, err
}

// GraphTask is one node of a PCSI task graph.
type GraphTask struct {
	Name string
	Fn   Ref
	Body []byte
	// After lists dependencies by task name.
	After []string
	// Colocate requests placement next to the first dependency (§4.1).
	Colocate bool
	// PreferGPUNode places this task on a GPU node in anticipation of an
	// accelerator-bound downstream stage (§4.1).
	PreferGPUNode bool
	Inputs        []Ref
	Outputs       []Ref
}

// RunGraph executes a task graph and returns per-task results. Tasks whose
// dependencies are satisfied run concurrently (pipelining).
func (cl *Client) RunGraph(p *sim.Proc, tasks []GraphTask) (map[string]*taskgraph.Result, error) {
	g := taskgraph.NewGraph()
	argsByName := make(map[string]*invokeArgs, len(tasks))
	for i := range tasks {
		t := &tasks[i]
		if err := cl.check(t.Fn, capability.Exec); err != nil {
			return nil, fmt.Errorf("core: task %q: %w", t.Name, err)
		}
		name, ok := cl.c.fnByCode[t.Fn.cap.Object()]
		if !ok {
			return nil, fmt.Errorf("core: task %q: %w", t.Name, ErrNoSuchFn)
		}
		argsByName[t.Name] = &invokeArgs{inputs: t.Inputs, outputs: t.Outputs}
		if err := g.Add(&taskgraph.Task{
			Name:          t.Name,
			Fn:            name,
			Body:          t.Body,
			After:         t.After,
			Colocate:      t.Colocate,
			PreferGPUNode: t.PreferGPUNode,
		}); err != nil {
			return nil, err
		}
	}
	ex := taskgraph.NewExecutor(cl.c.rt)
	ex.MakeCtx = func(t *taskgraph.Task) any { return argsByName[t.Name] }
	ex.Retry = cl.c.retry
	ex.QoS = cl.c.qos
	ex.Tenant = cl.tenant
	// Bracketing counters: Execute returns on both success and clean
	// failure, so a mismatch means a graph leaked mid-flight (chaos
	// invariant).
	cl.c.GraphsStarted++
	res, err := ex.Execute(p, g)
	cl.c.GraphsFinished++
	return res, err
}
