package core

import (
	"errors"

	"repro/internal/capability"
	"repro/internal/consistency"
	"repro/internal/fault"
	"repro/internal/fncache"
	"repro/internal/object"
	"repro/internal/qos"
	"repro/internal/sim"
	"repro/internal/simnet"
	"repro/internal/trace"
)

// The op pipeline. §3.2 argues that a stateful, reference-based API makes
// the per-operation path thin and uniform; this file is that path, written
// once. Every Client verb is a row of the verb table plus one body closure.
// run threads the cross-cutting hooks in a fixed order —
//
//	capability check → QoS admit → span →
//	    (node-local object | coherence write → body) → DataLat
//
// — and the body reaches state through a target, which dispatches
// node-local vs replicated and wraps each store access in
// retry(fault → store). Every hook is nil-inert.

// verb is the static description of one Client operation, with each
// historical exception spelled out as data instead of a hand-written prologue.
type verb struct {
	name, cat string            // span name and category
	need      capability.Rights // rights the presented reference must carry
	fault     string            // injector and retry-policy op name; "" = neither faulted nor retried
	write     bool              // coherence write: lease holders are invalidated before the store mutates

	noRef     bool // Create: no reference exists yet — nothing to check, no "obj" span attribute
	noAdmit   bool // bypasses QoS data admission (reasons on each row)
	noSpan    bool // socket verbs: a span would renumber every later trace ID
	noObserve bool // the replicated path leaves no DataLat sample
	noRetry   bool // Pop: faulted once by the verb itself; its poll loop is the retry
}

// verbs is the whole data plane, in declaration order; DESIGN.md §5
// reproduces it. row registers a verb there so none can be left out.
var verbs []*verb

func row(v verb) *verb {
	verbs = append(verbs, &v)
	return &v
}

var (
	// Observes only successful creations, so it samples DataLat itself.
	verbCreate  = row(verb{name: "create", cat: "core.data", fault: "core.create", noRef: true, noObserve: true})
	verbPut     = row(verb{name: "put", cat: "core.data", need: capability.Write, fault: "core.put", write: true})
	verbGet     = row(verb{name: "get", cat: "core.data", need: capability.Read, fault: "core.get"})
	verbGetAt   = row(verb{name: "get_at", cat: "core.data", need: capability.Read, fault: "core.get_at"})
	verbAppend  = row(verb{name: "append", cat: "core.data", need: capability.Append, fault: "core.append", write: true})
	verbWriteAt = row(verb{name: "write_at", cat: "core.data", need: capability.Write, fault: "core.write_at", write: true})
	verbReadAt  = row(verb{name: "read_at", cat: "core.data", need: capability.Read, fault: "core.read_at"})
	// Metadata transitions and probes are not data-latency samples.
	verbFreeze = row(verb{name: "freeze", cat: "core.meta", need: capability.SetMut, fault: "core.freeze", write: true, noObserve: true})
	// A bare linearizable probe: never admitted, faulted, or retried.
	verbMutability = row(verb{name: "mutability", cat: "core.meta", need: capability.Read, noAdmit: true, noObserve: true})
	// FIFO traffic is throughput-, not latency-shaped: no DataLat sample.
	verbPush = row(verb{name: "push", cat: "core.data", need: capability.Append, fault: "core.push", noObserve: true})
	// A consumer parked on an empty queue would pin an admission slot for an
	// unbounded poll, starving producers of the tokens needed to fill it.
	verbPop  = row(verb{name: "pop", cat: "core.data", need: capability.Read | capability.Write, fault: "core.pop", noAdmit: true, noObserve: true, noRetry: true})
	verbStat = row(verb{name: "stat", cat: "core.meta", need: capability.Read, fault: "core.stat", noObserve: true})
	// The versioned read is a Get to the injector: it faults as core.get.
	verbGetVersioned  = row(verb{name: "get_versioned", cat: "core.data", need: capability.Read, fault: "core.get"})
	verbReadDir       = row(verb{name: "readdir", cat: "core.meta", need: capability.Read, fault: "core.readdir", noObserve: true})
	verbSetDirEntries = row(verb{name: "set_entries", cat: "core.meta", need: capability.Write, fault: "core.setdir", noObserve: true})
	// Sockets predate the hooks and stay bare: a connection's polls are not
	// operations to admit, trace, fault, or time.
	verbSockSend  = row(verb{name: "sock_send", need: capability.Write, noAdmit: true, noSpan: true, noObserve: true})
	verbSockRecv  = row(verb{name: "sock_recv", need: capability.Read | capability.Write, noAdmit: true, noSpan: true, noObserve: true})
	verbSockClose = row(verb{name: "sock_close", need: capability.Write, noAdmit: true, noSpan: true, noObserve: true})
	// Invoke resolves the function name between check and span, so it
	// borrows target.retry instead of going through run; the faas runtime
	// admits it under ClassInvoke.
	verbInvoke = row(verb{name: "invoke", cat: "core.fn", need: capability.Exec, fault: "core.invoke", noAdmit: true, noObserve: true})
)

// whole, as a view's receive size, means the object's entire payload.
const whole = -1

// target is what a verb body operates on: the object behind the presented
// reference plus the hooks an access to it must pass through. The body gets
// it by value (a pointer handed to an indirect call would escape, costing an
// allocation per op); its methods take the copy's address to keep their
// frames small — RPC procs start on fresh goroutine stacks, so depth is time.
type target struct {
	cl *Client
	p  *sim.Proc
	v  *verb
	id object.ID
	e  *ephemObj   // the node-local copy, or nil for a replicated object
	sp *trace.Span // the verb's open span (nil untraced), for annotations
	op string      // retry-policy label; v.fault except for Invoke
}

// run is the one path every object verb takes.
func (cl *Client) run(p *sim.Proc, r Ref, v *verb, body func(t target) error) error {
	if !v.noRef {
		if err := cl.check(r, v.need); err != nil {
			return err
		}
	}
	g, err := cl.admit(p, v)
	if err != nil {
		return err
	}
	defer g.Release()
	id := r.cap.Object()
	t := target{cl: cl, p: p, v: v, id: id, e: cl.c.ephemOf(id), sp: cl.opSpan(p, v, id), op: v.fault}
	defer t.sp.Close(p)
	if t.e != nil {
		// Node-local copies sample DataLat per successful access (ephemDo).
		return body(t)
	}
	start := p.Now()
	key, writing := cl.beginWrite(p, r, v)
	err = body(t)
	if !v.noObserve {
		cl.observe(p, start)
	}
	if writing {
		cl.c.fncache.EndWrite(key)
	}
	return err
}

// admit gates the verb through the data-class admission controller; with no
// controller it is an inlined no-op returning the zero Grant.
func (cl *Client) admit(p *sim.Proc, v *verb) (qos.Grant, error) {
	if v.noAdmit {
		return qos.Grant{}, nil
	}
	return cl.c.qos.Admit(p, qos.ClassData)
}

// opSpan opens the verb's span, nested under whatever the calling process
// has open (a function's exec span, a task span, ...).
func (cl *Client) opSpan(p *sim.Proc, v *verb, obj object.ID) *trace.Span {
	if v.noSpan {
		return nil
	}
	tr := trace.Of(cl.c.env)
	origin := trace.Int("origin", int64(cl.node))
	if v.noRef {
		return tr.Start(p, v.cat, v.name, origin)
	}
	return tr.Start(p, v.cat, v.name, trace.Int("obj", int64(obj)), origin)
}

// beginWrite opens a coherence write on r's object when the verb mutates
// payload and the colocated cache may lease it: the epoch bump drops every
// holder BEFORE the store mutates (so no entry outlives the data it
// copied), and the invalidation fan-out is charged one message per holder.
// When it reports true the caller must EndWrite the key, even if the store
// operation fails.
func (cl *Client) beginWrite(p *sim.Proc, r Ref, v *verb) (fncache.Key, bool) {
	fc := cl.c.fncache
	if !v.write || fc == nil || r.lvl != consistency.Linearizable {
		return 0, false
	}
	key := fncache.Key(r.cap.Object())
	for _, h := range fc.BeginWrite(key) {
		cl.c.net.Send(p, cl.node, simnet.NodeID(h), 64) // invalidate message
	}
	return key, true
}

// apply runs a mutation against the object. size is the payload crossing
// to the object, tallied once however often the store access is retried.
func (t *target) apply(lvl consistency.Level, size int, fn func(*object.Object) error) error {
	if t.e != nil {
		return t.cl.ephemDo(t.p, t.e, size, 0, fn)
	}
	t.moved(size)
	return t.retry(func() error {
		return t.cl.c.grp.Apply(t.p, t.cl.node, t.id, lvl, size, fn)
	})
}

// view runs a read against the object. recv is the payload crossing back
// from a node-local copy (whole = all of it); the replicated store charges
// its own transfer.
func (t *target) view(lvl consistency.Level, recv int, fn func(*object.Object) error) error {
	if t.e != nil {
		if recv == whole {
			recv = int(t.e.obj.Size())
		}
		return t.cl.ephemDo(t.p, t.e, 0, recv, fn)
	}
	return t.retry(func() error {
		return t.cl.c.grp.View(t.p, t.cl.node, t.id, lvl, fn)
	})
}

// take says what a whole-payload read hands back.
type take uint8

const (
	takeCopy     take = iota // object.Read: the caller's own copy below IMMUTABLE, a read-only view at it
	takeCopyLend             // takeCopy, plus a Snapshot lent to the lease cache
	takeView                 // object.Snapshot: a read-only view at every level
)

// read views the object at lvl and returns the metadata it saw, together with
// (recv == whole) the payload it saw them with, as how says, and — unless how
// is takeCopy — a Snapshot taken in the same access (lent; data itself for
// takeView).
func (t *target) read(lvl consistency.Level, recv int, how take) (data, lent []byte, at StatInfo, err error) {
	err = t.view(lvl, recv, func(o *object.Object) error {
		if recv == whole {
			if how != takeCopy {
				lent = o.Snapshot()
			}
			if how == takeView {
				data = lent
			} else {
				data = o.Read()
			}
		}
		at = StatInfo{Kind: o.Kind(), Size: o.Size(), Version: o.Version(), Mutability: o.Mutability()}
		return nil
	})
	t.moved(len(data))
	return data, lent, at, err
}

// poll applies fn until it stops reporting empty, sleeping one network round
// trip per miss; a positive budget bounds the misses.
func (t *target) poll(empty error, budget int, fn func(*object.Object) error) error {
	for i := 0; budget <= 0 || i < budget; i++ {
		err := t.apply(consistency.Linearizable, 0, fn)
		if !errors.Is(err, empty) {
			return err
		}
		t.p.Sleep(t.cl.c.net.Profile().BaseRTT)
	}
	return fault.Fatal("core: " + t.v.name + ": poll budget exhausted")
}

// retry runs one store access as retry(fault → fn): each attempt first
// rolls the verb's fault, and the cloud's retry policy decides whether a
// failure is tried again. With no policy and no injector it calls fn once.
func (t *target) retry(fn func() error) error {
	if t.v.fault == "" || t.v.noRetry {
		return fn()
	}
	return t.cl.c.retry.Do(t.p, t.op, func() error {
		if err := t.fault(); err != nil {
			return err
		}
		return fn()
	})
}

// fault rolls the injector's dice for the verb. Injected faults model the
// replicated store failing; an access to node-local memory has none.
func (t *target) fault() error {
	if t.e != nil {
		return nil
	}
	return t.cl.c.inj.OpFault(t.p, t.v.fault)
}

// moved tallies payload bytes a replicated operation brought back over the
// network; node-local accesses count their own (ephemDo).
func (t *target) moved(n int) {
	if t.e == nil {
		t.cl.c.BytesMoved += int64(n)
	}
}
