package core

import (
	"strings"

	"repro/internal/capability"
	"repro/internal/consistency"
	"repro/internal/namespace"
	"repro/internal/object"
	"repro/internal/sim"
)

// NS is a handle on a PCSI namespace. There is no global namespace (§3.2):
// every function and client reaches state through namespace handles passed
// to it. Namespace metadata is always linearizable and served by the
// metadata primary; mutations are mirrored to all replicas.
type NS struct {
	c  *Cloud
	ns *namespace.Namespace
}

// metaOp charges the protocol cost of one metadata operation: a binary-
// framed exchange with the metadata primary plus a media touch per path
// component.
func (c *Cloud) metaOp(p *sim.Proc, from *Client, path string) {
	comps := 1 + strings.Count(strings.Trim(path, "/"), "/")
	c.net.Send(p, from.node, c.grp.Primary0Node(), 64+len(path))
	for i := 0; i < comps; i++ {
		p.Sleep(c.opts.Media.ReadLatency)
	}
	c.net.Send(p, c.grp.Primary0Node(), from.node, 128)
}

// NewNamespace creates a fresh namespace rooted at a new directory and
// returns the handle plus a reference to the root.
func (cl *Client) NewNamespace(p *sim.Proc) (*NS, Ref, error) {
	c := cl.c
	id, err := c.grp.Create(p, cl.node, object.Directory)
	if err != nil {
		return nil, Ref{}, err
	}
	ns, err := namespace.New(c.grp.Primary0Store(), id)
	if err != nil {
		return nil, Ref{}, err
	}
	c.nsRoots[id] = struct{}{}
	ref := Ref{cap: c.caps.Mint(id, capability.All), lvl: consistency.Linearizable}
	return &NS{c: c, ns: ns}, ref, nil
}

// Union returns a new namespace that layers a fresh writable directory
// over ns (Docker-style layering, §3.2).
func (cl *Client) Union(p *sim.Proc, lower *NS) (*NS, Ref, error) {
	c := cl.c
	id, err := c.grp.Create(p, cl.node, object.Directory)
	if err != nil {
		return nil, Ref{}, err
	}
	u, err := namespace.NewUnion(c.grp.Primary0Store(), id, lower.ns)
	if err != nil {
		return nil, Ref{}, err
	}
	c.nsRoots[id] = struct{}{}
	ref := Ref{cap: c.caps.Mint(id, capability.All), lvl: consistency.Linearizable}
	return &NS{c: c, ns: u}, ref, nil
}

// Freeze returns a read-only view of the namespace (for sharing with
// less-trusted functions).
func (n *NS) Freeze() *NS { return &NS{c: n.c, ns: n.ns.Freeze()} }

// Layers reports the union stack depth.
func (n *NS) Layers() int { return n.ns.Layers() }

// Root returns the top layer's root directory ID.
func (n *NS) Root() object.ID { return n.ns.Root() }

// DropRoot unregisters the namespace from the GC root set; its objects
// become collectable once no references remain.
func (n *NS) DropRoot() { delete(n.c.nsRoots, n.ns.Root()) }

// mirrorPath mirrors every directory along path (and the target object if
// it resolves) to all replicas, keeping metadata replicated after a
// mutation on the primary.
func (n *NS) mirrorPath(p *sim.Proc, path string) error {
	ids := []object.ID{n.ns.Root()}
	trimmed := strings.Trim(path, "/")
	if trimmed != "" {
		parts := strings.Split(trimmed, "/")
		for i := range parts {
			prefix := strings.Join(parts[:i+1], "/")
			if id, err := n.ns.Resolve(prefix); err == nil {
				ids = append(ids, id)
			}
		}
	}
	// A copy-up target can be a Regular object some node leased.
	n.c.dropLeases(ids...)
	return n.c.grp.Mirror(p, ids...)
}

// CreateAt creates an object at path in the namespace and returns a
// full-rights reference.
func (n *NS) CreateAt(p *sim.Proc, cl *Client, path string, kind object.Kind, opts ...CreateOpt) (Ref, error) {
	params := createParams{lvl: consistency.Linearizable, mut: object.Mutable}
	for _, o := range opts {
		o(&params)
	}
	n.c.metaOp(p, cl, path)
	o, err := n.ns.Create(path, kind)
	if err != nil {
		return Ref{}, err
	}
	if params.mut != object.Mutable {
		if err := o.SetMutability(params.mut); err != nil {
			return Ref{}, err
		}
	}
	if err := n.mirrorPath(p, path); err != nil {
		return Ref{}, err
	}
	return Ref{cap: n.c.caps.Mint(o.ID(), capability.All), lvl: params.lvl}, nil
}

// Open resolves path and returns a reference with the requested rights.
// The capability model means this is the only authorisation point: data
// operations through the returned reference need no further auth.
func (n *NS) Open(p *sim.Proc, cl *Client, path string, rights capability.Rights) (Ref, error) {
	n.c.metaOp(p, cl, path)
	var id object.ID
	var err error
	if rights&(capability.Write|capability.Append) != 0 && n.ns.Layers() > 1 {
		// Writing through a union triggers copy-up.
		o, werr := n.ns.OpenForWrite(path)
		if werr != nil {
			return Ref{}, werr
		}
		id = o.ID()
		if err := n.mirrorPath(p, path); err != nil {
			return Ref{}, err
		}
	} else {
		id, err = n.ns.Resolve(path)
		if err != nil {
			return Ref{}, err
		}
	}
	return Ref{cap: n.c.caps.Mint(id, rights), lvl: consistency.Linearizable}, nil
}

// Bind links an existing object (by reference) at path. Ephemeral objects
// cannot be bound: namespaces only name durable, replicated state.
func (n *NS) Bind(p *sim.Proc, cl *Client, path string, r Ref) error {
	if err := cl.check(r, 0); err != nil {
		return err
	}
	if n.c.ephemOf(r.cap.Object()) != nil {
		return ErrEphemeralNS
	}
	n.c.metaOp(p, cl, path)
	if err := n.ns.Bind(path, r.cap.Object()); err != nil {
		return err
	}
	return n.mirrorPath(p, path)
}

// Remove unlinks path (recording a whiteout in union namespaces).
func (n *NS) Remove(p *sim.Proc, cl *Client, path string) error {
	n.c.metaOp(p, cl, path)
	dir := parentPath(path)
	if err := n.ns.Remove(path); err != nil {
		return err
	}
	return n.mirrorPath(p, dir)
}

// List returns merged entry names of the directory at path.
func (n *NS) List(p *sim.Proc, cl *Client, path string) ([]string, error) {
	n.c.metaOp(p, cl, path)
	return n.ns.List(path)
}

func parentPath(path string) string {
	trimmed := strings.Trim(path, "/")
	i := strings.LastIndex(trimmed, "/")
	if i < 0 {
		return ""
	}
	return trimmed[:i]
}
