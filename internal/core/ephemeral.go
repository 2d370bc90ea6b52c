package core

import (
	"repro/internal/fault"
	"repro/internal/media"
	"repro/internal/object"
	"repro/internal/sim"
	"repro/internal/simnet"
)

// Ephemeral objects implement §3.2's observation that "PCSI only describes
// an interface to state, underlying implementations may vary ... This
// could mean storage on disk in multiple datacenters or keeping just one
// copy in the memory of a GPU." An ephemeral object lives in the memory
// of the node that created it — no replication, no durability — yet is
// reached through exactly the same reference API as replicated objects.
// Task-graph intermediates use them: when producer and consumer are
// co-scheduled, data movement drops to zero network bytes (§4.1).

// ErrEphemeralNS is returned when binding an ephemeral object into a
// namespace, which only persists durable objects. Fatal: the binding is
// wrong by construction and no retry changes that.
var ErrEphemeralNS = fault.Fatal("core: ephemeral objects cannot be bound into namespaces")

// ephemBase offsets ephemeral IDs far above the replicated ID space.
const ephemBase object.ID = 1 << 40

type ephemObj struct {
	owner simnet.NodeID
	obj   *object.Object
}

// WithEphemeral makes the created object node-local and unreplicated:
// cheap, single-copy state for task intermediates.
func WithEphemeral() CreateOpt {
	return func(p *createParams) { p.ephemeral = true }
}

func (c *Cloud) newEphem(owner simnet.NodeID, kind object.Kind) object.ID {
	if c.ephem == nil {
		c.ephem = make(map[object.ID]*ephemObj)
	}
	id := ephemBase + object.ID(len(c.ephem)) + c.ephemDrops
	c.ephem[id] = &ephemObj{owner: owner, obj: object.New(id, kind)}
	return id
}

// ephemOf returns the ephemeral entry behind an object ID, or nil for a
// replicated object.
func (c *Cloud) ephemOf(id object.ID) *ephemObj { return c.ephem[id] }

// ephemDo runs fn against an ephemeral object and, when it succeeds, charges
// the access and samples its latency: local memory when on the owner, one
// exchange with the owner otherwise. send is the payload crossing to the
// object, recv the payload crossing back.
func (cl *Client) ephemDo(p *sim.Proc, e *ephemObj, send, recv int, fn func(*object.Object) error) error {
	start := p.Now()
	if err := fn(e.obj); err != nil {
		return err
	}
	if cl.node == e.owner {
		cl.c.CacheHits++
		p.Sleep(media.DRAM.ReadCost(int64(send + recv)))
	} else {
		cl.c.net.Send(p, cl.node, e.owner, 64+send)
		p.Sleep(media.DRAM.ReadCost(int64(send + recv)))
		cl.c.net.Send(p, e.owner, cl.node, 64+recv)
		cl.c.BytesMoved += int64(send + recv)
	}
	cl.observe(p, start)
	return nil
}

// reapEphem frees the ephemeral object behind id once no live reference
// names it — nothing can reach it again, and nothing else holds it — and
// reports whether it did. The drop count keeps IDs from being reused.
func (c *Cloud) reapEphem(id object.ID) bool {
	if c.ephem[id] == nil || c.caps.Live(id) > 0 {
		return false
	}
	delete(c.ephem, id)
	c.ephemDrops++
	return true
}

// sweepEphemeral reaps the ephemeral objects whose references left the
// registry without a Client.Drop (which reaps at the last one itself).
func (c *Cloud) sweepEphemeral() int {
	n := 0
	for id := range c.ephem {
		if c.reapEphem(id) {
			n++
		}
	}
	return n
}

// EphemeralCount reports live ephemeral objects (tests/diagnostics).
func (c *Cloud) EphemeralCount() int { return len(c.ephem) }
