package core

import (
	"fmt"

	"repro/internal/capability"
	"repro/internal/consistency"
	"repro/internal/fncache"
	"repro/internal/media"
	"repro/internal/object"
	"repro/internal/sim"
)

// Lattice object operations: eventual-consistency objects whose payloads
// are encoded join-semilattice values (internal/fncache). With a colocated
// cache, updates merge into the caller node's local replica at DRAM cost
// and reach the store on the next LatticeSync; without one, every
// operation is a read-merge-write round trip through the store. Either
// way the store-level anti-entropy resolves concurrent flushes with the
// lattice join instead of last-writer-wins (Group.SetMerger), so replicas
// converge without losing updates.

// LatticeCreate makes an eventual-consistency object initialized to the
// bottom lattice value. The bottom write is linearizable so every replica
// starts from a decodable lattice payload; all later updates are eventual.
func (cl *Client) LatticeCreate(p *sim.Proc, bottom fncache.Lattice) (Ref, error) {
	r, err := cl.Create(p, object.Regular, WithConsistency(consistency.Eventual))
	if err != nil {
		return Ref{}, err
	}
	seed := r
	seed.lvl = consistency.Linearizable
	if err := cl.Put(p, seed, bottom.Encode()); err != nil {
		return Ref{}, err
	}
	return r, nil
}

// LatticeUpdate merges delta into the object. Cached: a DRAM-cost merge
// into the node's local replica, flushed later. Uncached: read-merge-write
// through the store.
func (cl *Client) LatticeUpdate(p *sim.Proc, r Ref, delta fncache.Lattice) error {
	if err := cl.check(r, capability.Write); err != nil {
		return err
	}
	if fc := cl.c.fncache; fc != nil {
		fc.LatticeMergeLocal(int(cl.node), fncache.Key(r.cap.Object()), delta)
		p.Sleep(media.DRAM.WriteLatency)
		return nil
	}
	return cl.latticeRMW(p, r, delta.Encode())
}

// LatticeRead returns the object's lattice value as observed at the
// caller's node: the local replica when cached (counting a read against a
// store that has moved on as observed-stale), the store's closest replica
// otherwise.
func (cl *Client) LatticeRead(p *sim.Proc, r Ref) (fncache.Lattice, error) {
	if err := cl.check(r, capability.Read); err != nil {
		return nil, err
	}
	fc := cl.c.fncache
	if fc == nil {
		data, err := cl.GetAt(p, r, consistency.Eventual)
		if err != nil {
			return nil, err
		}
		return fncache.Decode(data)
	}
	node, key := int(cl.node), fncache.Key(r.cap.Object())
	if v, ok := fc.LatticeGet(node, key); ok {
		if newest, have := cl.c.grp.NewestStamp(r.cap.Object()); have && fc.SyncStamp(node, key).Less(newest) {
			fc.NoteLatticeStale()
		}
		p.Sleep(media.DRAM.ReadLatency)
		return v, nil
	}
	// Cold: pull the store value into a fresh local replica.
	return cl.latticePull(p, r)
}

// latticePull installs the store's current join as the caller node's
// replica, clearing observed staleness up to the pulled stamp.
func (cl *Client) latticePull(p *sim.Proc, r Ref) (fncache.Lattice, error) {
	data, err := cl.GetAt(p, r, consistency.Eventual)
	if err != nil {
		return nil, err
	}
	v, err := fncache.Decode(data)
	if err != nil {
		return nil, err
	}
	stamp, _ := cl.c.grp.NewestStamp(r.cap.Object())
	cl.c.fncache.LatticePull(int(cl.node), fncache.Key(r.cap.Object()), v, stamp)
	return v, nil
}

// LatticeSync flushes the caller node's dirty replica into the store
// (read-merge-write at eventual consistency) and pulls the store's join
// back, clearing observed staleness up to the synced stamp. A no-op
// without a cache: every update already went through the store.
func (cl *Client) LatticeSync(p *sim.Proc, r Ref) error {
	if err := cl.check(r, capability.Read|capability.Write); err != nil {
		return err
	}
	fc := cl.c.fncache
	if fc == nil {
		return nil
	}
	node, key := int(cl.node), fncache.Key(r.cap.Object())
	if fc.LatticeDirty(node, key) {
		enc := fc.NodeValue(node, key)
		if err := cl.latticeRMW(p, r, enc); err != nil {
			return err
		}
		stamp, _ := cl.c.grp.NewestStamp(r.cap.Object())
		fc.Flushed(node, key, stamp)
	}
	_, err := cl.latticePull(p, r)
	return err
}

// latticeRMW folds enc into the stored payload: read the current value,
// join, write back. The write is eventual — a concurrent flush from
// another node lands on a different replica and anti-entropy joins the
// two (Merges counter), which is what makes this safe without a lock.
func (cl *Client) latticeRMW(p *sim.Proc, r Ref, enc []byte) error {
	cur, err := cl.GetAt(p, r, consistency.Eventual)
	if err != nil {
		return err
	}
	return cl.Put(p, r, joinPayload(cur, enc))
}

// joinPayload is the lattice join of a stored payload with an encoded
// replica; a store payload that is not a lattice is simply replaced.
func joinPayload(cur, enc []byte) []byte {
	if fncache.Mergeable(cur) {
		if m, ok := fncache.MergePayload(cur, enc); ok {
			return m
		}
	}
	return enc
}

// LatticeAudit is the lattice convergence check, used by the chaos
// harness's invariants and by experiments after quiescence. It (1) flushes
// every node replica into the store quiescently, (2) runs anti-entropy to
// a fixed point, (3) asserts every node replica is ≤ the store's join — a
// replica holding state the join lost means an update was dropped — and
// (4) installs the join back into every replica so post-audit state is
// converged. The returned strings describe violations; nil means every
// replica converged (or the deployment has no cache).
func (c *Cloud) LatticeAudit() []string {
	fc := c.fncache
	if fc == nil {
		return nil
	}
	var v []string
	st := c.grp.Primary0Store()
	keys := fc.LatticeKeys()
	for _, key := range keys {
		id := object.ID(key)
		if !st.Contains(id) {
			continue // swept by GC; Invalidate dropped the replicas
		}
		for _, node := range fc.LatticeNodes(key) {
			enc := fc.NodeValue(node, key)
			if enc == nil {
				continue
			}
			err := c.grp.QuiescentApply(id, func(o *object.Object) error {
				return o.SetData(joinPayload(o.Read(), enc))
			})
			if err != nil {
				v = append(v, fmt.Sprintf("lattice flush of object %v from node %d: %v", id, node, err))
			}
		}
	}
	c.grp.SyncAll()
	for _, key := range keys {
		id := object.ID(key)
		o, err := st.Get(id)
		if err != nil {
			continue
		}
		storeVal := o.Read()
		sv, derr := fncache.Decode(storeVal)
		if derr != nil {
			v = append(v, fmt.Sprintf("lattice object %v: store payload is not a lattice: %v", id, derr))
			continue
		}
		stamp, _ := c.grp.NewestStamp(id)
		for _, node := range fc.LatticeNodes(key) {
			enc := fc.NodeValue(node, key)
			if le, lerr := fncache.PayloadLeq(enc, storeVal); lerr != nil || !le {
				v = append(v, fmt.Sprintf("lattice replica of object %v at node %d exceeds the store join after heal+sync", id, node))
				continue
			}
			fc.InstallPulled(node, key, sv, stamp)
		}
	}
	return v
}
