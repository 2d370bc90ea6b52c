package consistency

import (
	"bytes"
	"errors"
	"fmt"
	"sort"
	"time"

	"repro/internal/fault"
	"repro/internal/media"
	"repro/internal/object"
	"repro/internal/sim"
	"repro/internal/simnet"
	"repro/internal/store"
)

// Errors returned by replicated operations.
var (
	ErrNoReplicas  = fault.Fatal("consistency: group has no replicas")
	ErrNotFound    = fault.Fatal("consistency: object not found")
	ErrUnavailable = errors.New("consistency: operation unavailable (insufficient live replicas)")
)

// DownTimeout is how long a client waits on an unresponsive replica
// before declaring the operation unavailable.
const DownTimeout = 500 * time.Millisecond

// Replica is one copy of the group's state on a storage node.
type Replica struct {
	Index int
	Node  simnet.NodeID
	St    *store.Store
	meta  map[object.ID]*objMeta
	down  bool
}

// Down reports whether the replica is failed (unreachable).
func (r *Replica) Down() bool { return r.down }

type objMeta struct {
	stamp Stamp
	vc    VClock
}

// Group is a replicated object store: N replicas with one per-object
// serialisation point (the primary) for linearizable operations and
// closest-replica access plus gossip for eventual ones.
type Group struct {
	env      *sim.Env
	net      *simnet.Network
	replicas []*Replica
	locks    map[object.ID]*sim.Resource
	lamport  uint64
	// merger, when set, resolves concurrent payloads during anti-entropy
	// by computing a least upper bound instead of last-writer-wins. The
	// function cache layer installs a lattice merger here; ok=false falls
	// back to LWW, so non-lattice payloads behave exactly as before.
	merger func(a, b []byte) ([]byte, bool)

	// Experiment counters.
	Conflicts    int64 // concurrent updates detected by vector clocks
	GossipRounds int64
	// Merges counts concurrent updates resolved by the installed merger
	// (lattice joins) rather than LWW.
	Merges     int64
	StaleReads int64 // eventual reads that observed a non-latest stamp
	// LinStaleReads counts linearizable reads that observed a non-latest
	// stamp. The protocol (primary serialisation + majority ack) makes this
	// impossible, so the chaos harness asserts it stays zero.
	LinStaleReads int64
}

// NewGroup builds a replicated group with one replica on each given node,
// all using the same storage medium.
func NewGroup(env *sim.Env, net *simnet.Network, nodes []simnet.NodeID, media media.Profile) *Group {
	g := &Group{env: env, net: net, locks: make(map[object.ID]*sim.Resource)}
	for i, n := range nodes {
		g.replicas = append(g.replicas, &Replica{
			Index: i,
			Node:  n,
			St:    store.New(media, 0),
			meta:  make(map[object.ID]*objMeta),
		})
	}
	return g
}

// N returns the replication factor.
func (g *Group) N() int { return len(g.replicas) }

// Replicas returns the group's replicas (primarily for tests).
func (g *Group) Replicas() []*Replica { return g.replicas }

// primary returns the serialisation-point replica for an object.
// Objects are striped across replicas so load spreads.
func (g *Group) primary(id object.ID) *Replica {
	return g.replicas[int(uint64(id))%len(g.replicas)]
}

// SetDown marks a replica failed (unreachable) or recovered. A recovered
// replica catches up through anti-entropy.
func (g *Group) SetDown(i int, down bool) { g.replicas[i].down = down }

// liveFrom returns the number of replicas that are up and network-reachable
// from the given node (quorum as seen from a primary during a partition).
func (g *Group) liveFrom(from simnet.NodeID) int {
	n := 0
	for _, r := range g.replicas {
		if !r.down && g.net.Reachable(from, r.Node) {
			n++
		}
	}
	return n
}

// closest returns the nearest *live, reachable* replica to client, or nil
// when none is usable.
func (g *Group) closest(client simnet.NodeID) *Replica {
	var best *Replica
	for _, r := range g.replicas {
		if r.down || !g.net.Reachable(client, r.Node) {
			continue
		}
		if best == nil || g.net.RTT(client, r.Node) < g.net.RTT(client, best.Node) {
			best = r
		}
	}
	return best
}

// lock returns the primary-side mutex for an object.
func (g *Group) lock(id object.ID) *sim.Resource {
	l, ok := g.locks[id]
	if !ok {
		l = g.env.NewResource(fmt.Sprintf("obj-%d", id), 1)
		g.locks[id] = l
	}
	return l
}

func (g *Group) nextStamp(writer int) Stamp {
	g.lamport++
	return Stamp{Counter: g.lamport, Writer: writer}
}

// Create allocates a new object of the given kind on every replica,
// synchronously (creation is always linearizable), and returns its ID.
// client is the node the request originates from.
func (g *Group) Create(p *sim.Proc, client simnet.NodeID, kind object.Kind) (object.ID, error) {
	if len(g.replicas) == 0 {
		return object.NilID, ErrNoReplicas
	}
	// IDs come from the authoritative replica-0 store so objects created
	// directly in that store (namespace directories, copy-ups) share one
	// ID space with replicated objects.
	id := g.replicas[0].St.AllocID()
	prim := g.primary(id)
	if prim.down || !g.net.Reachable(client, prim.Node) || g.liveFrom(prim.Node) < len(g.replicas)/2+1 {
		p.Sleep(DownTimeout)
		return object.NilID, ErrUnavailable
	}
	l := g.lock(id)
	l.Acquire(p, 1)
	defer l.Release(1)
	// Client -> primary.
	g.net.Send(p, client, prim.Node, 64)
	stamp := g.nextStamp(prim.Index)
	vc := NewVClock(len(g.replicas))
	vc.Tick(prim.Index)
	// Materialise on every replica; wait for a majority (incl. primary).
	acks := g.replicateState(p, prim, func(r *Replica) {
		o := object.New(id, kind)
		if err := r.St.Insert(o); err == nil {
			r.meta[id] = &objMeta{stamp: stamp, vc: vc.Clone()}
		}
	})
	g.awaitMajority(p, acks)
	// Primary -> client.
	g.net.Send(p, prim.Node, client, 64)
	return id, nil
}

// replicateState applies fn at the primary immediately and asynchronously
// at every other replica, returning an ack queue. fn must be deterministic.
func (g *Group) replicateState(p *sim.Proc, prim *Replica, fn func(*Replica)) *sim.Queue[int] {
	acks := sim.NewQueue[int](g.env)
	fn(prim)
	p.Sleep(prim.St.Media().WriteLatency)
	acks.Put(prim.Index)
	for _, r := range g.replicas {
		if r == prim || r.down || !g.net.Reachable(prim.Node, r.Node) {
			continue
		}
		r := r
		g.env.Go("replicate", func(rp *sim.Proc) {
			g.net.Send(rp, prim.Node, r.Node, 256)
			fn(r)
			rp.Sleep(r.St.Media().WriteLatency)
			g.net.Send(rp, r.Node, prim.Node, 64)
			acks.Put(r.Index)
		})
	}
	return acks
}

// awaitMajority blocks until ceil((N+1)/2) acks have arrived.
func (g *Group) awaitMajority(p *sim.Proc, acks *sim.Queue[int]) {
	need := len(g.replicas)/2 + 1
	for i := 0; i < need; i++ {
		if _, ok := acks.Get(p); !ok {
			return
		}
	}
}

// Apply performs a mutation on an object at the given level. The mutate
// closure must be deterministic: it runs once per replica that applies the
// update. size is the payload size involved, used for transfer costs.
func (g *Group) Apply(p *sim.Proc, client simnet.NodeID, id object.ID, lvl Level, size int, mutate func(*object.Object) error) error {
	switch lvl {
	case Linearizable:
		return g.applyLinearizable(p, client, id, size, mutate)
	case Eventual:
		return g.applyEventual(p, client, id, size, mutate)
	default:
		return fault.Fatalf("consistency: unknown level %v", lvl)
	}
}

func (g *Group) applyLinearizable(p *sim.Proc, client simnet.NodeID, id object.ID, size int, mutate func(*object.Object) error) error {
	prim := g.primary(id)
	if prim.down || !g.net.Reachable(client, prim.Node) || g.liveFrom(prim.Node) < len(g.replicas)/2+1 {
		// The primary or a quorum is unreachable: the strong level
		// sacrifices availability (§3.3's CAP trade, made concrete).
		p.Sleep(DownTimeout)
		return fmt.Errorf("%w: %v", ErrUnavailable, id)
	}
	l := g.lock(id)
	g.net.Send(p, client, prim.Node, 64+size)
	l.Acquire(p, 1)
	defer l.Release(1)
	o, err := prim.St.Get(id)
	if err != nil {
		g.net.Send(p, prim.Node, client, 64)
		return fmt.Errorf("%w: %v", ErrNotFound, id)
	}
	before := o.Size()
	if err := mutate(o); err != nil {
		g.net.Send(p, prim.Node, client, 64)
		return err
	}
	if err := prim.St.UpdateAccounting(o.Size() - before); err != nil {
		return err
	}
	stamp := g.nextStamp(prim.Index)
	m := prim.meta[id]
	m.stamp = stamp
	m.vc.Tick(prim.Index)
	vc := m.vc.Clone()
	// Synchronously copy the new state to a majority.
	data, ver, mut := o.Read(), o.Version(), o.Mutability()
	acks := sim.NewQueue[int](g.env)
	p.Sleep(prim.St.Media().WriteCost(int64(size)))
	acks.Put(prim.Index)
	for _, r := range g.replicas {
		if r == prim || r.down || !g.net.Reachable(prim.Node, r.Node) {
			continue
		}
		r := r
		g.env.Go("replicate", func(rp *sim.Proc) {
			g.net.Send(rp, prim.Node, r.Node, 128+len(data))
			g.applyState(r, id, o.Kind(), data, ver, mut, stamp, vc)
			rp.Sleep(r.St.Media().WriteCost(int64(len(data))))
			g.net.Send(rp, r.Node, prim.Node, 64)
			acks.Put(r.Index)
		})
	}
	g.awaitMajority(p, acks)
	g.net.Send(p, prim.Node, client, 64)
	return nil
}

// applyState installs a full object state at a replica if it is newer.
func (g *Group) applyState(r *Replica, id object.ID, kind object.Kind, data []byte, ver uint64, mut object.Mutability, stamp Stamp, vc VClock) {
	o, err := r.St.Get(id)
	if err != nil {
		o = object.New(id, kind)
		if err := r.St.Insert(o); err != nil {
			return
		}
		r.meta[id] = &objMeta{vc: NewVClock(len(g.replicas))}
	}
	m := r.meta[id]
	if stamp.Less(m.stamp) {
		// Already have something newer; still merge clocks.
		m.vc.Merge(vc)
		return
	}
	delta := int64(len(data)) - o.Size()
	o.ApplyState(data, ver, mut)
	_ = r.St.UpdateAccounting(delta)
	m.stamp = stamp
	m.vc.Merge(vc)
}

func (g *Group) applyEventual(p *sim.Proc, client simnet.NodeID, id object.ID, size int, mutate func(*object.Object) error) error {
	r := g.closest(client)
	if r == nil {
		p.Sleep(DownTimeout)
		return ErrUnavailable
	}
	g.net.Send(p, client, r.Node, 64+size)
	o, err := r.St.Get(id)
	if err != nil {
		g.net.Send(p, r.Node, client, 64)
		return fmt.Errorf("%w: %v on replica %d", ErrNotFound, id, r.Index)
	}
	before := o.Size()
	if err := mutate(o); err != nil {
		g.net.Send(p, r.Node, client, 64)
		return err
	}
	if err := r.St.UpdateAccounting(o.Size() - before); err != nil {
		return err
	}
	m := r.meta[id]
	m.stamp = g.nextStamp(r.Index)
	m.vc.Tick(r.Index)
	p.Sleep(r.St.Media().WriteCost(int64(size)))
	g.net.Send(p, r.Node, client, 64)
	return nil
}

// Read returns an object's payload at the given level.
func (g *Group) Read(p *sim.Proc, client simnet.NodeID, id object.ID, lvl Level) ([]byte, error) {
	var data []byte
	err := g.View(p, client, id, lvl, func(o *object.Object) error {
		data = o.Read()
		return nil
	})
	return data, err
}

// View runs a read-only closure against an object's state at the given
// level, charging the appropriate protocol and media costs.
func (g *Group) View(p *sim.Proc, client simnet.NodeID, id object.ID, lvl Level, view func(*object.Object) error) error {
	var r *Replica
	switch lvl {
	case Linearizable:
		r = g.primary(id)
		if r.down || !g.net.Reachable(client, r.Node) {
			p.Sleep(DownTimeout)
			return fmt.Errorf("%w: primary for %v is down", ErrUnavailable, id)
		}
	default:
		r = g.closest(client)
		if r == nil {
			p.Sleep(DownTimeout)
			return ErrUnavailable
		}
	}
	g.net.Send(p, client, r.Node, 64)
	if lvl == Linearizable {
		l := g.lock(id)
		l.Acquire(p, 1)
		defer l.Release(1)
	}
	o, err := r.St.Get(id)
	if err != nil {
		g.net.Send(p, r.Node, client, 64)
		return fmt.Errorf("%w: %v", ErrNotFound, id)
	}
	// Track staleness against the globally newest stamp.
	newest := r.meta[id].stamp
	for _, other := range g.replicas {
		if m, ok := other.meta[id]; ok && newest.Less(m.stamp) {
			newest = m.stamp
		}
	}
	if r.meta[id].stamp.Less(newest) {
		if lvl == Linearizable {
			g.LinStaleReads++ // protocol violation; chaos invariant trips
		} else {
			g.StaleReads++
		}
	}
	p.Sleep(r.St.Media().ReadCost(o.Size()))
	err = view(o)
	g.net.Send(p, r.Node, client, 64+int(o.Size()))
	return err
}

// SetMerger installs a payload merger consulted when anti-entropy meets
// concurrent updates: ok=true replaces last-writer-wins with the merged
// payload installed at both replicas. The merger must be deterministic,
// commutative, and idempotent (lattice joins are).
func (g *Group) SetMerger(m func(a, b []byte) ([]byte, bool)) { g.merger = m }

// NewestStamp returns the newest stamp any replica holds for id — the
// reference point for staleness accounting (cache-entry audits compare
// their fill stamp against it).
func (g *Group) NewestStamp(id object.ID) (Stamp, bool) {
	var newest Stamp
	found := false
	for _, r := range g.replicas {
		if m, ok := r.meta[id]; ok {
			if !found || newest.Less(m.stamp) {
				newest = m.stamp
			}
			found = true
		}
	}
	return newest, found
}

// QuiescentApply mutates id directly at replica 0, outside any simulation
// process — the proc-free flush the chaos harness needs after the event
// queue has drained (cache replicas with unflushed lattice deltas must
// reach the store before convergence is audited). SyncAll propagates the
// result.
func (g *Group) QuiescentApply(id object.ID, fn func(*object.Object) error) error {
	src := g.replicas[0]
	o, err := src.St.Get(id)
	if err != nil {
		return fmt.Errorf("%w: %v", ErrNotFound, id)
	}
	before := o.Size()
	if err := fn(o); err != nil {
		return err
	}
	_ = src.St.UpdateAccounting(o.Size() - before)
	m, ok := src.meta[id]
	if !ok {
		m = &objMeta{vc: NewVClock(len(g.replicas))}
		src.meta[id] = m
	}
	m.stamp = g.nextStamp(src.Index)
	m.vc.Tick(src.Index)
	return nil
}

// PrimaryStamp returns the stamp the primary replica holds for id — the
// stamp of the data a linearizable read just returned (cache fills record
// it so later audits can compare entries against NewestStamp).
func (g *Group) PrimaryStamp(id object.ID) (Stamp, bool) {
	m, ok := g.primary(id).meta[id]
	if !ok {
		return Stamp{}, false
	}
	return m.stamp, true
}

// StampAt returns the version stamp a replica holds for id (tests/metrics).
func (g *Group) StampAt(replica int, id object.ID) (Stamp, bool) {
	m, ok := g.replicas[replica].meta[id]
	if !ok {
		return Stamp{}, false
	}
	return m.stamp, true
}

// Mirror synchronously copies the current replica-0 state of the given
// objects to every other replica, creating them where missing. The PCSI
// core uses this to keep metadata (directories, code objects) replicated
// after mutating them on the authoritative replica.
func (g *Group) Mirror(p *sim.Proc, ids ...object.ID) error {
	src := g.replicas[0]
	for _, id := range ids {
		o, err := src.St.Get(id)
		if err != nil {
			return fmt.Errorf("%w: %v", ErrNotFound, id)
		}
		m, ok := src.meta[id]
		if !ok {
			m = &objMeta{vc: NewVClock(len(g.replicas))}
			src.meta[id] = m
		}
		m.stamp = g.nextStamp(src.Index)
		m.vc.Tick(src.Index)
		for _, r := range g.replicas[1:] {
			g.net.Send(p, src.Node, r.Node, 128+int(o.Size()))
			g.mirrorObject(r, o, m)
		}
	}
	return nil
}

// mirrorObject installs a structural copy of o (including directory
// entries and labels) at replica r.
func (g *Group) mirrorObject(r *Replica, o *object.Object, m *objMeta) {
	if r.St.Contains(o.ID()) {
		_ = r.St.Delete(o.ID())
	}
	clone := o.Clone(o.ID())
	_ = r.St.Insert(clone)
	rm, ok := r.meta[o.ID()]
	if !ok {
		rm = &objMeta{vc: NewVClock(len(g.replicas))}
		r.meta[o.ID()] = rm
	}
	rm.stamp = m.stamp
	rm.vc.Merge(m.vc)
}

// Delete removes an object from every replica (GC sweep propagation).
func (g *Group) Delete(ids ...object.ID) {
	for _, id := range ids {
		for _, r := range g.replicas {
			_ = r.St.Delete(id)
			delete(r.meta, id)
		}
		delete(g.locks, id)
	}
}

// Primary0Store returns replica 0's store — the authoritative metadata
// copy the PCSI core resolves namespaces against.
func (g *Group) Primary0Store() *store.Store { return g.replicas[0].St }

// Primary0Node returns replica 0's node.
func (g *Group) Primary0Node() simnet.NodeID { return g.replicas[0].Node }

// StartAntiEntropy launches the background gossip process: every interval,
// each replica exchanges state with a random peer, merging per-object by
// vector clock (LWW on conflict). Runs until the simulation ends.
func (g *Group) StartAntiEntropy(interval time.Duration) {
	if len(g.replicas) < 2 {
		return
	}
	g.env.Go("anti-entropy", func(p *sim.Proc) {
		for {
			p.Sleep(interval)
			a := g.replicas[g.env.Rand().Intn(len(g.replicas))]
			b := g.replicas[g.env.Rand().Intn(len(g.replicas))]
			if a == b || a.down || b.down || !g.net.Reachable(a.Node, b.Node) {
				continue
			}
			g.GossipRounds++
			// One round trip carries the digests plus deltas.
			g.net.Send(p, a.Node, b.Node, 512)
			g.syncPair(a, b)
			g.net.Send(p, b.Node, a.Node, 512)
		}
	})
}

// SyncAll performs full pairwise anti-entropy until quiescent — used by
// tests and by graceful shutdown to force convergence.
func (g *Group) SyncAll() {
	for i := 0; i < len(g.replicas); i++ {
		for j := 0; j < len(g.replicas); j++ {
			if i != j {
				g.syncPair(g.replicas[i], g.replicas[j])
			}
		}
	}
}

// syncPair merges object states bidirectionally between two replicas.
// Down or partitioned replicas cannot participate.
func (g *Group) syncPair(a, b *Replica) {
	if a.down || b.down || !g.net.Reachable(a.Node, b.Node) {
		return
	}
	g.pullInto(a, b)
	g.pullInto(b, a)
}

// Divergent returns (sorted) the IDs of objects whose payload, version, or
// mutability differ across live replicas — the eventual-convergence check
// run by the chaos harness after heal + SyncAll. Missing objects count as
// divergence.
func (g *Group) Divergent() []object.ID {
	var out []object.ID
	if len(g.replicas) < 2 {
		return nil
	}
	seen := make(map[object.ID]bool)
	for _, r := range g.replicas {
		for _, id := range r.St.IDs() {
			seen[id] = true
		}
	}
	ids := make([]object.ID, 0, len(seen))
	for id := range seen {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	for _, id := range ids {
		var ref *object.Object
		diverged := false
		for _, r := range g.replicas {
			if r.down {
				continue
			}
			o, err := r.St.Get(id)
			if err != nil {
				diverged = true
				break
			}
			if ref == nil {
				ref = o
				continue
			}
			if o.Version() != ref.Version() || o.Mutability() != ref.Mutability() ||
				!bytes.Equal(o.Read(), ref.Read()) {
				diverged = true
				break
			}
		}
		if diverged {
			out = append(out, id)
		}
	}
	return out
}

// pullInto copies every object state from src that is newer than dst's.
func (g *Group) pullInto(dst, src *Replica) {
	for _, id := range src.St.IDs() {
		so, err := src.St.Get(id)
		if err != nil {
			continue
		}
		sm := src.meta[id]
		dm, ok := dst.meta[id]
		if ok {
			switch dm.vc.Compare(sm.vc) {
			case Concurrent:
				g.Conflicts++
				if g.mergeConcurrent(dst, src, id, so, dm, sm) {
					continue
				}
			case After, Equal:
				// dst is as new or newer; nothing to pull (but merge clocks).
				dm.vc.Merge(sm.vc)
				continue
			}
			if sm.stamp.Less(dm.stamp) {
				dm.vc.Merge(sm.vc)
				continue
			}
		}
		g.applyState(dst, id, so.Kind(), so.Read(), so.Version(), so.Mutability(), sm.stamp, sm.vc)
	}
}

// mergeConcurrent resolves a true conflict through the installed merger:
// the least upper bound of both payloads is installed at both replicas
// under the greater stamp and the merged clock, so the exchange converges
// without either side's update being lost. Returns false (caller falls
// back to LWW) when no merger is set or the payloads are not mergeable.
func (g *Group) mergeConcurrent(dst, src *Replica, id object.ID, so *object.Object, dm, sm *objMeta) bool {
	if g.merger == nil {
		return false
	}
	do, err := dst.St.Get(id)
	if err != nil {
		return false
	}
	merged, ok := g.merger(do.Read(), so.Read())
	if !ok {
		return false
	}
	stamp := dm.stamp
	if stamp.Less(sm.stamp) {
		stamp = sm.stamp
	}
	vc := dm.vc.Clone()
	vc.Merge(sm.vc)
	ver := do.Version()
	if so.Version() > ver {
		ver = so.Version()
	}
	g.applyState(dst, id, so.Kind(), merged, ver+1, do.Mutability(), stamp, vc)
	g.applyState(src, id, so.Kind(), merged, ver+1, do.Mutability(), stamp, vc)
	g.Merges++
	return true
}
