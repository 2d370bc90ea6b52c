package consistency

import (
	"bytes"
	"fmt"
	"sort"
	"time"

	"repro/internal/fault"
	"repro/internal/media"
	"repro/internal/object"
	"repro/internal/sim"
	"repro/internal/simnet"
	"repro/internal/store"
	"repro/internal/trace"
)

// Errors returned by replicated operations.
var (
	ErrNoReplicas  = fault.Fatal("consistency: group has no replicas")
	ErrNotFound    = fault.Fatal("consistency: object not found")
	ErrUnavailable = fault.Transient("consistency: operation unavailable (insufficient live replicas)")
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
	StaleReads   int64 // eventual reads that observed a non-latest stamp
	// LinStaleReads counts linearizable reads that observed a non-latest
	// stamp. The protocol (primary serialisation + majority ack) makes this
	// impossible, so the chaos harness asserts it stays zero.
	LinStaleReads int64

	wakes int64 // times a primary waiting on a round's acks woke
}

// NewGroup builds a replicated group with one replica on each given node,
// all using the same storage medium.
func NewGroup(env *sim.Env, net *simnet.Network, nodes []simnet.NodeID, media media.Profile) *Group {
	g := &Group{env: env, net: net, locks: make(map[object.ID]*sim.Resource)}
	for i, n := range nodes {
		g.replicas = append(g.replicas, &Replica{
			Index: i,
			Node:  n,
			St:    store.New(media),
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
	var bestRTT time.Duration
	for _, r := range g.replicas {
		if r.down || !g.net.Reachable(client, r.Node) {
			continue
		}
		if rtt := g.net.RTT(client, r.Node); best == nil || rtt < bestRTT {
			best, bestRTT = r, rtt
		}
	}
	return best
}

// lock returns the primary-side mutex for an object.
func (g *Group) lock(id object.ID) *sim.Resource {
	l, ok := g.locks[id]
	if !ok {
		l = g.env.NewResource(1)
		g.locks[id] = l
	}
	return l
}

func (g *Group) nextStamp(writer int) Stamp {
	g.lamport++
	return Stamp{Counter: g.lamport, Writer: writer}
}

// A round replicates one write from its primary to every other replica
// that is up and reachable from it, and holds the primary's process until
// a majority, the primary included, has it. Each other replica is a leg: a
// chain of engine callbacks — the write's message out, its install and
// media write, the ack's message back, the ack — each scheduled with
// Env.After exactly where a process running the leg would sleep. So a
// round dispatches the same events at the same virtual times, with the
// same sequence numbers and jitter draws, as a process per leg did, and
// spawns none (DESIGN §5).
type round struct {
	g    *Group
	prim *Replica
	msg  int // bytes of the primary's message to each replica

	// What each replica installs and writes to its medium: a new, empty
	// object (create) or a state.
	create bool
	id     object.ID
	kind   object.Kind
	data   []byte
	ver    uint64
	mut    object.Mutability
	stamp  Stamp
	vc     VClock

	acks  int
	acked sim.Event // completed by each ack; the waiting primary re-arms it
	legs  []leg
	buf   [4]leg // the legs of a group of up to five replicas
}

// A leg is one replica's part of a round. next is its run method, bound
// once, so scheduling a step allocates nothing.
type leg struct {
	rd   *round
	r    *Replica
	step int
	sp   *trace.Span // the message in flight, when traced
	next func()
}

// newRound returns a round from prim whose message to each replica is msg
// bytes. Its legs never move: each one's next is bound to its address.
func (g *Group) newRound(prim *Replica, msg int) *round {
	rd := &round{g: g, prim: prim, msg: msg}
	rd.legs = rd.buf[:0]
	if n := len(g.replicas) - 1; n > len(rd.buf) {
		rd.legs = make([]leg, 0, n)
	}
	return rd
}

// install puts the round's write on replica r.
func (rd *round) install(r *Replica) {
	if !rd.create {
		rd.g.applyState(r, rd.id, rd.kind, rd.data, rd.ver, rd.mut, rd.stamp, rd.vc)
		return
	}
	if err := r.St.Insert(object.New(rd.id, rd.kind)); err == nil {
		r.meta[rd.id] = &objMeta{stamp: rd.stamp, vc: rd.vc.Clone()}
	}
}

// replicate runs rd from the primary's process p: the primary's own media
// write takes write, then a leg starts for each other replica that is up
// and reachable from the primary, and p waits for a majority of acks. It
// wakes once for each ack that arrives while it waits, as a process
// blocked on an ack queue did.
func (g *Group) replicate(p *sim.Proc, rd *round, write time.Duration) {
	p.Sleep(write)
	rd.acks = 1
	for _, r := range g.replicas {
		if r == rd.prim || r.down || !g.net.Reachable(rd.prim.Node, r.Node) {
			continue
		}
		rd.legs = append(rd.legs, leg{rd: rd, r: r})
		l := &rd.legs[len(rd.legs)-1]
		l.next = l.run
		g.env.After(0, l.next)
	}
	for need := len(g.replicas)/2 + 1; rd.acks < need; rd.acked.Reset() {
		p.Wait(&rd.acked) //nolint:errcheck // acks carry no error
		g.wakes++
	}
}

// run takes the leg's next step. Each step is an engine callback at the
// virtual time a process running the leg would have woken.
func (l *leg) run() {
	rd := l.rd
	g := rd.g
	var d time.Duration
	l.step++
	switch l.step {
	case 1: // the write leaves the primary
		d, l.sp = g.net.Post("replicate", rd.prim.Node, l.r.Node, rd.msg)
		g.env.After(d, l.next)
	case 2: // it arrives: install it and write it to the medium
		l.sp.CloseAt(g.env.Now())
		rd.install(l.r)
		g.env.After(l.r.St.Media().WriteCost(int64(len(rd.data))), l.next)
	case 3: // the ack leaves
		d, l.sp = g.net.Post("replicate", l.r.Node, rd.prim.Node, 64)
		g.env.After(d, l.next)
	default: // it arrives
		l.sp.CloseAt(g.env.Now())
		rd.acks++
		rd.acked.Complete(nil)
	}
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
	rd := g.newRound(prim, 256)
	rd.create, rd.id, rd.kind = true, id, kind
	rd.stamp = g.nextStamp(prim.Index)
	rd.vc = NewVClock(len(g.replicas))
	rd.vc.Tick(prim.Index)
	// Materialise on every replica; wait for a majority (incl. primary).
	rd.install(prim)
	g.replicate(p, rd, prim.St.Media().WriteLatency)
	// Primary -> client.
	g.net.Send(p, prim.Node, client, 64)
	return id, nil
}

// Apply performs a mutation on an object at the given level. The mutate
// closure must be deterministic: it runs once per replica that applies the
// update. size is the payload size involved, used for transfer costs.
//
// Apply cannot fail once mutate has succeeded: every refusal (unavailable,
// not found) comes before it, and nothing after it reports an error. So a
// caller retrying Apply never runs a mutate again after one succeeded, and
// a retried Append is applied once.
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
	if err := mutate(o); err != nil {
		g.net.Send(p, prim.Node, client, 64)
		return err
	}
	prim.St.CountWrite()
	stamp := g.nextStamp(prim.Index)
	m := prim.meta[id]
	m.stamp = stamp
	m.vc.Tick(prim.Index)
	// Synchronously send the new state to a majority. The replicas install
	// the primary's bytes uncopied; whichever holder writes next copies.
	data := o.Snapshot()
	rd := g.newRound(prim, 128+len(data))
	rd.id, rd.kind, rd.data, rd.ver, rd.mut = id, o.Kind(), data, o.Version(), o.Mutability()
	rd.stamp, rd.vc = stamp, m.vc.Clone()
	g.replicate(p, rd, prim.St.Media().WriteCost(int64(size)))
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
	o.ApplyState(data, ver, mut)
	r.St.CountWrite()
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
	if err := mutate(o); err != nil {
		g.net.Send(p, r.Node, client, 64)
		return err
	}
	r.St.CountWrite()
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
	if err := fn(o); err != nil {
		return err
	}
	src.St.CountWrite()
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
		g.applyState(dst, id, so.Kind(), so.Snapshot(), so.Version(), so.Mutability(), sm.stamp, sm.vc)
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
	return true
}
