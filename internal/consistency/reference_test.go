package consistency

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"testing"
	"time"

	"repro/internal/media"
	"repro/internal/object"
	"repro/internal/sim"
	"repro/internal/simnet"
	"repro/internal/trace"
)

// The reference fan-out: a replicated write as a process per leg and an
// ack queue the primary drains, which is what a round's callback legs
// replace. It stays here so TestRoundsMatchProcessFanOut can hold the
// rounds to it event for event.

func (g *Group) refCreate(p *sim.Proc, client simnet.NodeID, kind object.Kind) (object.ID, error) {
	if len(g.replicas) == 0 {
		return object.NilID, ErrNoReplicas
	}
	id := g.replicas[0].St.AllocID()
	prim := g.primary(id)
	if prim.down || !g.net.Reachable(client, prim.Node) || g.liveFrom(prim.Node) < len(g.replicas)/2+1 {
		p.Sleep(DownTimeout)
		return object.NilID, ErrUnavailable
	}
	l := g.lock(id)
	l.Acquire(p, 1)
	defer l.Release(1)
	g.net.Send(p, client, prim.Node, 64)
	stamp := g.nextStamp(prim.Index)
	vc := NewVClock(len(g.replicas))
	vc.Tick(prim.Index)
	fn := func(r *Replica) {
		o := object.New(id, kind)
		if err := r.St.Insert(o); err == nil {
			r.meta[id] = &objMeta{stamp: stamp, vc: vc.Clone()}
		}
	}
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
	g.refAwaitMajority(p, acks)
	g.net.Send(p, prim.Node, client, 64)
	return id, nil
}

func (g *Group) refApplyLinearizable(p *sim.Proc, client simnet.NodeID, id object.ID, size int, mutate func(*object.Object) error) error {
	prim := g.primary(id)
	if prim.down || !g.net.Reachable(client, prim.Node) || g.liveFrom(prim.Node) < len(g.replicas)/2+1 {
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
	vc := m.vc.Clone()
	data, ver, mut := o.Snapshot(), o.Version(), o.Mutability()
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
	g.refAwaitMajority(p, acks)
	g.net.Send(p, prim.Node, client, 64)
	return nil
}

// refAwaitMajority drains a majority of acks, counting in g.wakes each Get
// that parked: a Get that parks dispatches at least its own wake.
func (g *Group) refAwaitMajority(p *sim.Proc, acks *sim.Queue[int]) {
	for i := 0; i < len(g.replicas)/2+1; i++ {
		before := g.env.Dispatched()
		if _, ok := acks.Get(p); !ok {
			return
		}
		if g.env.Dispatched() != before {
			g.wakes++
		}
	}
}

// writePath is one implementation of the replicated writes under test.
type writePath struct {
	create func(g *Group, p *sim.Proc, client simnet.NodeID, kind object.Kind) (object.ID, error)
	apply  func(g *Group, p *sim.Proc, client simnet.NodeID, id object.ID, size int, mutate func(*object.Object) error) error
}

var (
	roundPath = writePath{(*Group).Create, (*Group).applyLinearizable}
	refPath   = writePath{(*Group).refCreate, (*Group).refApplyLinearizable}
)

// replicationScript runs a seeded script of creates, writes and reads at
// both levels from three clients against an n-replica group, while a
// chaos process takes replicas down, partitions the racks and a link hook
// drops, duplicates and delays messages. It returns a transcript of every
// outcome and the final simulation and replica state, and, when traced,
// the exported trace, and what the script exercised.
func replicationScript(seed int64, n int, traced bool, w writePath) (string, []byte, exercised) {
	env := sim.NewEnv(seed)
	var coll *trace.Collector
	if traced {
		coll = trace.NewCollector()
		coll.Attach(env)
	}
	net := simnet.New(env, simnet.DC2021)
	var nodes []simnet.NodeID
	for i := 0; i < n; i++ {
		nodes = append(nodes, net.AddNode(i%3))
	}
	clients := []simnet.NodeID{net.AddNode(0), net.AddNode(1), net.AddNode(2)}
	g := NewGroup(env, net, nodes, media.NVMe)

	faults := rand.New(rand.NewSource(seed * 7919))
	net.SetLinkFaultFunc(func(a, b simnet.NodeID, size int) simnet.LinkFault {
		var lf simnet.LinkFault
		lf.Drop = faults.Float64() < 0.05
		lf.Duplicate = faults.Float64() < 0.05
		if faults.Float64() < 0.05 {
			lf.ExtraDelay = time.Duration(faults.Intn(400)) * time.Microsecond
		}
		return lf
	})
	cut := -1 // the rack cut off from the others, or -1
	rack := func(id simnet.NodeID) int { return int(id) % 3 }
	net.SetReachableFunc(func(a, b simnet.NodeID) bool {
		return cut < 0 || (rack(a) == cut) == (rack(b) == cut)
	})

	var out strings.Builder
	var ex exercised
	var ids []object.ID
	chaos := rand.New(rand.NewSource(seed * 104729))
	running := len(clients)
	env.Go("chaos", func(p *sim.Proc) {
		// Bounded: a client whose round lost its majority waits forever.
		for i := 0; i < 400 && running > 0; i++ {
			p.Sleep(time.Duration(chaos.Intn(3000)) * time.Microsecond)
			switch chaos.Intn(3) {
			case 0:
				r := chaos.Intn(n)
				g.SetDown(r, !g.replicas[r].down)
			case 1:
				cut = chaos.Intn(4) - 1
			default:
				for r := range g.replicas {
					g.SetDown(r, false)
				}
				cut = -1
			}
		}
		for r := range g.replicas {
			g.SetDown(r, false)
		}
		cut = -1
	})
	for c, client := range clients {
		c, client := c, client
		rng := rand.New(rand.NewSource(seed*31 + int64(c)))
		env.Go(fmt.Sprintf("client%d", c), func(p *sim.Proc) {
			defer func() { running-- }()
			for i := 0; i < 40; i++ {
				op := rng.Intn(6)
				if len(ids) == 0 {
					op = 0
				}
				var id object.ID
				if len(ids) > 0 {
					id = ids[rng.Intn(len(ids))]
				}
				lvl := Level(rng.Intn(2))
				var err error
				read := ""
				switch op {
				case 0:
					id, err = w.create(g, p, client, object.Regular)
					if err == nil {
						ids = append(ids, id)
					}
				case 1, 2:
					b := bytes.Repeat([]byte{byte('a' + rng.Intn(26))}, 1+rng.Intn(3000))
					if lvl == Linearizable {
						err = w.apply(g, p, client, id, len(b), setData(b))
					} else {
						err = g.Apply(p, client, id, lvl, len(b), setData(b))
					}
				case 3:
					b := []byte{byte('0' + c)}
					mutate := func(o *object.Object) error { return o.Append(b) }
					if lvl == Linearizable {
						err = w.apply(g, p, client, id, 1, mutate)
					} else {
						err = g.Apply(p, client, id, lvl, 1, mutate)
					}
				default:
					var data []byte
					data, err = g.Read(p, client, id, lvl)
					read = fmt.Sprintf(" %d bytes", len(data))
				}
				if errors.Is(err, ErrUnavailable) {
					ex.unavailable++
				}
				fmt.Fprintf(&out, "%v client%d op%d %v %v:%s %v\n", p.Now(), c, op, id, lvl, read, err)
				p.Sleep(time.Duration(rng.Intn(500)) * time.Microsecond)
			}
		})
	}
	env.Run()

	fmt.Fprintf(&out, "now=%v dispatched=%d wakes=%d\n", env.Now(), env.Dispatched(), g.wakes)
	fmt.Fprintf(&out, "msgs=%d bytes=%d drops=%d dups=%d spikes=%d\n", net.Msgs, net.Bytes, net.Drops, net.Dups, net.Spikes)
	for _, r := range g.replicas {
		for _, id := range r.St.IDs() {
			o, _ := r.St.Get(id)
			m := r.meta[id]
			fmt.Fprintf(&out, "replica%d %v stamp=%v vc=%v ver=%d data=%q\n", r.Index, id, m.stamp, m.vc, o.Version(), o.Read())
		}
	}
	var tr bytes.Buffer
	if traced {
		if err := trace.Export(&tr, coll.Data()); err != nil {
			panic(err)
		}
	}
	ex.wakes, ex.drops, ex.dups, ex.spikes = g.wakes, net.Drops, net.Dups, net.Spikes
	return out.String(), tr.Bytes(), ex
}

// exercised counts what a script run met: primary wakes, injected link
// faults and refused operations.
type exercised struct{ wakes, drops, dups, spikes, unavailable int64 }

// Rounds are the process-per-leg fan-out they replaced, event for event:
// under replica failures, partitions and link faults, at every group size
// a majority takes a different shape at, both dispatch the same events to
// the same virtual end, count the same traffic and faults, leave every
// replica the same stamp, clock and payload, and wake the waiting primary
// as often — and a traced run exports the same spans.
func TestRoundsMatchProcessFanOut(t *testing.T) {
	for _, n := range []int{1, 2, 3, 5} {
		var total exercised
		for seed := int64(1); seed <= 4; seed++ {
			traced := seed == 1
			got, gotTrace, ex := replicationScript(seed, n, traced, roundPath)
			want, wantTrace, _ := replicationScript(seed, n, traced, refPath)
			total.wakes += ex.wakes
			total.drops += ex.drops
			total.dups += ex.dups
			total.spikes += ex.spikes
			total.unavailable += ex.unavailable
			if got != want {
				t.Errorf("n=%d seed=%d: rounds and the reference fan-out differ\n%s", n, seed, firstDiff(got, want))
				continue
			}
			if !bytes.Equal(gotTrace, wantTrace) {
				t.Errorf("n=%d seed=%d: traced rounds export a different trace than the reference fan-out", n, seed)
			}
		}
		if (n > 1 && total.wakes == 0) || total.drops == 0 || total.dups == 0 || total.spikes == 0 || total.unavailable == 0 {
			t.Errorf("n=%d: the scripts exercised too little: %+v", n, total)
		}
	}
}

// firstDiff names the first line at which two transcripts differ.
func firstDiff(got, want string) string {
	g, w := strings.Split(got, "\n"), strings.Split(want, "\n")
	for i := 0; i < len(g) && i < len(w); i++ {
		if g[i] != w[i] {
			return fmt.Sprintf("line %d:\n  rounds:    %s\n  reference: %s", i+1, g[i], w[i])
		}
	}
	return fmt.Sprintf("rounds: %d lines, reference: %d lines", len(g), len(w))
}
