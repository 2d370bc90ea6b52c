package core

import (
	"bytes"
	"errors"
	"fmt"
	"testing"
	"time"

	"repro/internal/capability"
	"repro/internal/cluster"
	"repro/internal/consistency"
	"repro/internal/faas"
	"repro/internal/fault"
	"repro/internal/media"
	"repro/internal/object"
	"repro/internal/platform"
	"repro/internal/sim"
)

func testCloud(seed int64) *Cloud { return New(testOptions(seed)) }

func testOptions(seed int64) Options {
	opts := DefaultOptions()
	opts.Seed = seed
	opts.ClusterCfg = cluster.Config{
		Racks: 2, NodesPerRack: 4,
		NodeCap:         cluster.Resources{MilliCPU: 16000, MemMB: 32768},
		GPUNodesPerRack: 1, GPUsPerGPUNode: 2,
	}
	opts.Media = media.DRAM
	return opts
}

// run drives fn inside a simulation process and runs the clock dry.
func run(t *testing.T, c *Cloud, fn func(p *sim.Proc)) {
	t.Helper()
	c.Env().Go("test", fn)
	c.Env().Run()
}

func TestCreatePutGet(t *testing.T) {
	c := testCloud(1)
	client := c.NewClient(0)
	run(t, c, func(p *sim.Proc) {
		ref, err := client.Create(p, object.Regular)
		if err != nil {
			t.Error(err)
			return
		}
		if err := client.Put(p, ref, []byte("hello pcsi")); err != nil {
			t.Error(err)
			return
		}
		got, err := client.Get(p, ref)
		if err != nil || string(got) != "hello pcsi" {
			t.Errorf("Get = %q, %v", got, err)
		}
		info, err := client.Stat(p, ref)
		if err != nil || info.Size != 10 || info.Kind != object.Regular {
			t.Errorf("Stat = %+v, %v", info, err)
		}
	})
}

func TestCapabilityGatesOperations(t *testing.T) {
	c := testCloud(2)
	client := c.NewClient(0)
	run(t, c, func(p *sim.Proc) {
		ref, err := client.Create(p, object.Regular)
		if err != nil {
			t.Error(err)
			return
		}
		ro, err := client.Attenuate(ref, capability.Read)
		if err != nil {
			t.Error(err)
			return
		}
		if err := client.Put(p, ro, []byte("x")); err == nil {
			t.Error("write through read-only reference succeeded")
		}
		if _, err := client.Get(p, ro); err != nil {
			t.Errorf("read through read-only reference failed: %v", err)
		}
		// Zero ref is rejected.
		if _, err := client.Get(p, Ref{}); !errors.Is(err, ErrInvalidRef) {
			t.Errorf("zero ref err = %v", err)
		}
	})
}

func TestMutabilityThroughAPI(t *testing.T) {
	c := testCloud(4)
	client := c.NewClient(0)
	run(t, c, func(p *sim.Proc) {
		ref, err := client.Create(p, object.Regular)
		if err != nil {
			t.Error(err)
			return
		}
		if err := client.Put(p, ref, []byte("v1")); err != nil {
			t.Error(err)
			return
		}
		if err := client.Freeze(p, ref, object.Immutable); err != nil {
			t.Error(err)
			return
		}
		if err := client.Put(p, ref, []byte("v2")); !errors.Is(err, object.ErrImmutable) {
			t.Errorf("write to frozen object err = %v", err)
		}
		st, err := client.Stat(p, ref)
		if err != nil || st.Mutability != object.Immutable {
			t.Errorf("Stat mutability = %v, %v", st.Mutability, err)
		}
	})
}

func TestConsistencyMenuPerObject(t *testing.T) {
	c := testCloud(5)
	client := c.NewClient(0)
	run(t, c, func(p *sim.Proc) {
		strong, err := client.Create(p, object.Regular, WithConsistency(consistency.Linearizable))
		if err != nil {
			t.Error(err)
			return
		}
		weak, err := client.Create(p, object.Regular, WithConsistency(consistency.Eventual))
		if err != nil {
			t.Error(err)
			return
		}
		if strong.Level() != consistency.Linearizable || weak.Level() != consistency.Eventual {
			t.Error("levels not captured on references")
		}
		// Writes at both levels succeed and strong read-own-write holds.
		if err := client.Put(p, strong, []byte("s")); err != nil {
			t.Error(err)
		}
		if err := client.Put(p, weak, []byte("w")); err != nil {
			t.Error(err)
		}
		got, err := client.Get(p, strong)
		if err != nil || string(got) != "s" {
			t.Errorf("strong read = %q, %v", got, err)
		}
	})
}

func TestNamespaceCreateOpenAcrossClients(t *testing.T) {
	c := testCloud(6)
	alice := c.NewClient(0)
	bob := c.NewClient(1)
	run(t, c, func(p *sim.Proc) {
		ns, _, err := alice.NewNamespace(p)
		if err != nil {
			t.Error(err)
			return
		}
		ref, err := ns.CreateAt(p, alice, "data/models/resnet", object.Regular)
		if err != nil {
			t.Error(err)
			return
		}
		if err := alice.Put(p, ref, []byte("weights")); err != nil {
			t.Error(err)
			return
		}
		// Bob opens by path with read rights only.
		bobRef, err := ns.Open(p, bob, "data/models/resnet", capability.Read)
		if err != nil {
			t.Error(err)
			return
		}
		got, err := bob.Get(p, bobRef)
		if err != nil || string(got) != "weights" {
			t.Errorf("bob read = %q, %v", got, err)
		}
		if err := bob.Put(p, bobRef, []byte("evil")); err == nil {
			t.Error("bob wrote through a read-only path open")
		}
	})
}

func TestUnionNamespaceLayering(t *testing.T) {
	c := testCloud(7)
	client := c.NewClient(0)
	run(t, c, func(p *sim.Proc) {
		base, _, err := client.NewNamespace(p)
		if err != nil {
			t.Error(err)
			return
		}
		cfgRef, err := base.CreateAt(p, client, "etc/conf", object.Regular)
		if err != nil {
			t.Error(err)
			return
		}
		if err := client.Put(p, cfgRef, []byte("base")); err != nil {
			t.Error(err)
			return
		}
		upper, _, err := client.Union(p, base)
		if err != nil {
			t.Error(err)
			return
		}
		if upper.ns.Layers() != 2 {
			t.Errorf("Layers = %d", upper.ns.Layers())
		}
		// Write through the union: copy-up; base unchanged.
		wRef, err := upper.Open(p, client, "etc/conf", capability.Read|capability.Write)
		if err != nil {
			t.Error(err)
			return
		}
		if err := client.Put(p, wRef, []byte("override")); err != nil {
			t.Error(err)
			return
		}
		baseRef, err := base.Open(p, client, "etc/conf", capability.Read)
		if err != nil {
			t.Error(err)
			return
		}
		got, err := client.Get(p, baseRef)
		if err != nil || string(got) != "base" {
			t.Errorf("base layer = %q, %v (copy-up leaked)", got, err)
		}
		uRef, err := upper.Open(p, client, "etc/conf", capability.Read)
		if err != nil {
			t.Error(err)
			return
		}
		got, err = client.Get(p, uRef)
		if err != nil || string(got) != "override" {
			t.Errorf("union read = %q, %v", got, err)
		}
	})
}

func TestFunctionInvokeWithDataLayer(t *testing.T) {
	c := testCloud(8)
	client := c.NewClient(0)
	run(t, c, func(p *sim.Proc) {
		fnRef, err := client.RegisterFunction(p, FnConfig{
			Name: "double", Kind: platform.Wasm,
			Handler: func(fc *FnCtx) error {
				in, err := fc.Client.Get(fc.Proc(), fc.Inputs[0])
				if err != nil {
					return err
				}
				return fc.Client.Put(fc.Proc(), fc.Outputs[0], append(in, in...))
			},
		})
		if err != nil {
			t.Error(err)
			return
		}
		in, err := client.Create(p, object.Regular)
		if err != nil {
			t.Error(err)
			return
		}
		out, err := client.Create(p, object.Regular)
		if err != nil {
			t.Error(err)
			return
		}
		if err := client.Put(p, in, []byte("ab")); err != nil {
			t.Error(err)
			return
		}
		inRO, err := client.Attenuate(in, capability.Read)
		if err != nil {
			t.Error(err)
			return
		}
		if _, err := client.Invoke(p, fnRef, InvokeArgs{Inputs: []Ref{inRO}, Outputs: []Ref{out}}); err != nil {
			t.Error(err)
			return
		}
		got, err := client.Get(p, out)
		if err != nil || !bytes.Equal(got, []byte("abab")) {
			t.Errorf("function output = %q, %v", got, err)
		}
	})
}

func TestInvokeRequiresExecRight(t *testing.T) {
	c := testCloud(9)
	client := c.NewClient(0)
	run(t, c, func(p *sim.Proc) {
		fnRef, err := client.RegisterFunction(p, FnConfig{
			Name: "noop", Kind: platform.Wasm,
			Handler: func(*FnCtx) error { return nil },
		})
		if err != nil {
			t.Error(err)
			return
		}
		ro, err := client.Attenuate(fnRef, capability.Read)
		if err != nil {
			t.Error(err)
			return
		}
		if _, err := client.Invoke(p, ro, InvokeArgs{}); err == nil {
			t.Error("invoke without Exec right succeeded")
		}
		// A data object is not a function.
		data, err := client.Create(p, object.Regular)
		if err != nil {
			t.Error(err)
			return
		}
		if _, err := client.Invoke(p, data, InvokeArgs{}); !errors.Is(err, ErrNoSuchFn) {
			t.Errorf("invoke of data object err = %v", err)
		}
	})
}

func TestRunGraphPipelines(t *testing.T) {
	c := testCloud(10)
	client := c.NewClient(0)
	run(t, c, func(p *sim.Proc) {
		mk := func(name string, d time.Duration) Ref {
			ref, err := client.RegisterFunction(p, FnConfig{
				Name: name, Kind: platform.Wasm,
				Handler: func(fc *FnCtx) error {
					fc.Proc().Sleep(d)
					return nil
				},
			})
			if err != nil {
				t.Fatal(err)
			}
			return ref
		}
		a := mk("stage-a", time.Millisecond)
		b := mk("stage-b", time.Millisecond)
		results, err := client.RunGraph(p, []GraphTask{
			{Name: "a", Fn: a},
			{Name: "b", Fn: b, After: []string{"a"}, Colocate: true},
		})
		if err != nil {
			t.Error(err)
			return
		}
		if results["b"].Start < results["a"].End {
			t.Error("graph order violated")
		}
		if results["a"].Instance.Node.ID != results["b"].Instance.Node.ID {
			t.Error("colocated tasks on different nodes under Colocate policy")
		}
	})
}

func TestGCReclaimsDroppedObjects(t *testing.T) {
	c := testCloud(11)
	client := c.NewClient(0)
	var ref Ref
	run(t, c, func(p *sim.Proc) {
		var err error
		ref, err = client.Create(p, object.Regular)
		if err != nil {
			t.Error(err)
			return
		}
		if err := client.Put(p, ref, make([]byte, 4096)); err != nil {
			t.Error(err)
		}
	})
	id := ref.ObjectID()
	if n := c.Collect(); n != 0 {
		t.Fatalf("collected %d objects with live refs", n)
	}
	client.Drop(ref)
	if n := c.Collect(); n != 1 {
		t.Fatalf("collected %d after drop, want 1", n)
	}
	// Swept from every replica.
	for i, r := range c.Group().Replicas() {
		if r.St.Contains(id) {
			t.Errorf("replica %d still holds swept object", i)
		}
	}
}

func TestGCKeepsNamespaceContents(t *testing.T) {
	c := testCloud(12)
	client := c.NewClient(0)
	var ns *NS
	var rootRef Ref
	run(t, c, func(p *sim.Proc) {
		var err error
		ns, rootRef, err = client.NewNamespace(p)
		if err != nil {
			t.Error(err)
			return
		}
		ref, err := ns.CreateAt(p, client, "keep/me", object.Regular)
		if err != nil {
			t.Error(err)
			return
		}
		// Even after dropping the direct reference, the namespace keeps the
		// object alive.
		client.Drop(ref)
	})
	if n := c.Collect(); n != 0 {
		t.Fatalf("collected %d objects reachable via namespace", n)
	}
	// Dropping both the namespace registration and the root capability
	// makes the subtree garbage.
	ns.DropRoot()
	client.Drop(rootRef)
	if n := c.Collect(); n < 3 { // root dir + "keep" dir + "me" object
		t.Errorf("collected %d after root drop, want >= 3", n)
	}
}

func TestFIFOPlumbing(t *testing.T) {
	c := testCloud(13)
	client := c.NewClient(0)
	run(t, c, func(p *sim.Proc) {
		fifo, err := client.Create(p, object.FIFO)
		if err != nil {
			t.Error(err)
			return
		}
		// Producer and consumer processes.
		c.Env().Go("producer", func(pp *sim.Proc) {
			pp.Sleep(time.Millisecond)
			for i := 0; i < 3; i++ {
				if err := client.Push(pp, fifo, []byte{byte('a' + i)}); err != nil {
					t.Error(err)
				}
			}
		})
		var got []string
		for i := 0; i < 3; i++ {
			msg, err := client.Pop(p, fifo)
			if err != nil {
				t.Error(err)
				return
			}
			got = append(got, string(msg))
		}
		want := []string{"a", "b", "c"}
		for i := range want {
			if got[i] != want[i] {
				t.Errorf("fifo order = %v", got)
			}
		}
	})
}

func TestBytesMovedAccounting(t *testing.T) {
	c := testCloud(14)
	client := c.NewClient(0)
	run(t, c, func(p *sim.Proc) {
		ref, err := client.Create(p, object.Regular)
		if err != nil {
			t.Error(err)
			return
		}
		before := c.BytesMoved
		if err := client.Put(p, ref, make([]byte, 1000)); err != nil {
			t.Error(err)
			return
		}
		if c.BytesMoved-before != 1000 {
			t.Errorf("BytesMoved delta = %d, want 1000", c.BytesMoved-before)
		}
	})
}

func TestReadAtPartial(t *testing.T) {
	c := testCloud(15)
	client := c.NewClient(0)
	run(t, c, func(p *sim.Proc) {
		ref, err := client.Create(p, object.Regular)
		if err != nil {
			t.Error(err)
			return
		}
		if err := client.Put(p, ref, []byte("0123456789")); err != nil {
			t.Error(err)
			return
		}
		got, err := client.ReadAt(p, ref, 3, 4)
		if err != nil || string(got) != "3456" {
			t.Errorf("ReadAt = %q, %v", got, err)
		}
	})
}

func TestDeviceWiring(t *testing.T) {
	c := testCloud(16)
	found := 0
	for _, n := range c.Cluster().Nodes() {
		if n.HasGPU() {
			if c.Device(n.ID) == nil {
				t.Errorf("GPU node %d has no device memory", n.ID)
			}
			found++
		} else if c.Device(n.ID) != nil {
			t.Errorf("non-GPU node %d has device memory", n.ID)
		}
	}
	if found == 0 {
		t.Fatal("no GPU nodes in test cluster")
	}
}

func TestPolicyString(t *testing.T) {
	for _, p := range []PlacementPolicy{PlaceNaive, PlacePacked, PlaceColocate, PlaceScavenge} {
		if p.String() == "unknown" {
			t.Errorf("policy %d unnamed", p)
		}
	}
}

func TestCacheStableLocalReads(t *testing.T) {
	c := testCloud(17)
	client := c.NewClient(0)
	run(t, c, func(p *sim.Proc) {
		ref, err := client.Create(p, object.Regular)
		if err != nil {
			t.Error(err)
			return
		}
		if err := client.Put(p, ref, make([]byte, 4096)); err != nil {
			t.Error(err)
			return
		}
		// Not yet frozen: reads must go remote (coherence).
		if _, err := client.Get(p, ref); err != nil {
			t.Error(err)
			return
		}
		if c.CacheHits != 0 {
			t.Error("mutable object served from cache")
		}
		if err := client.Freeze(p, ref, object.Immutable); err != nil {
			t.Error(err)
			return
		}
		before := c.BytesMoved
		start := p.Now()
		if _, err := client.Get(p, ref); err != nil {
			t.Error(err)
			return
		}
		local := p.Now().Sub(start)
		if c.CacheHits != 1 {
			t.Errorf("CacheHits = %d, want 1", c.CacheHits)
		}
		if c.BytesMoved != before {
			t.Error("cached read moved bytes over the network")
		}
		if local > 50*time.Microsecond {
			t.Errorf("cached read took %v, want local-memory time", local)
		}
	})
}

// createOffReplica0 creates a Regular object whose primary is not replica 0,
// so the object stays writable with replica 0 down.
func createOffReplica0(p *sim.Proc, cl *Client, opts ...CreateOpt) (Ref, int, error) {
	for {
		ref, err := cl.Create(p, object.Regular, opts...)
		prim := int(ref.ObjectID()) % cl.c.grp.N()
		if err != nil || prim != 0 {
			return ref, prim, err
		}
	}
}

// Freeze used to compare a copy the node had staged with replica 0's store, so
// with replica 0 behind it promoted stale bytes as the immutable content.
func TestFreezeNeverPromotesStaleStagedCopy(t *testing.T) {
	c := testCloud(41)
	a, b := c.NewClient(0), c.NewClient(1)
	run(t, c, func(p *sim.Proc) {
		ref, _, err := createOffReplica0(p, a)
		if err != nil {
			t.Error(err)
			return
		}
		if err := a.Put(p, ref, []byte("old")); err != nil {
			t.Error(err)
			return
		}
		p.Sleep(10 * time.Millisecond) // let "old" reach every replica
		c.Group().SetDown(0, true)
		if err := b.Put(p, ref, []byte("new")); err != nil {
			t.Error(err)
			return
		}
		if err := a.Freeze(p, ref, object.Immutable); err != nil {
			t.Error(err)
			return
		}
		if got, err := a.Get(p, ref); err != nil || string(got) != "new" {
			t.Errorf("Get after Freeze = %q, %v; want the frozen content %q", got, err, "new")
		}
	})
}

// The promote rule, whole: after Freeze(IMMUTABLE) returns, every node reads
// the bytes the primary froze, and the read is local — a cache hit that moves
// nothing — exactly on the freezer's node when its version mark was current.
func TestFreezePromotesOnlyACurrentMark(t *testing.T) {
	type nodes struct{ a, b, rd *Client }
	// Each script leaves the object holding "new" and returns the freezer;
	// settle runs after every step so the next one sees its effect.
	freezers := []struct {
		name    string
		script  func(p *sim.Proc, n nodes, ref Ref, settle func()) (*Client, error)
		current bool
	}{
		{"writer", func(p *sim.Proc, n nodes, ref Ref, _ func()) (*Client, error) {
			return n.a, n.a.Put(p, ref, []byte("new"))
		}, true},
		{"stale writer", func(p *sim.Proc, n nodes, ref Ref, settle func()) (*Client, error) {
			err := n.a.Put(p, ref, []byte("old"))
			settle()
			return n.a, errors.Join(err, n.b.Put(p, ref, []byte("new")))
		}, false},
		{"other node", func(p *sim.Proc, n nodes, ref Ref, _ func()) (*Client, error) {
			return n.b, n.a.Put(p, ref, []byte("new"))
		}, false},
		{"reader", func(p *sim.Proc, n nodes, ref Ref, settle func()) (*Client, error) {
			err := n.a.Put(p, ref, []byte("new"))
			settle()
			_, gerr := n.rd.Get(p, ref)
			return n.rd, errors.Join(err, gerr)
		}, true},
	}
	for _, lvl := range []consistency.Level{consistency.Linearizable, consistency.Eventual} {
		for _, fz := range freezers {
			for _, down := range []bool{false, true} {
				t.Run(fmt.Sprintf("%v/%s/replica 0 down=%v", lvl, fz.name, down), func(t *testing.T) {
					c := testCloud(43)
					n := nodes{c.NewClient(0), c.NewClient(1), c.NewClient(1)}
					run(t, c, func(p *sim.Proc) {
						// Replication is asynchronous past the majority, and an
						// eventual write reaches the primary only by anti-entropy.
						settle := func() {
							p.Sleep(10 * time.Millisecond)
							if lvl == consistency.Eventual {
								c.Group().SyncAll()
							}
						}
						ref, prim, err := createOffReplica0(p, n.a, WithConsistency(lvl))
						if err != nil {
							t.Error(err)
							return
						}
						settle()
						c.Group().SetDown(0, down)
						freezer, err := fz.script(p, n, ref, settle)
						if err != nil {
							t.Error(err)
							return
						}
						settle()
						if err := freezer.Freeze(p, ref, object.Immutable); err != nil {
							t.Error(err)
							return
						}
						settle()
						o, err := c.Group().Replicas()[prim].St.Get(ref.ObjectID())
						if err != nil {
							t.Error(err)
							return
						}
						frozen := o.Read()
						if string(frozen) != "new" {
							t.Errorf("the primary froze %q, want %q", frozen, "new")
						}
						for _, pass := range []string{"first", "second"} {
							for i, cl := range []*Client{n.a, n.b, n.rd} {
								hits, moved := c.CacheHits, c.BytesMoved
								got, err := cl.Get(p, ref)
								if err != nil || !bytes.Equal(got, frozen) {
									t.Errorf("%s Get on node %d = %q, %v; want the frozen %q", pass, i, got, err, frozen)
								}
								local := c.CacheHits == hits+1 && c.BytesMoved == moved
								remote := c.CacheHits == hits && c.BytesMoved == moved+int64(len(frozen))
								// The first remote read pulls the frozen bytes through.
								wantLocal := pass == "second" || (cl == freezer && fz.current)
								if local != wantLocal || remote == wantLocal {
									t.Errorf("%s Get on node %d: local = %v, remote = %v; want local = %v", pass, i, local, remote, wantLocal)
								}
							}
						}
						// A second Freeze keeps a stable entry.
						hits := c.CacheHits
						if err := freezer.Freeze(p, ref, object.Immutable); err != nil {
							t.Error(err)
						}
						if _, err := freezer.Get(p, ref); err != nil || c.CacheHits != hits+1 {
							t.Errorf("Get after a second Freeze: err = %v, local = %v; want a hit", err, c.CacheHits == hits+1)
						}
					})
				})
			}
		}
	}
}

// A Put that only lands on a retry still marks the version that landed.
func TestRetriedPutMarksTheVersionThatLanded(t *testing.T) {
	opts := DefaultOptions()
	opts.Retry = &fault.Policy{MaxAttempts: 5}
	c := New(opts)
	a := c.NewClient(0)
	run(t, c, func(p *sim.Proc) {
		ref, prim, err := createOffReplica0(p, a)
		if err != nil {
			t.Error(err)
			return
		}
		c.Group().SetDown(prim, true)
		c.Env().Go("heal", func(hp *sim.Proc) {
			hp.Sleep(consistency.DownTimeout + time.Millisecond)
			c.Group().SetDown(prim, false)
		})
		if err := a.Put(p, ref, []byte("landed")); err != nil || c.RetryAttempts == 0 {
			t.Errorf("Put = %v after %d retries; want success on a retry", err, c.RetryAttempts)
			return
		}
		if err := a.Freeze(p, ref, object.Immutable); err != nil {
			t.Error(err)
			return
		}
		hits := c.CacheHits
		if got, err := a.Get(p, ref); err != nil || string(got) != "landed" || c.CacheHits != hits+1 {
			t.Errorf("Get = %q, %v, local = %v; want a local hit on %q", got, err, c.CacheHits == hits+1, "landed")
		}
	})
}

// The chaos audit of the node caches fires on an entry the store disagrees
// with, and only then.
func TestChaosInvariantAuditsFrozenCacheEntries(t *testing.T) {
	c := testCloud(44)
	a := c.NewClient(0)
	var ref Ref
	run(t, c, func(p *sim.Proc) {
		var err error
		if ref, err = a.Create(p, object.Regular); err == nil {
			err = errors.Join(a.Put(p, ref, []byte("frozen")), a.Freeze(p, ref, object.Immutable))
		}
		if err != nil {
			t.Error(err)
		}
	})
	if v := c.chaosInvariants(); len(v) != 0 {
		t.Errorf("violations on a healthy cloud: %v", v)
	}
	c.caches[cacheKey{a.node, ref.ObjectID()}] = cacheEntry{stable: true, data: []byte("forged")}
	want := fmt.Sprintf("frozen cache entry on node %d differs from object %v", a.node, ref.ObjectID())
	if v := c.chaosInvariants(); len(v) != 1 || v[0] != want {
		t.Errorf("violations = %v, want [%s]", v, want)
	}
}

func TestCachePullThroughOnRemoteNode(t *testing.T) {
	c := testCloud(18)
	writer := c.NewClient(0)
	reader := c.NewClient(1)
	run(t, c, func(p *sim.Proc) {
		ref, err := writer.Create(p, object.Regular)
		if err != nil {
			t.Error(err)
			return
		}
		if err := writer.Put(p, ref, []byte("frozen-data")); err != nil {
			t.Error(err)
			return
		}
		if err := writer.Freeze(p, ref, object.Immutable); err != nil {
			t.Error(err)
			return
		}
		ro, err := writer.Attenuate(ref, capability.Read)
		if err != nil {
			t.Error(err)
			return
		}
		// First remote read pulls through; second is a local hit.
		if _, err := reader.Get(p, ro); err != nil {
			t.Error(err)
			return
		}
		hitsBefore := c.CacheHits
		got, err := reader.Get(p, ro)
		if err != nil || string(got) != "frozen-data" {
			t.Errorf("Get = %q, %v", got, err)
		}
		if c.CacheHits != hitsBefore+1 {
			t.Errorf("second read not served from cache")
		}
	})
}

func TestSocketPlumbing(t *testing.T) {
	c := testCloud(19)
	front := c.NewClient(0) // the load balancer / connection owner
	run(t, c, func(p *sim.Proc) {
		conn, err := front.Create(p, object.Socket)
		if err != nil {
			t.Error(err)
			return
		}
		// A serving function gets the server end via an attenuated ref.
		fnRef, err := front.RegisterFunction(p, FnConfig{
			Name: "http-server", Kind: platform.Wasm,
			Handler: func(fc *FnCtx) error {
				req, err := fc.Client.SockRecv(fc.Proc(), fc.Inputs[0], ServerEnd)
				if err != nil {
					return err
				}
				resp := append([]byte("HTTP/1.1 200 OK\n\n"), req...)
				return fc.Client.SockSend(fc.Proc(), fc.Inputs[0], ServerEnd, resp)
			},
		})
		if err != nil {
			t.Error(err)
			return
		}
		connRW, err := front.Attenuate(conn, capability.Read|capability.Write)
		if err != nil {
			t.Error(err)
			return
		}
		// Client writes the request, invokes the function, reads response.
		if err := front.SockSend(p, conn, ClientEnd, []byte("GET /")); err != nil {
			t.Error(err)
			return
		}
		if _, err := front.Invoke(p, fnRef, InvokeArgs{Inputs: []Ref{connRW}}); err != nil {
			t.Error(err)
			return
		}
		resp, err := front.SockRecv(p, conn, ClientEnd)
		if err != nil {
			t.Error(err)
			return
		}
		if string(resp) != "HTTP/1.1 200 OK\n\nGET /" {
			t.Errorf("response = %q", resp)
		}
		if err := front.SockClose(p, conn); err != nil {
			t.Error(err)
		}
		if err := front.SockSend(p, conn, ClientEnd, []byte("late")); !errors.Is(err, object.ErrSockClosed) {
			t.Errorf("send after close = %v", err)
		}
	})
}

func TestEphemeralSocket(t *testing.T) {
	c := testCloud(20)
	client := c.NewClient(0)
	run(t, c, func(p *sim.Proc) {
		conn, err := client.Create(p, object.Socket, WithEphemeral())
		if err != nil {
			t.Error(err)
			return
		}
		if err := client.SockSend(p, conn, ClientEnd, []byte("fast-path")); err != nil {
			t.Error(err)
			return
		}
		msg, err := client.SockRecv(p, conn, ServerEnd)
		if err != nil || string(msg) != "fast-path" {
			t.Errorf("recv = %q, %v", msg, err)
		}
	})
}

func TestVariantOptimizerThroughAPI(t *testing.T) {
	c := testCloud(21)
	client := c.NewClient(0)
	run(t, c, func(p *sim.Proc) {
		fn, err := client.RegisterFunction(p, FnConfig{
			Name: "transcode", Kind: platform.Wasm,
			TypicalExec: 200 * time.Millisecond,
			Variants: []faas.Variant{
				{Name: "wasm", Kind: platform.Wasm, Res: cluster.Resources{MilliCPU: 1000, MemMB: 256}, SpeedFactor: 1},
				{Name: "gpu", Kind: platform.GPU, Res: cluster.Resources{GPUs: 1}, SpeedFactor: 5},
			},
			Handler: func(fc *FnCtx) error {
				fc.Proc().Sleep(fc.Inv.Scale(200 * time.Millisecond))
				return nil
			},
		})
		if err != nil {
			t.Error(err)
			return
		}
		// Cost goal: cheap wasm implementation.
		inst, err := client.Invoke(p, fn, InvokeArgs{Goal: faas.GoalCost})
		if err != nil {
			t.Error(err)
			return
		}
		if inst.Variant().Name != "wasm" {
			t.Errorf("GoalCost ran %q", inst.Variant().Name)
		}
		// Same function reference, same handler — a different goal can
		// transparently use different hardware (drop-in replacement).
		if _, err := client.Invoke(p, fn, InvokeArgs{Goal: faas.GoalLatency}); err != nil {
			t.Errorf("latency-goal invoke failed: %v", err)
		}
	})
}
