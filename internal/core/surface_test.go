package core

import (
	"bytes"
	"errors"
	"testing"

	"repro/internal/capability"
	"repro/internal/consistency"
	"repro/internal/object"
	"repro/internal/platform"
	"repro/internal/sim"
)

// Surface tests for API paths not covered by the scenario tests:
// positional reads/writes, per-op consistency overrides, namespace verbs,
// and the ephemeral object lifecycle.

func TestAppendAndWriteAt(t *testing.T) {
	c := testCloud(30)
	client := c.NewClient(0)
	run(t, c, func(p *sim.Proc) {
		log, err := client.Create(p, object.Regular)
		if err != nil {
			t.Error(err)
			return
		}
		if err := client.Append(p, log, []byte("line1\n")); err != nil {
			t.Error(err)
			return
		}
		if err := client.Append(p, log, []byte("line2\n")); err != nil {
			t.Error(err)
			return
		}
		if err := client.WriteAt(p, log, []byte("LINE"), 0); err != nil {
			t.Error(err)
			return
		}
		got, err := client.Get(p, log)
		if err != nil || string(got) != "LINE1\nline2\n" {
			t.Errorf("Get = %q, %v", got, err)
		}
		// Append right alone is not enough for WriteAt.
		ao, err := client.Attenuate(log, capability.Append)
		if err != nil {
			t.Error(err)
			return
		}
		if err := client.WriteAt(p, ao, []byte("x"), 0); err == nil {
			t.Error("WriteAt with append-only rights succeeded")
		}
		if err := client.Append(p, ao, []byte("more\n")); err != nil {
			t.Errorf("Append with append right failed: %v", err)
		}
	})
}

func TestGetAtOverridesLevel(t *testing.T) {
	c := testCloud(31)
	client := c.NewClient(0)
	run(t, c, func(p *sim.Proc) {
		ref, err := client.Create(p, object.Regular, WithConsistency(consistency.Linearizable))
		if err != nil {
			t.Error(err)
			return
		}
		if err := client.Put(p, ref, []byte("v")); err != nil {
			t.Error(err)
			return
		}
		// Strong-by-default object, read eventually: must be cheaper.
		t0 := p.Now()
		if _, err := client.GetAt(p, ref, consistency.Linearizable); err != nil {
			t.Error(err)
			return
		}
		strong := p.Now().Sub(t0)
		t0 = p.Now()
		if _, err := client.GetAt(p, ref, consistency.Eventual); err != nil {
			t.Error(err)
			return
		}
		eventual := p.Now().Sub(t0)
		if eventual > strong {
			t.Errorf("eventual GetAt %v slower than strong %v", eventual, strong)
		}
	})
}

func TestNamespaceVerbs(t *testing.T) {
	c := testCloud(32)
	client := c.NewClient(0)
	run(t, c, func(p *sim.Proc) {
		ns, root, err := client.NewNamespace(p)
		if err != nil {
			t.Error(err)
			return
		}
		if ns.Root() != root.ObjectID() {
			t.Error("Root() does not match root ref")
		}
		obj, err := client.Create(p, object.Regular)
		if err != nil {
			t.Error(err)
			return
		}
		if err := client.Put(p, obj, []byte("bound")); err != nil {
			t.Error(err)
			return
		}
		if err := ns.Bind(p, client, "dir/bound.txt", obj); err != nil {
			t.Error(err)
			return
		}
		if _, err := ns.CreateAt(p, client, "dir/second.txt", object.Regular); err != nil {
			t.Error(err)
			return
		}
		names, err := ns.List(p, client, "dir")
		if err != nil || len(names) != 2 {
			t.Errorf("List = %v, %v", names, err)
		}
		if err := ns.Remove(p, client, "dir/second.txt"); err != nil {
			t.Error(err)
			return
		}
		names, err = ns.List(p, client, "dir")
		if err != nil || len(names) != 1 || names[0] != "bound.txt" {
			t.Errorf("List after remove = %v, %v", names, err)
		}
		// Frozen view refuses writes but resolves.
		ro := ns.Freeze()
		if _, err := ro.CreateAt(p, client, "dir/third", object.Regular); err == nil {
			t.Error("create through frozen namespace succeeded")
		}
		ref, err := ro.Open(p, client, "dir/bound.txt", capability.Read)
		if err != nil {
			t.Error(err)
			return
		}
		data, err := client.Get(p, ref)
		if err != nil || string(data) != "bound" {
			t.Errorf("frozen-view read = %q, %v", data, err)
		}
	})
}

func TestEphemeralLifecycle(t *testing.T) {
	c := testCloud(33)
	producer := c.NewClient(0)
	consumer := c.NewClient(1)
	var ref, lost Ref
	run(t, c, func(p *sim.Proc) {
		var err error
		ref, err = producer.Create(p, object.Regular, WithEphemeral())
		if err != nil {
			t.Error(err)
			return
		}
		if c.EphemeralCount() != 1 {
			t.Errorf("EphemeralCount = %d", c.EphemeralCount())
		}
		if err := producer.Append(p, ref, []byte("part1-")); err != nil {
			t.Error(err)
			return
		}
		if err := producer.Append(p, ref, []byte("part2")); err != nil {
			t.Error(err)
			return
		}
		// Positional read from a remote node pays a hop but works.
		part, err := consumer.ReadAt(p, ref, 6, 5)
		if err != nil || string(part) != "part2" {
			t.Errorf("ReadAt = %q, %v", part, err)
		}
		info, err := consumer.Stat(p, ref)
		if err != nil || info.Size != 11 {
			t.Errorf("Stat = %+v, %v", info, err)
		}
		m, err := consumer.Mutability(p, ref)
		if err != nil || m != object.Mutable {
			t.Errorf("Mutability = %v, %v", m, err)
		}
		// Freeze works on ephemerals too.
		if err := producer.Freeze(p, ref, object.Immutable); err != nil {
			t.Error(err)
			return
		}
		if err := producer.Put(p, ref, []byte("no")); !errors.Is(err, object.ErrImmutable) {
			t.Errorf("write to frozen ephemeral = %v", err)
		}
		// The last Drop frees an ephemeral at once; no Collect is needed.
		producer.Drop(ref)
		if c.EphemeralCount() != 0 {
			t.Errorf("EphemeralCount = %d after the last Drop", c.EphemeralCount())
		}
		producer.Drop(ref) // a second Drop of the same reference is a no-op

		var first, second Ref
		if first, err = producer.Create(p, object.Regular, WithEphemeral()); err != nil {
			t.Error(err)
			return
		}
		if second, err = producer.Attenuate(first, capability.Read); err != nil {
			t.Error(err)
			return
		}
		if err := producer.Put(p, first, []byte("shared")); err != nil {
			t.Error(err)
			return
		}
		// A second reference keeps the object alive and readable.
		producer.Drop(first)
		if c.EphemeralCount() != 1 {
			t.Errorf("EphemeralCount = %d with an attenuated reference still held", c.EphemeralCount())
		}
		if got, err := consumer.Get(p, second); err != nil || string(got) != "shared" {
			t.Errorf("Get through the surviving reference = %q, %v", got, err)
		}
		consumer.Drop(second)
		if c.EphemeralCount() != 0 {
			t.Errorf("EphemeralCount = %d after both references dropped", c.EphemeralCount())
		}
		// IDs are never reused, freed objects included.
		if lost, err = producer.Create(p, object.Regular, WithEphemeral()); err != nil {
			t.Error(err)
			return
		}
		if lost.ObjectID() == first.ObjectID() || lost.ObjectID() == ref.ObjectID() {
			t.Errorf("ephemeral ID %v reused", lost.ObjectID())
		}
	})
	// A reference that left the registry without going through Client.Drop
	// leaves its ephemeral for the collector, which still sweeps it.
	c.Caps().Drop(lost.cap)
	if c.EphemeralCount() != 1 {
		t.Errorf("EphemeralCount = %d before collect", c.EphemeralCount())
	}
	if n := c.Collect(); n < 1 {
		t.Errorf("Collect reclaimed %d, want >= 1 ephemeral", n)
	}
	if c.EphemeralCount() != 0 {
		t.Errorf("EphemeralCount = %d after collect", c.EphemeralCount())
	}
}

func TestEphemeralWriteAtFromRemoteNode(t *testing.T) {
	c := testCloud(34)
	owner := c.NewClient(0)
	remote := c.NewClient(1)
	run(t, c, func(p *sim.Proc) {
		ref, err := owner.Create(p, object.Regular, WithEphemeral())
		if err != nil {
			t.Error(err)
			return
		}
		if err := owner.Put(p, ref, bytes.Repeat([]byte{0}, 8)); err != nil {
			t.Error(err)
			return
		}
		if err := remote.WriteAt(p, ref, []byte("ab"), 2); err != nil {
			t.Error(err)
			return
		}
		got, err := owner.Get(p, ref)
		if err != nil || got[2] != 'a' || got[3] != 'b' {
			t.Errorf("Get = %v, %v", got, err)
		}
	})
}

func TestAccessorsAndStrings(t *testing.T) {
	c := testCloud(35)
	client := c.NewClient(2)
	if client.Node() == 0 && c.Net().Nodes() == 0 {
		t.Error("client node not registered")
	}
	if client.Cloud() != c {
		t.Error("Cloud() mismatch")
	}
	if c.Runtime() == nil || c.Caps() == nil || c.Collector() == nil {
		t.Error("nil accessors")
	}
	run(t, c, func(p *sim.Proc) {
		ref, err := client.Create(p, object.Regular, WithMutability(object.AppendOnly),
			WithConsistency(consistency.Eventual))
		if err != nil {
			t.Error(err)
			return
		}
		if ref.Level() != consistency.Eventual {
			t.Error("Level mismatch")
		}
		if ref.String() == "" || ref.Rights() != capability.All {
			t.Errorf("ref = %v rights = %v", ref, ref.Rights())
		}
		m, err := client.Mutability(p, ref)
		if err != nil || m != object.AppendOnly {
			t.Errorf("WithMutability not applied: %v, %v", m, err)
		}
	})
}

func TestFnCtxAccessors(t *testing.T) {
	c := testCloud(36)
	client := c.NewClient(0)
	run(t, c, func(p *sim.Proc) {
		fn, err := client.RegisterFunction(p, FnConfig{
			Name: "introspect", Kind: platform.Wasm,
			Handler: func(fc *FnCtx) error {
				if fc.Cloud() != c {
					t.Error("FnCtx.Cloud mismatch")
				}
				// Wasm functions land on CPU nodes: no device.
				if fc.Device() != nil && !clusterNodeHasGPU(c, fc) {
					t.Error("device on non-GPU node")
				}
				return nil
			},
		})
		if err != nil {
			t.Error(err)
			return
		}
		if _, err := client.Invoke(p, fn, InvokeArgs{}); err != nil {
			t.Error(err)
		}
	})
}

func clusterNodeHasGPU(c *Cloud, fc *FnCtx) bool {
	n := c.Cluster().Node(fc.Inv.Node())
	return n != nil && n.HasGPU()
}

func TestFreezeDoesNotPromoteStaleCache(t *testing.T) {
	// Writer A stages v1 locally; writer B overwrites with v2; A freezes.
	// A's subsequent read must observe v2, not its stale staged copy.
	c := testCloud(37)
	a := c.NewClient(0)
	b := c.NewClient(1)
	run(t, c, func(p *sim.Proc) {
		ref, err := a.Create(p, object.Regular)
		if err != nil {
			t.Error(err)
			return
		}
		if err := a.Put(p, ref, []byte("v1")); err != nil {
			t.Error(err)
			return
		}
		wref, err := a.Attenuate(ref, capability.All)
		if err != nil {
			t.Error(err)
			return
		}
		if err := b.Put(p, wref, []byte("v2")); err != nil {
			t.Error(err)
			return
		}
		if err := a.Freeze(p, ref, object.Immutable); err != nil {
			t.Error(err)
			return
		}
		got, err := a.Get(p, ref)
		if err != nil || string(got) != "v2" {
			t.Errorf("A read %q after freeze, want v2 (stale cache promoted)", got)
		}
	})
}
