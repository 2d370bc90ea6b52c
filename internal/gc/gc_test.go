package gc

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/capability"
	"repro/internal/media"
	"repro/internal/object"
	"repro/internal/store"
)

func TestUnreferencedObjectCollected(t *testing.T) {
	st := store.New(media.DRAM)
	reg := capability.NewRegistry()
	c := New(st)
	c.AddRoots(reg)

	kept := st.Create(object.Regular)
	reg.Mint(kept.ID(), capability.Read)
	orphan := st.Create(object.Regular)
	if err := st.SetData(orphan.ID(), make([]byte, 100)); err != nil {
		t.Fatal(err)
	}

	swept := c.Collect()
	if swept != 1 {
		t.Errorf("swept = %d, want 1", swept)
	}
	if !st.Contains(kept.ID()) {
		t.Error("referenced object collected")
	}
	if st.Contains(orphan.ID()) {
		t.Error("orphan survived")
	}
	if c.LastReclaimed != 100 {
		t.Errorf("LastReclaimed = %d, want 100", c.LastReclaimed)
	}
}

func TestDirectoryKeepsChildrenAlive(t *testing.T) {
	st := store.New(media.DRAM)
	reg := capability.NewRegistry()
	c := New(st)
	c.AddRoots(reg)

	root := st.Create(object.Directory)
	sub := st.Create(object.Directory)
	leaf := st.Create(object.Regular)
	if err := root.Link("sub", sub.ID()); err != nil {
		t.Fatal(err)
	}
	if err := sub.Link("leaf", leaf.ID()); err != nil {
		t.Fatal(err)
	}
	reg.Mint(root.ID(), capability.Read)

	if swept := c.Collect(); swept != 0 {
		t.Errorf("swept = %d, want 0", swept)
	}
	for _, id := range []object.ID{root.ID(), sub.ID(), leaf.ID()} {
		if !st.Contains(id) {
			t.Errorf("%v collected despite reachability", id)
		}
	}
	// Unlink the subtree: both sub and leaf become garbage.
	if err := root.Unlink("sub"); err != nil {
		t.Fatal(err)
	}
	if swept := c.Collect(); swept != 2 {
		t.Errorf("swept = %d after unlink, want 2", swept)
	}
}

func TestDroppedReferenceMakesGarbage(t *testing.T) {
	st := store.New(media.DRAM)
	reg := capability.NewRegistry()
	c := New(st)
	c.AddRoots(reg)
	o := st.Create(object.Regular)
	ref := reg.Mint(o.ID(), capability.Read)
	if swept := c.Collect(); swept != 0 {
		t.Fatalf("swept = %d with live ref", swept)
	}
	reg.Drop(ref)
	if swept := c.Collect(); swept != 1 {
		t.Errorf("swept = %d after drop, want 1", swept)
	}
}

func TestCycleCollected(t *testing.T) {
	// Two directories referencing each other but unreachable from roots
	// must still be collected — mark & sweep handles cycles.
	st := store.New(media.DRAM)
	c := New(st)
	a := st.Create(object.Directory)
	b := st.Create(object.Directory)
	if err := a.Link("b", b.ID()); err != nil {
		t.Fatal(err)
	}
	if err := b.Link("a", a.ID()); err != nil {
		t.Fatal(err)
	}
	if swept := c.Collect(); swept != 2 {
		t.Errorf("swept = %d, want 2 (cycle)", swept)
	}
}

func TestMultipleRootSources(t *testing.T) {
	st := store.New(media.DRAM)
	c := New(st)
	a := st.Create(object.Regular)
	b := st.Create(object.Regular)
	st.Create(object.Regular) // garbage
	c.AddRoots(RootsFunc(func() []object.ID { return []object.ID{a.ID()} }))
	c.AddRoots(RootsFunc(func() []object.ID { return []object.ID{b.ID()} }))
	if swept := c.Collect(); swept != 1 {
		t.Errorf("swept = %d, want 1", swept)
	}
	if !st.Contains(a.ID()) || !st.Contains(b.ID()) {
		t.Error("rooted object collected")
	}
}

func TestStaleRootIgnored(t *testing.T) {
	st := store.New(media.DRAM)
	c := New(st)
	c.AddRoots(RootsFunc(func() []object.ID { return []object.ID{object.ID(999)} }))
	st.Create(object.Regular)
	if swept := c.Collect(); swept != 1 {
		t.Errorf("swept = %d, want 1", swept)
	}
}

// Property: after any collection, every object reachable from roots is
// still present and every present object is reachable (safety AND
// completeness of the collector).
func TestCollectExactnessProperty(t *testing.T) {
	f := func(links []uint8, rootPick uint8) bool {
		st := store.New(media.DRAM)
		c := New(st)
		const n = 10
		var objs []*object.Object
		for i := 0; i < n; i++ {
			objs = append(objs, st.Create(object.Directory))
		}
		// Random edges.
		for i := 0; i+1 < len(links); i += 2 {
			from := objs[int(links[i])%n]
			to := objs[int(links[i+1])%n]
			_ = from.Link(to.ID().String()+from.ID().String(), to.ID())
		}
		root := objs[int(rootPick)%n]
		c.AddRoots(RootsFunc(func() []object.ID { return []object.ID{root.ID()} }))

		// Compute expected reachability independently.
		expect := map[object.ID]bool{}
		var walk func(id object.ID)
		walk = func(id object.ID) {
			if expect[id] || !st.Contains(id) {
				return
			}
			expect[id] = true
			o, _ := st.Get(id)
			for _, ch := range o.ChildIDs() {
				walk(ch)
			}
		}
		walk(root.ID())

		c.Collect()
		if st.Len() != len(expect) {
			return false
		}
		for id := range expect {
			if !st.Contains(id) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200, Rand: rand.New(rand.NewSource(1))}); err != nil {
		t.Fatal(err)
	}
}

func TestCollectionStats(t *testing.T) {
	st := store.New(media.DRAM)
	c := New(st)
	st.Create(object.Regular)
	c.Collect()
	c.Collect()
	if c.Collections != 2 {
		t.Errorf("Collections = %d", c.Collections)
	}
	if c.LastSwept != 0 {
		t.Errorf("second collection swept %d", c.LastSwept)
	}
}
