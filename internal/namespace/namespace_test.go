package namespace

import (
	"errors"
	"testing"

	"repro/internal/media"
	"repro/internal/object"
	"repro/internal/store"
)

func newNS(t *testing.T) (*store.Store, *Namespace) {
	t.Helper()
	st := store.New(media.DRAM)
	root := st.Create(object.Directory)
	ns, err := New(st, root.ID())
	if err != nil {
		t.Fatal(err)
	}
	return st, ns
}

func TestNewRequiresDirectory(t *testing.T) {
	st := store.New(media.DRAM)
	f := st.Create(object.Regular)
	if _, err := New(st, f.ID()); !errors.Is(err, ErrNotDir) {
		t.Fatalf("err = %v, want ErrNotDir", err)
	}
}

func TestCreateAndResolve(t *testing.T) {
	_, ns := newNS(t)
	o, err := ns.Create("data/file.txt", object.Regular)
	if err != nil {
		t.Fatal(err)
	}
	id, err := ns.Resolve("data/file.txt")
	if err != nil || id != o.ID() {
		t.Fatalf("Resolve = %v, %v", id, err)
	}
	// Intermediate directories were created.
	d, err := ns.Stat("data")
	if err != nil || d.Kind() != object.Directory {
		t.Fatalf("Stat(data) = %v, %v", d, err)
	}
}

func TestResolveRoot(t *testing.T) {
	_, ns := newNS(t)
	for _, p := range []string{"", ".", "/"} {
		id, err := ns.Resolve(p)
		if err != nil || id != ns.Root() {
			t.Errorf("Resolve(%q) = %v, %v; want root", p, id, err)
		}
	}
}

func TestBadPaths(t *testing.T) {
	_, ns := newNS(t)
	for _, p := range []string{"a/../b", "a/./b", "a//b"} {
		if _, err := ns.Resolve(p); !errors.Is(err, ErrBadPath) {
			t.Errorf("Resolve(%q) err = %v, want ErrBadPath", p, err)
		}
	}
}

func TestDepthLimit(t *testing.T) {
	_, ns := newNS(t)
	deep := ""
	for i := 0; i < MaxDepth+1; i++ {
		deep += "d/"
	}
	if _, err := ns.Resolve(deep + "f"); !errors.Is(err, ErrDepthLimit) {
		t.Errorf("err = %v, want ErrDepthLimit", err)
	}
}

func TestResolveMissing(t *testing.T) {
	_, ns := newNS(t)
	if _, err := ns.Resolve("nope"); !errors.Is(err, ErrNotFound) {
		t.Errorf("err = %v, want ErrNotFound", err)
	}
	if _, err := ns.Resolve("a/b/c"); !errors.Is(err, ErrNotFound) {
		t.Errorf("err = %v, want ErrNotFound", err)
	}
}

func TestResolveThroughFileFails(t *testing.T) {
	_, ns := newNS(t)
	if _, err := ns.Create("file", object.Regular); err != nil {
		t.Fatal(err)
	}
	if _, err := ns.Resolve("file/child"); !errors.Is(err, ErrNotDir) {
		t.Errorf("err = %v, want ErrNotDir", err)
	}
}

func TestCreateDuplicateFails(t *testing.T) {
	_, ns := newNS(t)
	if _, err := ns.Create("x", object.Regular); err != nil {
		t.Fatal(err)
	}
	if _, err := ns.Create("x", object.Regular); !errors.Is(err, object.ErrExists) {
		t.Errorf("err = %v, want ErrExists", err)
	}
}

func TestBindExistingObject(t *testing.T) {
	st, ns := newNS(t)
	o := st.Create(object.Regular)
	if err := ns.Bind("linked", o.ID()); err != nil {
		t.Fatal(err)
	}
	id, err := ns.Resolve("linked")
	if err != nil || id != o.ID() {
		t.Fatalf("Resolve = %v, %v", id, err)
	}
}

func TestRemoveSingleLayer(t *testing.T) {
	_, ns := newNS(t)
	if _, err := ns.Create("x", object.Regular); err != nil {
		t.Fatal(err)
	}
	if err := ns.Remove("x"); err != nil {
		t.Fatal(err)
	}
	if _, err := ns.Resolve("x"); !errors.Is(err, ErrNotFound) {
		t.Errorf("resolve after remove err = %v", err)
	}
	if err := ns.Remove("x"); !errors.Is(err, ErrNotFound) {
		t.Errorf("double remove err = %v", err)
	}
}

func TestList(t *testing.T) {
	_, ns := newNS(t)
	for _, n := range []string{"b", "a", "c"} {
		if _, err := ns.Create(n, object.Regular); err != nil {
			t.Fatal(err)
		}
	}
	names, err := ns.List("")
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"a", "b", "c"}
	if len(names) != 3 {
		t.Fatalf("List = %v", names)
	}
	for i := range want {
		if names[i] != want[i] {
			t.Fatalf("List = %v, want %v", names, want)
		}
	}
}

func TestFreezeRejectsWrites(t *testing.T) {
	_, ns := newNS(t)
	ro := ns.Freeze()
	if !ro.readOnly {
		t.Fatal("Freeze not read-only")
	}
	if _, err := ro.Create("x", object.Regular); !errors.Is(err, ErrReadOnly) {
		t.Errorf("Create err = %v", err)
	}
	if err := ro.Remove("x"); !errors.Is(err, ErrReadOnly) {
		t.Errorf("Remove err = %v", err)
	}
	if err := ro.Bind("x", 1); !errors.Is(err, ErrReadOnly) {
		t.Errorf("Bind err = %v", err)
	}
	// Original namespace is still writable.
	if _, err := ns.Create("y", object.Regular); err != nil {
		t.Errorf("original became read-only: %v", err)
	}
}

// --- Union semantics ---

func newUnion(t *testing.T) (*store.Store, *Namespace, *Namespace) {
	t.Helper()
	st, lower := newNS(t)
	// Populate lower layer.
	base, err := lower.Create("etc/config", object.Regular)
	if err != nil {
		t.Fatal(err)
	}
	if err := st.SetData(base.ID(), []byte("base-config")); err != nil {
		t.Fatal(err)
	}
	if _, err := lower.Create("etc/hosts", object.Regular); err != nil {
		t.Fatal(err)
	}
	if _, err := lower.Create("bin/app", object.Regular); err != nil {
		t.Fatal(err)
	}
	upper := st.Create(object.Directory)
	u, err := NewUnion(st, upper.ID(), lower)
	if err != nil {
		t.Fatal(err)
	}
	return st, u, lower
}

func TestUnionReadsThroughLower(t *testing.T) {
	_, u, _ := newUnion(t)
	o, err := u.Stat("etc/config")
	if err != nil {
		t.Fatal(err)
	}
	if string(o.Read()) != "base-config" {
		t.Errorf("read through union = %q", o.Read())
	}
	if u.Layers() != 2 {
		t.Errorf("Layers = %d, want 2", u.Layers())
	}
}

func TestUnionUpperShadowsLower(t *testing.T) {
	st, u, lower := newUnion(t)
	// Write to the union: copy-up into the upper layer.
	up, err := u.OpenForWrite("etc/config")
	if err != nil {
		t.Fatal(err)
	}
	if err := st.SetData(up.ID(), []byte("override")); err != nil {
		t.Fatal(err)
	}
	// Union sees the override; the lower layer is untouched.
	o, err := u.Stat("etc/config")
	if err != nil || string(o.Read()) != "override" {
		t.Fatalf("union read = %q, %v", o.Read(), err)
	}
	lo, err := lower.Stat("etc/config")
	if err != nil || string(lo.Read()) != "base-config" {
		t.Fatalf("lower mutated: %q, %v — copy-up leaked", lo.Read(), err)
	}
}

func TestUnionCopyUpIdempotent(t *testing.T) {
	_, u, _ := newUnion(t)
	a, err := u.OpenForWrite("etc/config")
	if err != nil {
		t.Fatal(err)
	}
	b, err := u.OpenForWrite("etc/config")
	if err != nil {
		t.Fatal(err)
	}
	if a.ID() != b.ID() {
		t.Errorf("second OpenForWrite copied up again: %v vs %v", a.ID(), b.ID())
	}
}

func TestUnionWhiteoutHidesLower(t *testing.T) {
	_, u, lower := newUnion(t)
	if err := u.Remove("etc/hosts"); err != nil {
		t.Fatal(err)
	}
	if _, err := u.Resolve("etc/hosts"); !errors.Is(err, ErrNotFound) {
		t.Errorf("whited-out path resolves: %v", err)
	}
	// Lower layer still has it.
	if _, err := lower.Resolve("etc/hosts"); err != nil {
		t.Errorf("lower lost entry: %v", err)
	}
	// List must hide it too.
	names, err := u.List("etc")
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range names {
		if n == "hosts" {
			t.Error("List shows whited-out entry")
		}
	}
}

func TestUnionCreateOverWhiteout(t *testing.T) {
	st, u, _ := newUnion(t)
	if err := u.Remove("etc/hosts"); err != nil {
		t.Fatal(err)
	}
	o, err := u.Create("etc/hosts", object.Regular)
	if err != nil {
		t.Fatal(err)
	}
	if err := st.SetData(o.ID(), []byte("new")); err != nil {
		t.Fatal(err)
	}
	got, err := u.Stat("etc/hosts")
	if err != nil || string(got.Read()) != "new" {
		t.Fatalf("recreated entry = %q, %v", got.Read(), err)
	}
}

func TestUnionListMerges(t *testing.T) {
	_, u, _ := newUnion(t)
	if _, err := u.Create("etc/upper-only", object.Regular); err != nil {
		t.Fatal(err)
	}
	names, err := u.List("etc")
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]bool{"config": true, "hosts": true, "upper-only": true}
	if len(names) != len(want) {
		t.Fatalf("List = %v, want keys %v", names, want)
	}
	for _, n := range names {
		if !want[n] {
			t.Errorf("unexpected entry %q", n)
		}
	}
}

func TestThreeLayerStack(t *testing.T) {
	st, u2, _ := newUnion(t)
	top := st.Create(object.Directory)
	u3, err := NewUnion(st, top.ID(), u2)
	if err != nil {
		t.Fatal(err)
	}
	if u3.Layers() != 3 {
		t.Fatalf("Layers = %d, want 3", u3.Layers())
	}
	// Bottom layer content is visible through two unions.
	if _, err := u3.Resolve("bin/app"); err != nil {
		t.Errorf("3-layer resolve failed: %v", err)
	}
	// Writes land in the new top layer only.
	up, err := u3.OpenForWrite("etc/config")
	if err != nil {
		t.Fatal(err)
	}
	if err := st.SetData(up.ID(), []byte("top")); err != nil {
		t.Fatal(err)
	}
	mid, err := u2.Stat("etc/config")
	if err != nil || string(mid.Read()) != "base-config" {
		t.Errorf("middle layer mutated: %q, %v", mid.Read(), err)
	}
}

func TestUnionMissingStillNotFound(t *testing.T) {
	_, u, _ := newUnion(t)
	if _, err := u.OpenForWrite("etc/absent"); !errors.Is(err, ErrNotFound) {
		t.Errorf("err = %v, want ErrNotFound", err)
	}
}
