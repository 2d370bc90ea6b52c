package object

import (
	"errors"
	"testing"
)

func TestDirectoryLinkLookupUnlink(t *testing.T) {
	d := New(1, Directory)
	if err := d.Link("a", 10); err != nil {
		t.Fatal(err)
	}
	if err := d.Link("b", 20); err != nil {
		t.Fatal(err)
	}
	id, err := d.Lookup("a")
	if err != nil || id != 10 {
		t.Errorf("Lookup(a) = %v, %v", id, err)
	}
	if err := d.Unlink("a"); err != nil {
		t.Fatal(err)
	}
	if _, err := d.Lookup("a"); !errors.Is(err, ErrNotFound) {
		t.Errorf("Lookup after unlink err = %v", err)
	}
	if len(d.entries) != 1 {
		t.Errorf("EntryCount = %d, want 1", len(d.entries))
	}
}

func TestDirectoryDuplicateLink(t *testing.T) {
	d := New(1, Directory)
	if err := d.Link("x", 1); err != nil {
		t.Fatal(err)
	}
	if err := d.Link("x", 2); !errors.Is(err, ErrExists) {
		t.Errorf("duplicate link err = %v, want ErrExists", err)
	}
}

func TestDirectoryInvalidNames(t *testing.T) {
	d := New(1, Directory)
	for _, name := range []string{"", ".", "..", "a/b", "nul\x00byte"} {
		if err := d.Link(name, 1); !errors.Is(err, ErrInvalidName) {
			t.Errorf("Link(%q) err = %v, want ErrInvalidName", name, err)
		}
	}
}

func TestDirectoryEntriesSorted(t *testing.T) {
	d := New(1, Directory)
	for _, n := range []string{"zeta", "alpha", "mid"} {
		if err := d.Link(n, 1); err != nil {
			t.Fatal(err)
		}
	}
	got := d.Entries()
	want := []string{"alpha", "mid", "zeta"}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Entries = %v, want %v", got, want)
		}
	}
}

func TestDirectoryMutabilityGates(t *testing.T) {
	d := New(1, Directory)
	if err := d.Link("keep", 1); err != nil {
		t.Fatal(err)
	}
	// APPEND_ONLY directory: new names OK, removal forbidden.
	if err := d.SetMutability(AppendOnly); err != nil {
		t.Fatal(err)
	}
	if err := d.Link("new", 2); err != nil {
		t.Errorf("append-only dir rejected new entry: %v", err)
	}
	if err := d.Unlink("keep"); !errors.Is(err, ErrAppendOnly) {
		t.Errorf("append-only unlink err = %v", err)
	}
	if err := d.Whiteout("keep"); !errors.Is(err, ErrAppendOnly) {
		t.Errorf("append-only whiteout err = %v", err)
	}
	// IMMUTABLE directory: nothing changes.
	if err := d.SetMutability(Immutable); err != nil {
		t.Fatal(err)
	}
	if err := d.Link("другое", 3); !errors.Is(err, ErrImmutable) {
		t.Errorf("immutable link err = %v", err)
	}
}

func TestFixedSizeDirectoryRejectsChanges(t *testing.T) {
	d := New(1, Directory)
	if err := d.Link("a", 1); err != nil {
		t.Fatal(err)
	}
	if err := d.SetMutability(FixedSize); err != nil {
		t.Fatal(err)
	}
	if err := d.Link("b", 2); !errors.Is(err, ErrFixedSize) {
		t.Errorf("fixed-size link err = %v", err)
	}
	if err := d.Unlink("a"); !errors.Is(err, ErrFixedSize) {
		t.Errorf("fixed-size unlink err = %v", err)
	}
}

func TestWhiteouts(t *testing.T) {
	d := New(1, Directory)
	if err := d.Link("gone", 5); err != nil {
		t.Fatal(err)
	}
	if err := d.Whiteout("gone"); err != nil {
		t.Fatal(err)
	}
	if _, err := d.Lookup("gone"); !errors.Is(err, ErrNotFound) {
		t.Error("whited-out entry still resolvable")
	}
	if !d.IsWhiteout("gone") {
		t.Error("IsWhiteout(gone) = false")
	}
	// Re-linking clears the whiteout.
	if err := d.Link("gone", 6); err != nil {
		t.Fatal(err)
	}
	if d.IsWhiteout("gone") {
		t.Error("re-link did not clear whiteout")
	}
	if len(d.Whiteouts()) != 0 {
		t.Errorf("Whiteouts = %v, want empty", d.Whiteouts())
	}
}

func TestChildIDsForGC(t *testing.T) {
	d := New(1, Directory)
	for i, n := range []string{"c", "a", "b"} {
		if err := d.Link(n, ID(10+i)); err != nil {
			t.Fatal(err)
		}
	}
	ids := d.ChildIDs()
	if len(ids) != 3 {
		t.Fatalf("ChildIDs = %v", ids)
	}
	for i := 1; i < len(ids); i++ {
		if ids[i-1] >= ids[i] {
			t.Fatal("ChildIDs not sorted")
		}
	}
	if New(2, Regular).ChildIDs() != nil {
		t.Error("regular object returned child IDs")
	}
}

func TestFIFOOrder(t *testing.T) {
	f := New(1, FIFO)
	for _, m := range []string{"one", "two", "three"} {
		if err := f.Push([]byte(m)); err != nil {
			t.Fatal(err)
		}
	}
	if len(f.fifo) != 3 {
		t.Errorf("QueueLen = %d", len(f.fifo))
	}
	for _, want := range []string{"one", "two", "three"} {
		m, err := f.Pop()
		if err != nil || string(m) != want {
			t.Errorf("Pop = %q, %v; want %q", m, err, want)
		}
	}
	if _, err := f.Pop(); !errors.Is(err, ErrFIFOEmpty) {
		t.Errorf("empty Pop err = %v", err)
	}
}

func TestFIFOImmutableFreeze(t *testing.T) {
	f := New(1, FIFO)
	if err := f.Push([]byte("m")); err != nil {
		t.Fatal(err)
	}
	if err := f.SetMutability(Immutable); err != nil {
		t.Fatal(err)
	}
	if err := f.Push([]byte("n")); !errors.Is(err, ErrImmutable) {
		t.Errorf("push to frozen FIFO err = %v", err)
	}
}

func TestDirectoryCloneIndependent(t *testing.T) {
	d := New(1, Directory)
	if err := d.Link("a", 10); err != nil {
		t.Fatal(err)
	}
	if err := d.Whiteout("ghost"); err != nil {
		t.Fatal(err)
	}
	c := d.Clone(2)
	if _, err := c.Lookup("a"); err != nil {
		t.Error("clone missing entry")
	}
	if !c.IsWhiteout("ghost") {
		t.Error("clone missing whiteout")
	}
	if err := c.Link("b", 20); err != nil {
		t.Fatal(err)
	}
	if _, err := d.Lookup("b"); !errors.Is(err, ErrNotFound) {
		t.Error("clone shares entry map with original")
	}
}

func TestSocketBidirectional(t *testing.T) {
	s := New(1, Socket)
	if err := s.SockSend(0, []byte("request")); err != nil {
		t.Fatal(err)
	}
	if err := s.SockSend(1, []byte("response")); err != nil {
		t.Fatal(err)
	}
	// Server receives what the client sent, and vice versa.
	m, err := s.SockRecv(1)
	if err != nil || string(m) != "request" {
		t.Errorf("server recv = %q, %v", m, err)
	}
	m, err = s.SockRecv(0)
	if err != nil || string(m) != "response" {
		t.Errorf("client recv = %q, %v", m, err)
	}
	// Directions are independent: own sends are not echoed back.
	if err := s.SockSend(0, []byte("x")); err != nil {
		t.Fatal(err)
	}
	if _, err := s.SockRecv(0); !errors.Is(err, ErrSockEmpty) {
		t.Errorf("client received its own message: %v", err)
	}
}

func TestSocketCloseSemantics(t *testing.T) {
	s := New(1, Socket)
	if err := s.SockSend(0, []byte("last")); err != nil {
		t.Fatal(err)
	}
	if err := s.SockClose(); err != nil {
		t.Fatal(err)
	}
	if err := s.SockSend(0, []byte("after")); !errors.Is(err, ErrSockClosed) {
		t.Errorf("send after close = %v", err)
	}
	// Drain semantics: buffered data still delivered, then FIN.
	m, err := s.SockRecv(1)
	if err != nil || string(m) != "last" {
		t.Errorf("drain = %q, %v", m, err)
	}
	if _, err := s.SockRecv(1); !errors.Is(err, ErrSockClosed) {
		t.Errorf("recv after drain = %v", err)
	}
}

func TestSocketBadEndAndKind(t *testing.T) {
	s := New(1, Socket)
	if err := s.SockSend(2, []byte("x")); !errors.Is(err, ErrBadEnd) {
		t.Errorf("bad end = %v", err)
	}
	if _, err := s.SockRecv(-1); !errors.Is(err, ErrBadEnd) {
		t.Errorf("bad end recv = %v", err)
	}
	f := New(2, Regular)
	if err := f.SockSend(0, nil); !errors.Is(err, ErrWrongKind) {
		t.Errorf("wrong kind = %v", err)
	}
	if len(s.sock[0]) != 0 {
		t.Errorf("pending = %d", len(s.sock[0]))
	}
	if err := s.SockSend(0, []byte("m")); err != nil {
		t.Fatal(err)
	}
	if len(s.sock[0]) != 1 {
		t.Errorf("pending = %d, want 1", len(s.sock[0]))
	}
}
