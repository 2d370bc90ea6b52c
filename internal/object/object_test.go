package object

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"math/rand"
	"testing"
	"testing/quick"
)

// --- Figure 1: the mutability lattice ---

func TestFigure1TransitionMatrix(t *testing.T) {
	// The exact edge set of Figure 1 (plus self-loops).
	allowed := map[[2]Mutability]bool{
		{Mutable, Mutable}:       true,
		{Mutable, AppendOnly}:    true,
		{Mutable, FixedSize}:     true,
		{Mutable, Immutable}:     true,
		{AppendOnly, AppendOnly}: true,
		{AppendOnly, Immutable}:  true,
		{FixedSize, FixedSize}:   true,
		{FixedSize, Immutable}:   true,
		{Immutable, Immutable}:   true,
	}
	for _, from := range Levels() {
		for _, to := range Levels() {
			want := allowed[[2]Mutability{from, to}]
			if got := from.CanTransition(to); got != want {
				t.Errorf("CanTransition(%v -> %v) = %v, want %v", from, to, got, want)
			}
		}
	}
}

// Property: transitions are transitive along the lattice — if a->b and
// b->c are legal then a->c is legal (restriction only accumulates).
func TestTransitionTransitivityProperty(t *testing.T) {
	f := func(a, b, c uint8) bool {
		x, y, z := Mutability(a%4), Mutability(b%4), Mutability(c%4)
		if x.CanTransition(y) && y.CanTransition(z) {
			return x.CanTransition(z)
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{Rand: rand.New(rand.NewSource(1))}); err != nil {
		t.Fatal(err)
	}
}

// Property: the lattice is antisymmetric — a->b and b->a implies a == b.
func TestTransitionAntisymmetryProperty(t *testing.T) {
	f := func(a, b uint8) bool {
		x, y := Mutability(a%4), Mutability(b%4)
		if x.CanTransition(y) && y.CanTransition(x) {
			return x == y
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{Rand: rand.New(rand.NewSource(1))}); err != nil {
		t.Fatal(err)
	}
}

func TestImmutableIsTerminal(t *testing.T) {
	for _, to := range Levels() {
		if to != Immutable && Immutable.CanTransition(to) {
			t.Errorf("IMMUTABLE must not transition to %v", to)
		}
	}
}

func TestCacheStable(t *testing.T) {
	if !Immutable.CacheStable() || !AppendOnly.CacheStable() {
		t.Error("IMMUTABLE and APPEND_ONLY content must be cache-stable (§3.3)")
	}
	if Mutable.CacheStable() || FixedSize.CacheStable() {
		t.Error("MUTABLE/FIXED_SIZE content must not be cache-stable")
	}
}

func TestSetMutabilityEnforcesLattice(t *testing.T) {
	o := New(1, Regular)
	if err := o.SetMutability(AppendOnly); err != nil {
		t.Fatal(err)
	}
	if err := o.SetMutability(FixedSize); !errors.Is(err, ErrBadTransition) {
		t.Errorf("APPEND_ONLY -> FIXED_SIZE err = %v, want ErrBadTransition", err)
	}
	if err := o.SetMutability(Immutable); err != nil {
		t.Fatal(err)
	}
	if err := o.SetMutability(Mutable); !errors.Is(err, ErrBadTransition) {
		t.Errorf("IMMUTABLE -> MUTABLE err = %v, want ErrBadTransition", err)
	}
}

func TestSelfTransitionDoesNotBumpVersion(t *testing.T) {
	o := New(1, Regular)
	v := o.Version()
	if err := o.SetMutability(Mutable); err != nil {
		t.Fatal(err)
	}
	if o.Version() != v {
		t.Error("no-op transition bumped version")
	}
	if err := o.SetMutability(Immutable); err != nil {
		t.Fatal(err)
	}
	if o.Version() != v+1 {
		t.Error("real transition did not bump version")
	}
}

// --- Per-level operation legality ---

func TestMutableAllowsEverything(t *testing.T) {
	o := New(1, Regular)
	if _, err := o.WriteAt([]byte("hello"), 0); err != nil {
		t.Fatal(err)
	}
	if _, err := o.WriteAt([]byte("HE"), 0); err != nil {
		t.Fatal(err)
	}
	if err := o.Append([]byte("!")); err != nil {
		t.Fatal(err)
	}
	if err := o.Truncate(3); err != nil {
		t.Fatal(err)
	}
	if got := string(o.Read()); got != "HEl" {
		t.Errorf("data = %q, want HEl", got)
	}
}

func TestAppendOnlySemantics(t *testing.T) {
	o := New(1, Regular)
	if err := o.Append([]byte("log1\n")); err != nil {
		t.Fatal(err)
	}
	if err := o.SetMutability(AppendOnly); err != nil {
		t.Fatal(err)
	}
	if err := o.Append([]byte("log2\n")); err != nil {
		t.Fatalf("append to APPEND_ONLY failed: %v", err)
	}
	if _, err := o.WriteAt([]byte("X"), 0); !errors.Is(err, ErrAppendOnly) {
		t.Errorf("overwrite err = %v, want ErrAppendOnly", err)
	}
	if err := o.Truncate(1); !errors.Is(err, ErrAppendOnly) {
		t.Errorf("truncate err = %v, want ErrAppendOnly", err)
	}
	if err := o.SetData([]byte("replace")); !errors.Is(err, ErrAppendOnly) {
		t.Errorf("SetData err = %v, want ErrAppendOnly", err)
	}
	if got := string(o.Read()); got != "log1\nlog2\n" {
		t.Errorf("data = %q", got)
	}
}

func TestFixedSizeSemantics(t *testing.T) {
	o := New(1, Regular)
	if err := o.SetData(make([]byte, 8)); err != nil {
		t.Fatal(err)
	}
	if err := o.SetMutability(FixedSize); err != nil {
		t.Fatal(err)
	}
	if _, err := o.WriteAt([]byte("abcd"), 2); err != nil {
		t.Fatalf("in-place write failed: %v", err)
	}
	if _, err := o.WriteAt([]byte("abcd"), 6); !errors.Is(err, ErrFixedSize) {
		t.Errorf("grow-write err = %v, want ErrFixedSize", err)
	}
	if err := o.Append([]byte("x")); !errors.Is(err, ErrFixedSize) {
		t.Errorf("append err = %v, want ErrFixedSize", err)
	}
	if err := o.Truncate(4); !errors.Is(err, ErrFixedSize) {
		t.Errorf("truncate err = %v, want ErrFixedSize", err)
	}
	if err := o.SetData(make([]byte, 8)); err != nil {
		t.Errorf("same-size SetData err = %v, want nil", err)
	}
	if err := o.SetData(make([]byte, 9)); !errors.Is(err, ErrFixedSize) {
		t.Errorf("resize SetData err = %v, want ErrFixedSize", err)
	}
	if o.Size() != 8 {
		t.Errorf("size = %d, want 8", o.Size())
	}
}

func TestImmutableRejectsAllWrites(t *testing.T) {
	o := New(1, Regular)
	if err := o.SetData([]byte("frozen")); err != nil {
		t.Fatal(err)
	}
	if err := o.SetMutability(Immutable); err != nil {
		t.Fatal(err)
	}
	hash := contentHash(o)
	if _, err := o.WriteAt([]byte("x"), 0); !errors.Is(err, ErrImmutable) {
		t.Errorf("WriteAt err = %v", err)
	}
	if err := o.Append([]byte("x")); !errors.Is(err, ErrImmutable) {
		t.Errorf("Append err = %v", err)
	}
	if err := o.Truncate(0); !errors.Is(err, ErrImmutable) {
		t.Errorf("Truncate err = %v", err)
	}
	if err := o.SetData(nil); !errors.Is(err, ErrImmutable) {
		t.Errorf("SetData err = %v", err)
	}
	if contentHash(o) != hash {
		t.Error("immutable content changed")
	}
}

// Property: once an object is frozen IMMUTABLE, no operation sequence can
// change its content hash.
func TestImmutableContentNeverChangesProperty(t *testing.T) {
	type op struct {
		Kind byte
		Off  int16
		Data []byte
	}
	f := func(initial []byte, ops []op) bool {
		o := New(1, Regular)
		if err := o.SetData(initial); err != nil {
			return false
		}
		if err := o.SetMutability(Immutable); err != nil {
			return false
		}
		before := contentHash(o)
		for _, op := range ops {
			switch op.Kind % 4 {
			case 0:
				o.WriteAt(op.Data, int64(op.Off)) //nolint:errcheck
			case 1:
				o.Append(op.Data) //nolint:errcheck
			case 2:
				o.Truncate(int64(op.Off)) //nolint:errcheck
			case 3:
				o.SetData(op.Data) //nolint:errcheck
			}
		}
		return contentHash(o) == before
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200, Rand: rand.New(rand.NewSource(1))}); err != nil {
		t.Fatal(err)
	}
}

// Property: under APPEND_ONLY, any operation sequence leaves the original
// prefix intact — the invariant that makes append-only content safely
// cacheable (§3.3).
func TestAppendOnlyPrefixStableProperty(t *testing.T) {
	f := func(prefix []byte, writes [][]byte) bool {
		o := New(1, Regular)
		if err := o.SetData(prefix); err != nil {
			return false
		}
		if err := o.SetMutability(AppendOnly); err != nil {
			return false
		}
		for _, w := range writes {
			o.Append(w)                      //nolint:errcheck
			o.WriteAt(w, 0)                  //nolint:errcheck
			o.WriteAt(w, int64(len(prefix))) // may succeed only at EOF
			o.Truncate(0)                    //nolint:errcheck
		}
		got := o.Read()
		return len(got) >= len(prefix) && bytes.Equal(got[:len(prefix)], prefix)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200, Rand: rand.New(rand.NewSource(1))}); err != nil {
		t.Fatal(err)
	}
}

// --- Basic payload operations ---

func TestReadAt(t *testing.T) {
	o := New(1, Regular)
	if err := o.SetData([]byte("hello world")); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 5)
	n, err := o.ReadAt(buf, 6)
	if err != nil || n != 5 || string(buf) != "world" {
		t.Errorf("ReadAt = %d %v %q", n, err, buf)
	}
	n, err = o.ReadAt(buf, 100)
	if err != nil || n != 0 {
		t.Errorf("ReadAt past EOF = %d, %v; want 0, nil", n, err)
	}
	if _, err := o.ReadAt(buf, -1); !errors.Is(err, ErrOutOfRange) {
		t.Errorf("negative offset err = %v", err)
	}
}

func TestWriteAtGrowsWithZeroFill(t *testing.T) {
	o := New(1, Regular)
	if _, err := o.WriteAt([]byte("xy"), 4); err != nil {
		t.Fatal(err)
	}
	want := []byte{0, 0, 0, 0, 'x', 'y'}
	if !bytes.Equal(o.Read(), want) {
		t.Errorf("data = %v, want %v", o.Read(), want)
	}
}

func TestVersionBumpsOnMutation(t *testing.T) {
	o := New(1, Regular)
	v0 := o.Version()
	if err := o.SetData([]byte("a")); err != nil {
		t.Fatal(err)
	}
	if o.Version() <= v0 {
		t.Error("SetData did not bump version")
	}
	v1 := o.Version()
	if _, err := o.ReadAt(make([]byte, 1), 0); err != nil {
		t.Fatal(err)
	}
	if o.Version() != v1 {
		t.Error("read bumped version")
	}
}

func TestReadReturnsCopy(t *testing.T) {
	o := New(1, Regular)
	if err := o.SetData([]byte("abc")); err != nil {
		t.Fatal(err)
	}
	got := o.Read()
	got[0] = 'X'
	if string(o.Read()) != "abc" {
		t.Error("Read exposed internal buffer")
	}
}

func TestClone(t *testing.T) {
	o := New(1, Regular)
	if err := o.SetData([]byte("data")); err != nil {
		t.Fatal(err)
	}
	o.Labels["ct"] = "text"
	if err := o.SetMutability(AppendOnly); err != nil {
		t.Fatal(err)
	}
	c := o.Clone(2)
	if c.ID() != 2 || c.Mutability() != AppendOnly || string(c.Read()) != "data" || c.Labels["ct"] != "text" {
		t.Errorf("clone mismatch: %+v", c)
	}
	// Deep copy: mutating the clone must not affect the original.
	if err := c.Append([]byte("!")); err != nil {
		t.Fatal(err)
	}
	if string(o.Read()) != "data" {
		t.Error("clone shares buffer with original")
	}
}

func TestWrongKindOperations(t *testing.T) {
	d := New(1, Directory)
	if _, err := d.ReadAt(make([]byte, 1), 0); !errors.Is(err, ErrWrongKind) {
		t.Errorf("dir ReadAt err = %v", err)
	}
	if _, err := d.WriteAt([]byte("x"), 0); !errors.Is(err, ErrWrongKind) {
		t.Errorf("dir WriteAt err = %v", err)
	}
	r := New(2, Regular)
	if err := r.Link("a", 3); !errors.Is(err, ErrWrongKind) {
		t.Errorf("file Link err = %v", err)
	}
	if err := r.Push([]byte("m")); !errors.Is(err, ErrWrongKind) {
		t.Errorf("file Push err = %v", err)
	}
}

func TestKindAndLevelStrings(t *testing.T) {
	for _, k := range []Kind{Regular, Directory, FIFO, Socket, Device} {
		if k.String() == "" {
			t.Errorf("kind %d has empty name", k)
		}
	}
	if Mutable.String() != "MUTABLE" || Immutable.String() != "IMMUTABLE" ||
		AppendOnly.String() != "APPEND_ONLY" || FixedSize.String() != "FIXED_SIZE" {
		t.Error("level names must match the paper's Figure 1 capitalisation")
	}
}

// contentHash returns the hex SHA-256 of o's payload.
func contentHash(o *Object) string {
	h := sha256.Sum256(o.data)
	return hex.EncodeToString(h[:])
}
