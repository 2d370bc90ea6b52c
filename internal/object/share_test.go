package object

import (
	"bytes"
	"testing"
)

// sameArray reports whether two non-empty slices start at the same byte.
func sameArray(a, b []byte) bool { return len(a) > 0 && len(b) > 0 && &a[0] == &b[0] }

// Read and Clone share a payload array only while its object is IMMUTABLE;
// below it they copy. (Replication shares at every level, through Snapshot
// and the shared mark: FuzzPayloadHolders.)
func TestPayloadSharedOnlyWhileImmutable(t *testing.T) {
	for _, lvl := range Levels() {
		o := New(1, Regular)
		if _, err := o.WriteAt([]byte("frozen bytes"), 0); err != nil { // grows with spare capacity
			t.Fatal(err)
		}
		if err := o.SetMutability(lvl); err != nil {
			t.Fatal(err)
		}
		shared := lvl == Immutable
		r1, r2 := o.Read(), o.Read()
		c := o.Clone(2)
		rep := New(3, Regular)
		rep.ApplyState(r1, o.Version(), lvl)
		holders := map[string][]byte{"Read": r1, "Clone": c.data, "ApplyState": rep.data}
		for name, got := range holders {
			if string(got) != "frozen bytes" {
				t.Errorf("%v: %s holds %q", lvl, name, got)
			}
			if is := sameArray(got, o.data); is != shared {
				t.Errorf("%v: %s shares the payload array = %v, want %v", lvl, name, is, shared)
			}
		}
		if is := sameArray(r1, r2); is != shared {
			t.Errorf("%v: two Reads share = %v, want %v", lvl, is, shared)
		}
		if !shared {
			continue
		}
		// A view's capacity is clipped: an append reallocates instead of
		// writing into the frozen array's spare capacity.
		for name, got := range holders {
			if cap(got) != len(got) {
				t.Errorf("%s view has cap %d > len %d", name, cap(got), len(got))
			}
		}
		if grown := append(r1, '!'); sameArray(grown, o.data) {
			t.Error("append to a view wrote into the frozen array")
		}
	}
}

// Leaving IMMUTABLE (only ApplyState can) may keep the frozen array, but
// marked shared, so no later write reaches it; and it must not write
// through the shared one it held.
func TestApplyStateBelowImmutableIsPrivate(t *testing.T) {
	src := New(1, Regular)
	if err := src.SetData([]byte("lower layer")); err != nil {
		t.Fatal(err)
	}
	if err := src.SetMutability(Immutable); err != nil {
		t.Fatal(err)
	}
	view := src.Read()
	up := src.Clone(2) // shares, as union copy-up does before thawing
	up.ApplyState(src.Read(), src.Version(), Mutable)
	if sameArray(up.data, src.data) && up.shared < len(src.data) {
		t.Fatalf("thawed clone shares the frozen array past its mark (%d of %d bytes)", up.shared, len(src.data))
	}
	if err := up.SetData([]byte("UPPER LAYER")); err != nil {
		t.Fatal(err)
	}
	if _, err := up.WriteAt([]byte("xx"), 0); err != nil {
		t.Fatal(err)
	}
	if string(view) != "lower layer" || string(src.Read()) != "lower layer" {
		t.Errorf("frozen content changed: view %q, source %q", view, src.Read())
	}
	// The reverse direction: a replica that held a shared frozen array and is
	// overwritten wholesale leaves the other holders' bytes alone.
	rep := New(3, Regular)
	rep.ApplyState(view, 7, Immutable)
	rep.ApplyState([]byte("REPLACEMENT"), 8, Mutable)
	if string(view) != "lower layer" {
		t.Errorf("ApplyState wrote through a shared array: %q", view)
	}
}

// WriteAt grows in place; spare capacity can hold bytes a Truncate cut off,
// and a hole past the old EOF must read zero, never those bytes.
func TestWriteAtPastEOFAfterTruncateReadsZero(t *testing.T) {
	o := New(1, Regular)
	if err := o.SetData(bytes.Repeat([]byte{0xAA}, 64)); err != nil {
		t.Fatal(err)
	}
	if err := o.Truncate(8); err != nil {
		t.Fatal(err)
	}
	if _, err := o.WriteAt([]byte("xy"), 32); err != nil { // within the old capacity
		t.Fatal(err)
	}
	want := append(bytes.Repeat([]byte{0xAA}, 8), make([]byte, 24)...)
	want = append(want, 'x', 'y')
	if got := o.Read(); !bytes.Equal(got, want) {
		t.Errorf("after truncate + sparse write:\n got %v\nwant %v", got, want)
	}
	if _, err := o.WriteAt([]byte("z"), 200); err != nil { // beyond it
		t.Fatal(err)
	}
	got := o.Read()
	if len(got) != 201 || got[200] != 'z' || !bytes.Equal(got[34:200], make([]byte, 166)) {
		t.Errorf("hole past the old capacity is not zero: %v", got[34:])
	}
	// Truncate up after truncate down zero-fills too.
	if err := o.Truncate(4); err != nil {
		t.Fatal(err)
	}
	if err := o.Truncate(16); err != nil {
		t.Fatal(err)
	}
	if got := o.Read(); !bytes.Equal(got[4:], make([]byte, 12)) {
		t.Errorf("Truncate up exposed old bytes: %v", got)
	}
}

// Appending to a log does not recopy its prefix, and a repeated whole-object
// put reuses the object's own array.
func TestAppendAndSetDataReuseTheArray(t *testing.T) {
	o := New(1, Regular)
	if err := o.SetMutability(AppendOnly); err != nil {
		t.Fatal(err)
	}
	rec := bytes.Repeat([]byte("r"), 64)
	moves := 0
	for i := 0; i < 1024; i++ {
		var before *byte
		if len(o.data) > 0 {
			before = &o.data[0]
		}
		if err := o.Append(rec); err != nil {
			t.Fatal(err)
		}
		if before != nil && before != &o.data[0] {
			moves++
		}
	}
	if o.Size() != 1024*64 || moves > 40 {
		t.Errorf("1024 appends moved the log %d times (size %d); growth must be amortised", moves, o.Size())
	}

	p := New(2, Regular)
	big, small := bytes.Repeat([]byte("b"), 4096), []byte("small")
	if err := p.SetData(big); err != nil {
		t.Fatal(err)
	}
	if n := testing.AllocsPerRun(20, func() {
		_ = p.SetData(small)
		_ = p.SetData(big)
	}); n != 0 {
		t.Errorf("repeated SetData allocates %v times per run, want 0", n)
	}
	// Overlap-safe: putting back a sub-slice of the payload itself.
	if err := p.SetData(p.data[1:5]); err != nil || string(p.Read()) != "bbbb" {
		t.Errorf("SetData of an overlapping slice = %q, %v", p.Read(), err)
	}
	big[0] = 'X' // the caller's buffer stays the caller's
	if p.Read()[0] != 'b' {
		t.Error("SetData aliased the caller's buffer")
	}
}

// ShareData refuses exactly where SetData refuses, with the same error and
// no change to the object; where SetData copies, ShareData installs the
// caller's array capacity-clipped with every byte marked shared.
func TestShareDataRefusesWhereSetDataRefuses(t *testing.T) {
	for _, kind := range []Kind{Regular, Directory, FIFO} {
		for _, lvl := range Levels() {
			for _, size := range []int{4, 9} { // the current size, and a resize
				build := func() *Object {
					o := New(1, kind)
					if kind != Directory {
						if _, err := o.WriteAt([]byte("abcd"), 0); err != nil {
							t.Fatal(err)
						}
					}
					if err := o.SetMutability(lvl); err != nil {
						t.Fatal(err)
					}
					return o
				}
				copied, shared := build(), build()
				kept := make([]byte, size, size+8) // spare capacity the object must not reach
				copy(kept, bytes.Repeat([]byte{'n'}, size))
				setErr := copied.SetData(bytes.Repeat([]byte{'n'}, size))
				shareErr := shared.ShareData(kept)
				name := kind.String() + "/" + lvl.String()
				if (setErr == nil) != (shareErr == nil) || (setErr != nil && setErr.Error() != shareErr.Error()) {
					t.Errorf("%s, %d bytes: SetData = %v, ShareData = %v", name, size, setErr, shareErr)
				}
				if !bytes.Equal(copied.data, shared.data) || copied.Version() != shared.Version() {
					t.Errorf("%s, %d bytes: SetData left %q v%d, ShareData %q v%d",
						name, size, copied.data, copied.Version(), shared.data, shared.Version())
				}
				if held := sameArray(shared.data, kept); held != (shareErr == nil) {
					t.Errorf("%s, %d bytes: object holds the shared buffer = %v, want %v", name, size, held, shareErr == nil)
				}
				if shareErr == nil && (cap(shared.data) != size || shared.shared != size) {
					t.Errorf("%s, %d bytes: ShareData left cap %d and mark %d, want both %d",
						name, size, cap(shared.data), shared.shared, size)
				}
			}
		}
	}
}

// isZero reports whether every byte of b is zero.
func isZero(b []byte) bool {
	for _, c := range b {
		if c != 0 {
			return false
		}
	}
	return true
}

// An object holding the zero region (ShareData(Zeros(n))) holds it
// capacity-clipped with every byte marked shared, and copies before any
// write reaches it, so no verb changes Zeros.
func TestWritesLeaveZerosZero(t *testing.T) {
	const n = 64
	ones := bytes.Repeat([]byte{1}, 2*n)
	for _, w := range []struct {
		verb  string
		write func(o *Object) error
	}{
		{"WriteAt", func(o *Object) error { _, err := o.WriteAt(ones[:8], 4); return err }},
		{"Append", func(o *Object) error { return o.Append(ones[:8]) }},
		{"Truncate grow", func(o *Object) error {
			if err := o.Truncate(2 * n); err != nil {
				return err
			}
			_, err := o.WriteAt(ones, 0)
			return err
		}},
		{"Truncate shrink", func(o *Object) error {
			if err := o.Truncate(n / 2); err != nil {
				return err
			}
			return o.Append(ones[:8])
		}},
		{"SetData", func(o *Object) error { return o.SetData(ones[:n/2]) }},
		{"ApplyState", func(o *Object) error {
			o.ApplyState(ones[:n], 9, Mutable)
			_, err := o.WriteAt(ones[:8], 0)
			return err
		}},
	} {
		o := New(1, Regular)
		if err := o.ShareData(Zeros(n)); err != nil {
			t.Fatal(err)
		}
		if !sameArray(o.data, zeros[:]) || cap(o.data) != n || o.shared != n {
			t.Fatalf("ShareData(Zeros(%d)) left cap %d and mark %d, want the region with both %d", n, cap(o.data), o.shared, n)
		}
		if err := w.write(o); err != nil {
			t.Errorf("%s: %v", w.verb, err)
		}
		if !isZero(zeros[:]) {
			t.Fatalf("%s on an object holding Zeros(%d) wrote into the zero region", w.verb, n)
		}
	}
}
