package object

import (
	"bytes"
	"testing"
)

// sameArray reports whether two non-empty slices start at the same byte.
func sameArray(a, b []byte) bool { return len(a) > 0 && len(b) > 0 && &a[0] == &b[0] }

// The invariant behind every copy this package skips: a payload array has
// more than one holder only while its object is IMMUTABLE.
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

// Leaving IMMUTABLE (only ApplyState can) installs a private array and must
// not write through the shared one it held.
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
	if sameArray(up.data, src.data) {
		t.Fatal("thawed clone still shares the frozen array")
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
