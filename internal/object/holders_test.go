package object_test

import (
	"bytes"
	"testing"

	"repro/internal/object"
)

// holders drives three objects and keeps, beside them, what each must hold
// as a plain []byte per holder, updated by slice operations that share no
// code with the object package. views are the bytes handed out so far that
// must never change: every Snapshot, and every Read taken at IMMUTABLE.
// shared is the one buffer ShareData puts into any holder, which no holder
// may ever write; sharedWant is its content.
type holders struct {
	objs       [3]*object.Object
	want       [3][]byte
	views      []view
	shared     []byte
	sharedWant []byte
	fill       byte
}

type view struct {
	step      int
	got, want []byte
}

// fresh returns n new bytes that differ from every earlier step's.
func (h *holders) fresh(n int) []byte {
	h.fill++
	b := make([]byte, n)
	for i := range b {
		b[i] = h.fill + byte(i)
	}
	return b
}

func (h *holders) keep(step int, got []byte) {
	if len(h.views) == 32 {
		h.views = h.views[1:]
	}
	h.views = append(h.views, view{step, got, bytes.Clone(got)})
}

// scribble changes every byte of a buffer the caller still owns.
func scribble(b []byte) {
	for i := range b {
		b[i] ^= 0xFF
	}
}

// step decodes one 4-byte instruction (op, holder, a, b) and runs it on the
// object, updating the model by the object's own verdict.
func (h *holders) step(i int, s []byte) {
	x, a, b := int(s[1])%3, int(s[2]), int(s[3])
	o, want := h.objs[x], h.want[x]
	levels := object.Levels()
	switch s[0] % 8 {
	case 0: // WriteAt, possibly past EOF
		off, buf := a%(len(want)+32), h.fresh(1+b%24)
		if _, err := o.WriteAt(buf, int64(off)); err == nil {
			if end := off + len(buf); end > len(want) {
				want = append(want, make([]byte, end-len(want))...)
			}
			copy(want[off:], buf)
		}
		scribble(buf)
	case 1: // Append
		buf := h.fresh(1 + a%24)
		if err := o.Append(buf); err == nil {
			want = append(want, buf...)
		}
		scribble(buf)
	case 2: // SetData copies
		buf := h.fresh(a % 40)
		if err := o.SetData(buf); err == nil {
			want = bytes.Clone(buf)
		}
		scribble(buf)
	case 3: // Truncate, either way
		n := a % (len(want) + 9)
		if err := o.Truncate(int64(n)); err == nil {
			if n <= len(want) {
				want = want[:n:n]
			} else {
				want = append(want, make([]byte, n-len(want))...)
			}
		}
	case 4:
		_ = o.SetMutability(levels[a%4])
	case 5: // replicate x to holder a (itself too), at x's level or another
		dst, mut := a%3, o.Mutability()
		if b%5 < 4 {
			mut = levels[b%5] // a thaw, like union copy-up
		}
		snap := o.Snapshot()
		h.keep(i, snap)
		h.objs[dst].ApplyState(snap, o.Version(), mut)
		h.want[dst] = bytes.Clone(want)
	case 6:
		if r := o.Read(); o.Mutability() == object.Immutable {
			h.keep(i, r)
		} else {
			scribble(r)
		}
	case 7: // ShareData puts a prefix of the one shared buffer
		if h.shared == nil {
			h.shared = h.fresh(40)
			h.sharedWant = bytes.Clone(h.shared)
		}
		buf := h.shared[:a%(len(h.shared)+1)]
		if err := o.ShareData(buf); err == nil {
			want = bytes.Clone(buf)
		}
	}
	h.want[x] = want
}

func (h *holders) check(t *testing.T, i int) {
	t.Helper()
	for x, o := range h.objs {
		if got := o.Read(); !bytes.Equal(got, h.want[x]) {
			t.Fatalf("after step %d: holder %d reads %v, want %v", i, x, got, h.want[x])
		}
	}
	for _, v := range h.views {
		if !bytes.Equal(v.got, v.want) {
			t.Fatalf("after step %d: the view handed out at step %d changed to %v, want %v", i, v.step, v.got, v.want)
		}
	}
	if !bytes.Equal(h.shared, h.sharedWant) {
		t.Fatalf("after step %d: the buffer shared with ShareData changed to %v, want %v", i, h.shared, h.sharedWant)
	}
}

// FuzzPayloadHolders runs random WriteAt, Append, SetData, Truncate,
// SetMutability, Snapshot→ApplyState, Read and ShareData steps over three
// holders and, after every step, compares each holder's Read, every view
// handed out so far, and the one buffer ShareData shares, with the plain
// model. The seeds are the shared-prefix rule's known breaks: a write below
// the mark that skips the copy, a Snapshot that does not raise the mark, a
// write into the zeroed hole past a truncated EOF, a SetData that writes
// through a shared array, and one buffer shared by two holders that both
// write.
func FuzzPayloadHolders(f *testing.F) {
	for _, seed := range [][]byte{
		{1, 0, 8, 0, 5, 0, 1, 4, 0, 0, 0, 3},                                        // append, replicate 0→1, overwrite at 0
		{2, 0, 16, 0, 5, 0, 1, 4, 2, 0, 16, 0},                                      // put, replicate 0→1, put again
		{1, 0, 8, 0, 5, 0, 1, 4, 3, 0, 2, 0, 0, 0, 12, 0, 1, 0, 3, 0},               // replicate, truncate, write past EOF, append
		{7, 0, 16, 0, 2, 0, 16, 0},                                                  // share on 0, put the same size on 0
		{1, 0, 8, 0, 4, 0, 3, 0, 6, 0, 0, 0, 5, 0, 1, 0, 0, 1, 0, 3},                // freeze, view, thaw into 1, overwrite 1
		{7, 0, 16, 0, 7, 1, 24, 0, 0, 0, 0, 3, 1, 1, 4, 0, 3, 0, 8, 0, 0, 0, 10, 3}, // share on 0 and 1, overwrite 0, append 1, truncate 0, write past EOF
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, prog []byte) {
		h := &holders{}
		for x := range h.objs {
			h.objs[x] = object.New(object.ID(x+1), object.Regular)
		}
		for i := 0; i+4 <= len(prog) && i < 4*64; i += 4 {
			h.step(i/4, prog[i:i+4])
			h.check(t, i/4)
		}
	})
}
