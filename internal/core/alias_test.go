package core

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/capability"
	"repro/internal/consistency"
	"repro/internal/object"
	"repro/internal/sim"
)

// scribble changes every byte of b. It is not an involution: scribbling
// twice on two aliases of one array does not restore it.
func scribble(b []byte) {
	for i := range b {
		b[i]++
	}
}

// aliasCase drives one object of one flavour to one mutability level and
// checks, at every step, that no buffer a caller passed in or got back is
// the object's content — except the read-only views of IMMUTABLE content,
// which must never change.
type aliasCase struct {
	t      *testing.T
	c      *Cloud
	p      *sim.Proc
	a, b   *Client // two nodes
	ref    Ref
	name   string
	model  []byte // what the object must hold
	frozen [][]byte
}

func (ac *aliasCase) fail(format string, args ...any) {
	ac.t.Helper()
	ac.t.Errorf("%s: %s", ac.name, fmt.Sprintf(format, args...))
}

// settle runs anti-entropy to a fixed point, so eventual replicas agree
// before the next step reads or builds on them.
func (ac *aliasCase) settle() { ac.c.Group().SyncAll() }

// write performs one write verb with a buffer it then scribbles on; the
// model follows the verb's own verdict.
func (ac *aliasCase) write(verb string, data []byte, off int64) error {
	buf := append([]byte(nil), data...)
	var err error
	switch verb {
	case "put":
		if err = ac.a.Put(ac.p, ac.ref, buf); err == nil {
			ac.model = append([]byte(nil), data...)
		}
	case "append":
		if err = ac.b.Append(ac.p, ac.ref, buf); err == nil {
			ac.model = append(ac.model, data...)
		}
	case "write_at":
		if err = ac.b.WriteAt(ac.p, ac.ref, buf, off); err == nil {
			if end := int(off) + len(data); end > len(ac.model) {
				ac.model = append(ac.model, make([]byte, end-len(ac.model))...)
			}
			copy(ac.model[off:], data)
		}
	}
	scribble(buf)
	ac.settle()
	return err
}

// check reads the object every way the API offers, from both nodes, and
// compares with the model. Below IMMUTABLE every result is scribbled on
// (the next check proves that was harmless); at IMMUTABLE the results are
// views, kept in ac.frozen and re-verified by every later check.
func (ac *aliasCase) check(step string, immutable bool) {
	ac.t.Helper()
	for _, v := range ac.frozen {
		if !bytes.Equal(v, ac.model) {
			ac.fail("after %s: a view handed out earlier changed to %q, want %q", step, v, ac.model)
		}
	}
	for i, cl := range []*Client{ac.a, ac.b, ac.a, ac.b} { // second round: cache hits
		got, err := cl.Get(ac.p, ac.ref)
		if err != nil || !bytes.Equal(got, ac.model) {
			ac.fail("after %s: Get #%d = %q, %v; want %q", step, i, got, err, ac.model)
			continue
		}
		at, err := cl.GetAt(ac.p, ac.ref, ac.ref.Level())
		if err != nil || !bytes.Equal(at, ac.model) {
			ac.fail("after %s: GetAt #%d = %q, %v; want %q", step, i, at, err, ac.model)
			continue
		}
		if immutable {
			if cap(got) != len(got) || cap(at) != len(at) {
				ac.fail("after %s: frozen view with spare capacity (Get %d/%d, GetAt %d/%d)",
					step, len(got), cap(got), len(at), cap(at))
			}
			ac.frozen = append(ac.frozen, got, at)
		} else {
			scribble(got)
			scribble(at)
		}
		// ReadAt fills a buffer of the caller's: always private.
		off := len(ac.model) / 3
		part, err := cl.ReadAt(ac.p, ac.ref, int64(off), len(ac.model))
		if err != nil || !bytes.Equal(part, ac.model[off:]) {
			ac.fail("after %s: ReadAt #%d = %q, %v; want %q", step, i, part, err, ac.model[off:])
		}
		scribble(part)
	}
}

func (ac *aliasCase) run(lvl object.Mutability, bindable bool, rng *rand.Rand) {
	payload := func(n int) []byte {
		b := make([]byte, n)
		rng.Read(b)
		return b
	}
	// MUTABLE: every verb is allowed.
	if err := ac.write("put", payload(1+rng.Intn(64)), 0); err != nil {
		ac.fail("put: %v", err)
		return
	}
	ac.check("put", false)
	if err := ac.write("append", payload(1+rng.Intn(64)), 0); err != nil {
		ac.fail("append: %v", err)
		return
	}
	ac.check("append", false)
	if err := ac.write("write_at", payload(1+rng.Intn(64)), int64(rng.Intn(len(ac.model)+8))); err != nil {
		ac.fail("write_at: %v", err)
		return
	}
	ac.check("write_at", false)

	// A copy obtained while the object was still MUTABLE stays the caller's
	// after the freeze (which may promote the node's cached copy).
	held, err := ac.a.Get(ac.p, ac.ref)
	if err != nil {
		ac.fail("get before freeze: %v", err)
		return
	}
	if err := ac.a.Freeze(ac.p, ac.ref, lvl); err != nil {
		ac.fail("freeze to %v: %v", lvl, err)
		return
	}
	ac.settle()
	scribble(held)
	immutable := lvl == object.Immutable
	ac.check("freeze", immutable)
	// At the level: some verbs are refused, and a refusal changes nothing.
	for _, w := range []struct {
		verb string
		data []byte
		off  int64
	}{
		{"put", payload(len(ac.model)), 0}, // same size: FIXED_SIZE accepts it
		{"append", payload(1 + rng.Intn(16)), 0},
		{"write_at", payload(1), int64(rng.Intn(len(ac.model)))},
		{"write_at", payload(3), int64(len(ac.model))}, // at EOF: APPEND_ONLY accepts it
	} {
		err := ac.write(w.verb, w.data, w.off)
		if immutable && !errors.Is(err, object.ErrImmutable) {
			ac.fail("%s on IMMUTABLE = %v, want ErrImmutable", w.verb, err)
		}
		ac.check(w.verb+" at "+lvl.String(), immutable)
	}
	if !immutable {
		return
	}

	// Another reference comes and goes.
	second, err := ac.a.Attenuate(ac.ref, capability.Read)
	if err != nil {
		ac.fail("attenuate: %v", err)
		return
	}
	if got, err := ac.b.Get(ac.p, second); err != nil || !bytes.Equal(got, ac.model) {
		ac.fail("Get through a second reference = %q, %v", got, err)
	} else {
		ac.frozen = append(ac.frozen, got)
	}
	ac.b.Drop(second)
	ac.check("drop of another reference", true)
	ac.settle()
	ac.check("anti-entropy", true)

	// Copy-up through a union namespace thaws a clone; writing the clone
	// must leave the frozen original and every view of it alone.
	if bindable {
		base, _, err := ac.a.NewNamespace(ac.p)
		if err == nil {
			err = base.Bind(ac.p, ac.a, "data/blob", ac.ref)
		}
		var upper *NS
		if err == nil {
			upper, _, err = ac.a.Union(ac.p, base)
		}
		var up Ref
		if err == nil {
			up, err = upper.Open(ac.p, ac.a, "data/blob", capability.Read|capability.Write)
		}
		if err != nil {
			ac.fail("union copy-up: %v", err)
			return
		}
		if up.ObjectID() == ac.ref.ObjectID() {
			ac.fail("open-for-write through a union did not copy up")
		}
		if got, err := ac.b.Get(ac.p, up); err != nil || !bytes.Equal(got, ac.model) {
			ac.fail("copy-up content = %q, %v; want %q", got, err, ac.model)
		}
		over := bytes.Repeat([]byte{'U'}, len(ac.model))
		if err := ac.b.WriteAt(ac.p, up, over[:1], 0); err != nil {
			ac.fail("write_at on the copy-up: %v", err)
		}
		if err := ac.a.Put(ac.p, up, over); err != nil {
			ac.fail("put on the copy-up: %v", err)
		}
		if got, err := ac.b.Get(ac.p, up); err != nil || !bytes.Equal(got, over) {
			ac.fail("copy-up after write = %q, %v; want %q", got, err, over)
		}
		ac.check("copy-up and write through a union", true)
	}

	// The views outlive the last reference.
	ac.a.Drop(ac.ref)
	for _, v := range ac.frozen {
		if !bytes.Equal(v, ac.model) {
			ac.fail("a view changed after the last Drop: %q, want %q", v, ac.model)
		}
	}
}

// Property: for every mutability level and every storage flavour, buffers
// passed to Put/Append/WriteAt and (below IMMUTABLE) slices returned by
// Get/GetAt/ReadAt are never the object's content, and IMMUTABLE content is
// shared as capacity-clipped views that no later operation changes. Run it
// under -race: the engine's processes are goroutines.
func TestPayloadAliasingProperty(t *testing.T) {
	flavours := []struct {
		name string
		opts []CreateOpt
	}{
		{"ephemeral", []CreateOpt{WithEphemeral()}},
		{"linearizable", []CreateOpt{WithConsistency(consistency.Linearizable)}},
		{"eventual", []CreateOpt{WithConsistency(consistency.Eventual)}},
	}
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		c := testCloud(seed)
		a, b := c.NewClient(0), c.NewClient(1)
		run(t, c, func(p *sim.Proc) {
			for _, fl := range flavours {
				for _, lvl := range object.Levels() {
					ref, err := a.Create(p, object.Regular, fl.opts...)
					if err != nil {
						t.Errorf("%s: create: %v", fl.name, err)
						continue
					}
					ac := &aliasCase{t: t, c: c, p: p, a: a, b: b, ref: ref,
						name: fmt.Sprintf("seed %d %s/%v", seed, fl.name, lvl)}
					ac.run(lvl, fl.name != "ephemeral", rng)
				}
			}
		})
		return !t.Failed()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 6, Rand: rand.New(rand.NewSource(1))}); err != nil {
		t.Fatal(err)
	}
}
