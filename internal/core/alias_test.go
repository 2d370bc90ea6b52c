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
	"repro/internal/fault"
	"repro/internal/fncache"
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
	views  []heldView // every View and ViewAt result, at every level
	seen   seenShared
	shared []byte // the one buffer put_shared puts, into every case of a seed
}

// heldView is a View or ViewAt result and what it read when it was taken.
type heldView struct {
	got, want []byte
	what      string
}

func (ac *aliasCase) fail(format string, args ...any) {
	ac.t.Helper()
	ac.t.Errorf("%s: %s", ac.name, fmt.Sprintf(format, args...))
}

// settle runs anti-entropy to a fixed point, so eventual replicas agree
// before the next step reads or builds on them.
func (ac *aliasCase) settle() { ac.c.Group().SyncAll() }

// write performs one write verb with a buffer it then scribbles on — except
// after put_owned, which hands the buffer to the object, so the test never
// touches it again, and put_shared, which puts ac.shared itself (data is
// unused); the model follows the verb's own verdict.
func (ac *aliasCase) write(verb string, data []byte, off int64) error {
	buf := append([]byte(nil), data...)
	var err error
	switch verb {
	case "put":
		if err = ac.a.Put(ac.p, ac.ref, buf); err == nil {
			ac.model = append([]byte(nil), data...)
		}
	case "put_owned":
		if err = ac.a.PutOwned(ac.p, ac.ref, buf); err == nil {
			ac.model = append([]byte(nil), data...)
		}
		buf = nil // handed over: never touched again
	case "put_shared":
		if err = ac.a.PutShared(ac.p, ac.ref, ac.shared); err == nil {
			ac.model = append([]byte(nil), ac.shared...)
		}
		buf = nil // ac.shared is never written
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
// compares with the model. Below IMMUTABLE every Get, GetAt and ReadAt result
// is scribbled on (the next check proves that was harmless); at IMMUTABLE
// they are views, kept in ac.frozen and re-verified by every later check.
// View and ViewAt results are views at every level: each must equal what
// Get returned at the same instant, and is kept in ac.views, never to change.
func (ac *aliasCase) check(step string, immutable bool) {
	ac.t.Helper()
	ac.markedShares(step)
	for _, v := range ac.frozen {
		if !bytes.Equal(v, ac.model) {
			ac.fail("after %s: a view handed out earlier changed to %q, want %q", step, v, ac.model)
		}
	}
	for _, v := range ac.views {
		if !bytes.Equal(v.got, v.want) {
			ac.fail("after %s: %s changed to %q, want %q", step, v.what, v.got, v.want)
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
		for _, v := range []struct {
			name string
			read func() ([]byte, error)
		}{
			{"View", func() ([]byte, error) { return cl.View(ac.p, ac.ref) }},
			{"ViewAt", func() ([]byte, error) { return cl.ViewAt(ac.p, ac.ref, ac.ref.Level()) }},
		} {
			var hits int64
			if fc := ac.c.fncache; fc != nil {
				hits = fc.Hits.Value()
			}
			view, err := v.read()
			if fc := ac.c.fncache; fc != nil && v.name == "View" && !immutable && fc.Hits.Value() != hits+1 {
				ac.fail("after %s: View #%d was not served from the lease the Get before it filled", step, i)
			}
			if err != nil || !bytes.Equal(view, got) || cap(view) != len(view) {
				ac.fail("after %s: %s #%d = %q (cap %d), %v; want %q, capacity-clipped", step, v.name, i, view, cap(view), err, got)
				continue
			}
			ac.views = append(ac.views, heldView{view, bytes.Clone(view), fmt.Sprintf("a %s #%d taken after %s", v.name, i, step)})
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

// markedShares asserts the shared-prefix rule over the whole cloud.
func (ac *aliasCase) markedShares(step string) {
	ac.t.Helper()
	for _, s := range ac.c.sharedPastMark(ac.seen) {
		ac.fail("after %s: a payload array is shared past a writer's mark: %s", step, s)
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
	if err := ac.write("put_owned", payload(1+rng.Intn(64)), 0); err != nil {
		ac.fail("put_owned: %v", err)
		return
	}
	ac.check("put_owned", false)
	if err := ac.write("put_shared", nil, 0); err != nil {
		ac.fail("put_shared: %v", err)
		return
	}
	ac.check("put_shared", false)
	// An overwrite inside the shared bytes, the one write a holder could
	// make in place.
	off := rng.Intn(len(ac.model))
	if err := ac.write("write_at", payload(1+rng.Intn(len(ac.model)-off)), int64(off)); err != nil {
		ac.fail("write_at inside the shared bytes: %v", err)
		return
	}
	ac.check("write_at inside the shared bytes", false)
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
		{"put_owned", payload(len(ac.model)), 0},
		{"put_shared", nil, 0},
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
	ac.markedShares("the last Drop")
	for _, v := range ac.frozen {
		if !bytes.Equal(v, ac.model) {
			ac.fail("a view changed after the last Drop: %q, want %q", v, ac.model)
		}
	}
	for _, v := range ac.views {
		if !bytes.Equal(v.got, v.want) {
			ac.fail("after the last Drop: %s changed to %q, want %q", v.what, v.got, v.want)
		}
	}
}

// Property: for every mutability level and every storage flavour, buffers
// passed to Put/Append/WriteAt and (below IMMUTABLE) slices returned by
// Get/GetAt/ReadAt are never the object's content, and IMMUTABLE content is
// shared as capacity-clipped views that no later operation changes; so is
// every View/ViewAt result, at every level — on the "leased" flavour
// (a linearizable object on a cloud with the function cache on) served from
// the lease cache once the first Get filled it. A buffer
// handed over with PutOwned becomes the content of one object only; one
// buffer put with PutShared becomes the content of every object of a seed,
// each then written, and stays byte-for-byte what it was. After every step
// no holder below IMMUTABLE may write bytes another holder of its array sees
// (sharedPastMark). Run it under -race: the engine's processes are
// goroutines.
func TestPayloadAliasingProperty(t *testing.T) {
	flavours := []struct {
		name string
		opts []CreateOpt
	}{
		{"ephemeral", []CreateOpt{WithEphemeral()}},
		{"linearizable", []CreateOpt{WithConsistency(consistency.Linearizable)}},
		{"eventual", []CreateOpt{WithConsistency(consistency.Eventual)}},
		{"leased", []CreateOpt{WithConsistency(consistency.Linearizable)}},
	}
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		leasedOpts := testOptions(seed)
		leasedOpts.FnCache = &fncache.Config{}
		plain, leased := testCloud(seed), New(leasedOpts)
		n := 1 + rng.Intn(64)
		shared := make([]byte, n, n+64) // spare capacity no holder may append into
		rng.Read(shared)
		sharedWant := bytes.Clone(shared)
		for _, c := range []*Cloud{plain, leased} {
			a, b := c.NewClient(0), c.NewClient(1)
			run(t, c, func(p *sim.Proc) {
				for _, fl := range flavours {
					if (fl.name == "leased") != (c == leased) {
						continue
					}
					for _, lvl := range object.Levels() {
						ref, err := a.Create(p, object.Regular, fl.opts...)
						if err != nil {
							t.Errorf("%s: create: %v", fl.name, err)
							continue
						}
						ac := &aliasCase{t: t, c: c, p: p, a: a, b: b, ref: ref, seen: seenShared{}, shared: shared,
							name: fmt.Sprintf("seed %d %s/%v", seed, fl.name, lvl)}
						ac.run(lvl, fl.name != "ephemeral", rng)
					}
				}
			})
		}
		if hits := leased.FnCache().Hits.Value(); hits == 0 {
			t.Errorf("seed %d: the leased flavour never hit the lease cache", seed)
		}
		if !bytes.Equal(shared, sharedWant) {
			t.Errorf("seed %d: the buffer put with PutShared changed to %q, want %q", seed, shared, sharedWant)
		}
		return !t.Failed()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 6, Rand: rand.New(rand.NewSource(1))}); err != nil {
		t.Fatal(err)
	}
}

// TestPutOwnedRetriedUnderFaults hands buffers over through a retrying client
// while half the attempts fail, on both replicated flavours. A retry that
// re-ran a mutate which had already taken the buffer — possible only if
// Group.Apply could fail after its mutate succeeded — would leave the array
// with two replicas below IMMUTABLE and neither marking it shared, which the
// shared-prefix oracle reports.
func TestPutOwnedRetriedUnderFaults(t *testing.T) {
	for _, lvl := range []consistency.Level{consistency.Linearizable, consistency.Eventual} {
		opts := DefaultOptions()
		opts.Retry = &fault.Policy{MaxAttempts: 8}
		c := New(opts)
		a, b := c.NewClient(0), c.NewClient(1)
		run(t, c, func(p *sim.Proc) {
			ref, err := a.Create(p, object.Regular, WithConsistency(lvl))
			if err != nil {
				t.Error(err)
				return
			}
			c.inj = fault.NewSession(fault.Spec{Rates: fault.Rates{OpError: 0.5}}).Attach(c.env)
			var want []byte
			seen := seenShared{}
			for i := 0; i < 40; i++ {
				buf := bytes.Repeat([]byte{byte(i)}, 1+i)
				if err := a.PutOwned(p, ref, buf); err == nil {
					want = bytes.Repeat([]byte{byte(i)}, 1+i)
				}
				c.Group().SyncAll()
				for _, s := range c.sharedPastMark(seen) {
					t.Errorf("%v, put %d: a payload array is shared past a writer's mark: %s", lvl, i, s)
				}
			}
			c.inj = nil
			if got, err := b.Get(p, ref); err != nil || !bytes.Equal(got, want) {
				t.Errorf("%v: Get = %q, %v; want %q", lvl, got, err, want)
			}
		})
		if c.RetryAttempts == 0 {
			t.Errorf("%v: no attempt was retried; the test exercised nothing", lvl)
		}
	}
}

// TestPutSharedRetriedUnderFaults puts one buffer into 40 objects through a
// retrying client while half the attempts fail, on both replicated flavours,
// then writes each object. However often an attempt is re-run, no holder may
// write the shared bytes (sharedPastMark), and the buffer stays unchanged.
func TestPutSharedRetriedUnderFaults(t *testing.T) {
	shared := bytes.Repeat([]byte("shared "), 9)
	for _, lvl := range []consistency.Level{consistency.Linearizable, consistency.Eventual} {
		opts := DefaultOptions()
		opts.Retry = &fault.Policy{MaxAttempts: 8}
		c := New(opts)
		a, b := c.NewClient(0), c.NewClient(1)
		run(t, c, func(p *sim.Proc) {
			seen, landed := seenShared{}, 0
			refs := make([]Ref, 40)
			want := make([][]byte, len(refs))
			for i := range refs {
				ref, err := a.Create(p, object.Regular, WithConsistency(lvl))
				if err != nil {
					t.Error(err)
					return
				}
				refs[i] = ref
			}
			c.inj = fault.NewSession(fault.Spec{Rates: fault.Rates{OpError: 0.5}}).Attach(c.env)
			for i, ref := range refs {
				if err := a.PutShared(p, ref, shared); err == nil {
					want[i] = bytes.Clone(shared)
					landed++
				}
				c.Group().SyncAll() // an eventual append from b must follow the put
				tail := []byte{byte(i)}
				if err := b.Append(p, ref, tail); err == nil {
					want[i] = append(want[i], tail...)
				}
				c.Group().SyncAll()
				for _, s := range c.sharedPastMark(seen) {
					t.Errorf("%v, object %d: a payload array is shared past a writer's mark: %s", lvl, i, s)
				}
			}
			c.inj = nil
			if landed == 0 {
				t.Errorf("%v: no put landed; the test exercised nothing", lvl)
			}
			for i, ref := range refs {
				if got, err := b.Get(p, ref); err != nil || !bytes.Equal(got, want[i]) {
					t.Errorf("%v, object %d: Get = %q, %v; want %q", lvl, i, got, err, want[i])
				}
			}
		})
		if c.RetryAttempts == 0 {
			t.Errorf("%v: no attempt was retried; the test exercised nothing", lvl)
		}
	}
	if want := bytes.Repeat([]byte("shared "), 9); !bytes.Equal(shared, want) {
		t.Errorf("the buffer put with PutShared changed to %q", shared)
	}
}
