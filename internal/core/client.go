package core

import (
	"fmt"

	"repro/internal/capability"
	"repro/internal/consistency"
	"repro/internal/fncache"
	"repro/internal/media"
	"repro/internal/object"
	"repro/internal/sim"
	"repro/internal/simnet"
	"repro/internal/trace"
)

// Client is a PCSI session bound to an origin node. All data operations
// are charged the network and media costs of that origin, and validated
// against the capability each call presents — a stateful, reference-based
// protocol (§3.2: "references make the PCSI API stateful").
type Client struct {
	c    *Cloud
	node simnet.NodeID
}

// NewClient returns a client homed on a fresh node in the given rack.
func (c *Cloud) NewClient(rack int) *Client {
	return &Client{c: c, node: c.net.AddNode(rack)}
}

// Node returns the client's origin node.
func (cl *Client) Node() simnet.NodeID { return cl.node }

// Cloud returns the owning deployment.
func (cl *Client) Cloud() *Cloud { return cl.c }

// CreateOpt mutates creation parameters.
type CreateOpt func(*createParams)

type createParams struct {
	lvl       consistency.Level
	mut       object.Mutability
	ephemeral bool
}

// WithConsistency sets the object's default consistency level.
func WithConsistency(l consistency.Level) CreateOpt {
	return func(p *createParams) { p.lvl = l }
}

// WithMutability sets the object's initial mutability level.
func WithMutability(m object.Mutability) CreateOpt {
	return func(p *createParams) { p.mut = m }
}

// check validates the reference's rights; this is the single, local
// capability check that replaces REST's per-request re-authentication.
// Traced runs record each check as an instant event on the capability
// track — the check itself costs zero virtual time, which is the point.
func (cl *Client) check(r Ref, need capability.Rights) error {
	err := cl.checkErr(r, need)
	if t := trace.Of(cl.c.env); t != nil {
		attrs := []trace.Attr{
			trace.Int("obj", int64(r.cap.Object())),
			trace.Str("need", need.String()),
		}
		if err != nil {
			attrs = append(attrs, trace.Str("denied", err.Error()))
		}
		t.Instant("capability", "cap", "check", attrs...)
	}
	return err
}

func (cl *Client) checkErr(r Ref, need capability.Rights) error {
	if !r.Valid() {
		return ErrInvalidRef
	}
	if err := cl.c.caps.Check(r.cap, need); err != nil {
		return fmt.Errorf("core: %w", err)
	}
	return nil
}

// observe records a data operation's latency.
func (cl *Client) observe(p *sim.Proc, start sim.Time) {
	cl.c.DataLat.Observe(p.Now().Sub(start))
}

// Create makes a new object and returns a full-rights reference to it.
func (cl *Client) Create(p *sim.Proc, kind object.Kind, opts ...CreateOpt) (Ref, error) {
	params := createParams{lvl: consistency.Linearizable, mut: object.Mutable}
	for _, o := range opts {
		o(&params)
	}
	var id object.ID
	err := cl.run(p, Ref{}, verbCreate, func(t target) error {
		start := p.Now()
		if params.ephemeral {
			id = cl.c.newEphem(cl.node, kind)
			if params.mut != object.Mutable {
				if err := cl.c.ephem[id].obj.SetMutability(params.mut); err != nil {
					return err
				}
			}
			p.Sleep(media.DRAM.WriteLatency)
		} else {
			err := t.retry(func() error {
				var cerr error
				id, cerr = cl.c.grp.Create(p, cl.node, kind)
				return cerr
			})
			if err != nil {
				return err
			}
			if params.mut != object.Mutable {
				err = cl.c.grp.Apply(p, cl.node, id, consistency.Linearizable, 0, func(o *object.Object) error {
					return o.SetMutability(params.mut)
				})
				if err != nil {
					return err
				}
			}
		}
		cl.observe(p, start)
		return nil
	})
	if err != nil {
		return Ref{}, err
	}
	return Ref{cap: cl.c.caps.Mint(id, capability.All), lvl: params.lvl}, nil
}

// Put replaces an object's payload with a copy of data, which stays the
// caller's. The writer's node keeps no copy of it, only the version the
// write produced (cacheEntry.mark).
func (cl *Client) Put(p *sim.Proc, r Ref, data []byte) error {
	return cl.put(p, r, data, (*object.Object).SetData)
}

// PutOwned is Put without the ingress copy: the object takes data itself
// (object.TakeData). data must be the caller's own array, not a view
// returned by Get, and the caller must neither read nor write it
// afterwards. It is the same verb as Put: the same span, fault op, rights,
// admission, coherence write and virtual-time charges.
func (cl *Client) PutOwned(p *sim.Proc, r Ref, data []byte) error {
	return cl.put(p, r, data, (*object.Object).TakeData)
}

// PutShared is Put without the ingress copy for a buffer the caller keeps
// reading: the object installs data as shared (object.ShareData) and copies
// before it ever writes into it, so one buffer may be put into any number
// of objects. Nobody may write data afterwards. It is the same verb as Put.
func (cl *Client) PutShared(p *sim.Proc, r Ref, data []byte) error {
	return cl.put(p, r, data, (*object.Object).ShareData)
}

// put is Put's body; set is the object method that installs data.
func (cl *Client) put(p *sim.Proc, r Ref, data []byte, set func(*object.Object, []byte) error) error {
	return cl.run(p, r, verbPut, func(t target) error {
		t.sp.Annotate(trace.Int("bytes", int64(len(data))))
		if t.e != nil {
			// Whole-object writes migrate the single copy to the writer: data
			// lives where it was produced, so a co-scheduled consumer reads it
			// locally (§4.1).
			t.e.owner = cl.node
		}
		var ver uint64
		err := t.apply(r.lvl, len(data), func(o *object.Object) error {
			// A retried apply runs this again only after it failed, so a taken
			// buffer is taken once (Group.Apply); the run that succeeds is last.
			err := set(o, data)
			ver = o.Version()
			return err
		})
		if err == nil && t.e == nil {
			cl.c.caches[cacheKey{cl.node, t.id}] = cacheEntry{mark: ver}
		}
		return err
	})
}

// Get returns an object's full payload. Reads of frozen objects whose
// content is cached on the client's node are served locally without
// touching the network — logical disaggregation without physical
// disaggregation (§4.1). The payload of an IMMUTABLE object comes back as a
// read-only view of the frozen bytes (object.Read), shared with the store,
// the node cache and every other reader: the caller must not write into it.
// Below IMMUTABLE the result is the caller's own copy.
func (cl *Client) Get(p *sim.Proc, r Ref) ([]byte, error) { return cl.get(p, r, takeCopy) }

// View is Get without the copy below IMMUTABLE: the payload comes back as
// a read-only view at every level (object.Snapshot), which later writes to
// the object never change — they copy first. The caller must not write
// into it. It is the same verb as Get: the same rights, fault op, span,
// admission, lease and node-cache logic, virtual-time charges and
// BytesMoved.
func (cl *Client) View(p *sim.Proc, r Ref) ([]byte, error) { return cl.get(p, r, takeView) }

// get is Get's and View's body; how says what the caller is handed.
func (cl *Client) get(p *sim.Proc, r Ref, how take) ([]byte, error) {
	var data []byte
	err := cl.run(p, r, verbGet, func(t target) (err error) {
		fc := cl.c.fncache
		leased := t.e == nil && fc != nil && r.lvl == consistency.Linearizable
		var epochAtRead uint64
		if t.e == nil {
			var hit bool
			if data, hit = cl.cachedGet(t, leased, how); hit {
				return nil
			}
			if leased {
				epochAtRead = fc.Epoch(fncache.Key(t.id))
				if how == takeCopy {
					how = takeCopyLend
				}
			}
		}
		var lent []byte
		var at StatInfo
		data, lent, at, err = t.read(r.lvl, whole, how)
		if err == nil && t.e == nil {
			// Pull-through: a frozen payload is a shared view, servable at once.
			// Anything else the node may not serve: it keeps the version read.
			entry := cacheEntry{mark: at.Version}
			if at.Mutability == object.Immutable {
				entry = cacheEntry{stable: true, data: data}
			}
			cl.c.caches[cacheKey{cl.node, t.id}] = entry
			if leased && at.Kind == object.Regular {
				// Fill under the epoch recorded before the read; a write that
				// slipped in between bumped it and the fill is refused. Only
				// plain payload objects are cached: FIFOs, sockets, and
				// directories mutate through verbs the lease directory does not
				// hook.
				stamp, _ := cl.c.grp.PrimaryStamp(t.id)
				fc.LeaseFill(int(cl.node), fncache.Key(t.id), lent, stamp, epochAtRead, p.Now())
			}
		}
		return err
	})
	return data, err
}

// cachedGet serves a replicated read from the client's own node when it
// can, at DRAM cost: from the cache-stable copy of a frozen object, or — for
// a leased reference — from the colocated function cache, skipping both the
// round trip and the primary's per-object lock (the Cloudburst win). Every
// lease hit is audited: an entry whose fill stamp trails the store's newest
// is a coherence violation, not a staleness allowance.
func (cl *Client) cachedGet(t target, leased bool, how take) ([]byte, bool) {
	var data []byte
	if e, ok := cl.c.caches[cacheKey{cl.node, t.id}]; ok && e.stable {
		cl.c.CacheHits++
		t.sp.Annotate(trace.Str("cache", "hit"))
		data = e.data // never written again, and clipped when the view was taken
	} else if !leased {
		return nil, false
	} else {
		var stamp consistency.Stamp
		if data, stamp, ok = cl.c.fncache.LeaseGet(int(cl.node), fncache.Key(t.id), t.p.Now()); !ok {
			return nil, false
		}
		if newest, have := cl.c.grp.NewestStamp(t.id); have && stamp.Less(newest) {
			cl.c.fncache.StaleLeaseServes.Inc()
		}
		t.sp.Annotate(trace.Str("fncache", "hit"))
		if how != takeView {
			data = append([]byte(nil), data...) // mutable object: the caller owns its copy
		}
	}
	t.p.Sleep(media.DRAM.ReadCost(int64(len(data))))
	return data, true
}

// GetAt reads at a specific consistency level, overriding the reference's
// default — the per-operation menu of §3.3. As with Get, an IMMUTABLE
// payload comes back as a read-only view.
func (cl *Client) GetAt(p *sim.Proc, r Ref, lvl consistency.Level) ([]byte, error) {
	data, _, err := cl.look(p, r, verbGetAt, lvl, whole, takeCopy)
	return data, err
}

// ViewAt is GetAt without the copy below IMMUTABLE: as View, a read-only
// view at every level, through the same verb as GetAt.
func (cl *Client) ViewAt(p *sim.Proc, r Ref, lvl consistency.Level) ([]byte, error) {
	data, _, err := cl.look(p, r, verbGetAt, lvl, whole, takeView)
	return data, err
}

// Append appends to an object.
func (cl *Client) Append(p *sim.Proc, r Ref, data []byte) error {
	return cl.run(p, r, verbAppend, func(t target) error {
		t.sp.Annotate(trace.Int("bytes", int64(len(data))))
		return t.apply(r.lvl, len(data), func(o *object.Object) error {
			return o.Append(data)
		})
	})
}

// WriteAt writes data at an offset.
func (cl *Client) WriteAt(p *sim.Proc, r Ref, data []byte, off int64) error {
	return cl.run(p, r, verbWriteAt, func(t target) error {
		t.sp.Annotate(trace.Int("bytes", int64(len(data))))
		return t.apply(r.lvl, len(data), func(o *object.Object) error {
			_, werr := o.WriteAt(data, off)
			return werr
		})
	})
}

// ReadAt reads up to n bytes from an offset.
func (cl *Client) ReadAt(p *sim.Proc, r Ref, off int64, n int) ([]byte, error) {
	var out []byte
	err := cl.run(p, r, verbReadAt, func(t target) error {
		buf := make([]byte, n)
		var got int
		err := t.view(r.lvl, n, func(o *object.Object) error {
			var rerr error
			got, rerr = o.ReadAt(buf, off)
			return rerr
		})
		t.moved(got)
		out = buf[:got]
		return err
	})
	return out, err
}

// Freeze moves the object along the Figure 1 mutability lattice. At IMMUTABLE
// the freezer's node, if its mark is current (it wrote or read exactly the
// version frozen, so no bytes need move), caches a view of the object it froze,
// taken with the transition; a stale mark is dropped and the next Get pulls.
func (cl *Client) Freeze(p *sim.Proc, r Ref, m object.Mutability) error {
	return cl.run(p, r, verbFreeze, func(t target) error {
		t.sp.Annotate(trace.Str("to", m.String()))
		var was uint64
		var frozen []byte
		err := t.apply(consistency.Linearizable, 0, func(o *object.Object) error {
			was = o.Version()
			err := o.SetMutability(m)
			if err == nil && m == object.Immutable {
				frozen = o.Read()
			}
			return err
		})
		if err == nil && t.e == nil && m == object.Immutable {
			k := cacheKey{cl.node, t.id}
			if e, ok := cl.c.caches[k]; ok && !e.stable && e.mark == was {
				cl.c.caches[k] = cacheEntry{stable: true, data: frozen}
			} else if !e.stable {
				delete(cl.c.caches, k)
			}
		}
		return err
	})
}

// Mutability reports the object's current level.
func (cl *Client) Mutability(p *sim.Proc, r Ref) (object.Mutability, error) {
	_, info, err := cl.look(p, r, verbMutability, consistency.Linearizable, 0, takeCopy)
	return info.Mutability, err
}

// Push enqueues a message on a FIFO object.
func (cl *Client) Push(p *sim.Proc, r Ref, msg []byte) error {
	return cl.run(p, r, verbPush, func(t target) error {
		return t.apply(consistency.Linearizable, len(msg), func(o *object.Object) error {
			return o.Push(msg)
		})
	})
}

// Pop dequeues a message from a FIFO object, blocking (with polling) until
// one is available.
func (cl *Client) Pop(p *sim.Proc, r Ref) ([]byte, error) {
	var msg []byte
	err := cl.run(p, r, verbPop, func(t target) error {
		// The one fault roll outside target.retry: an injected failure
		// surfaces to the caller un-retried, because the poll loop is
		// already the retry.
		if err := t.fault(); err != nil {
			return err
		}
		err := t.poll(object.ErrFIFOEmpty, 0, func(o *object.Object) error {
			var perr error
			msg, perr = o.Pop()
			return perr
		})
		t.moved(len(msg))
		return err
	})
	return msg, err
}

// Attenuate derives a reference with narrowed rights.
func (cl *Client) Attenuate(r Ref, mask capability.Rights) (Ref, error) {
	nr, err := cl.c.caps.Attenuate(r.cap, mask)
	if err != nil {
		return Ref{}, err
	}
	return Ref{cap: nr, lvl: r.lvl}, nil
}

// Drop releases a reference; the object becomes collectable once
// unreachable, and an ephemeral object is freed with its last reference.
func (cl *Client) Drop(r Ref) {
	cl.c.caps.Drop(r.cap)
	cl.c.reapEphem(r.cap.Object())
}

// Stat returns kind, size, version and mutability without payload
// transfer.
type StatInfo struct {
	Kind       object.Kind
	Size       int64
	Version    uint64
	Mutability object.Mutability
}

// Stat fetches object metadata.
func (cl *Client) Stat(p *sim.Proc, r Ref) (StatInfo, error) {
	_, info, err := cl.look(p, r, verbStat, consistency.Linearizable, 0, takeCopy)
	return info, err
}

// look is the whole of a verb that only reads: one target.read at lvl.
func (cl *Client) look(p *sim.Proc, r Ref, v *verb, lvl consistency.Level, recv int, how take) (data []byte, at StatInfo, err error) {
	err = cl.run(p, r, v, func(t target) (err error) {
		data, _, at, err = t.read(lvl, recv, how)
		return err
	})
	return data, at, err
}
