package core

// Directory verbs and versioned reads for transactional clients. The
// faasfs subsystem layers snapshot-isolated POSIX sessions over these:
// optimistic validation needs payload+version read atomically, and commit
// installation needs an absolute (idempotent) way to replace a
// directory's entry table. Directory metadata follows the NS convention —
// the authoritative copy lives on replica 0 and mutations are mirrored to
// every replica.

import (
	"bytes"
	"fmt"
	"sort"

	"repro/internal/consistency"
	"repro/internal/object"
	"repro/internal/sim"
)

// DirEntry is one name→object binding in a Directory object. ID is the
// raw object ID so callers outside the object layer (faasfs) can carry
// entry tables without importing internal/object.
type DirEntry struct {
	Name string
	ID   uint64
}

// Object kinds and mutability levels re-exported so subsystems layered
// strictly above internal/core (faasfs) need not import internal/object.
const (
	KindRegular   = object.Regular
	KindDirectory = object.Directory
	MutAppendOnly = object.AppendOnly
)

// GetVersioned returns an object's payload together with the version the
// payload was read at, atomically under the primary's per-object lock —
// the read half of optimistic concurrency control. Always linearizable;
// bypasses the cache-stable and lease fast paths (they do not carry
// versions). As with Get, an IMMUTABLE payload is a read-only view.
func (cl *Client) GetVersioned(p *sim.Proc, r Ref) ([]byte, uint64, error) {
	data, at, err := cl.look(p, r, verbGetVersioned, consistency.Linearizable, whole)
	return data, at.Version, err
}

// ReadDir returns a Directory object's entries together with the version
// they were read at, from the authoritative metadata replica. Entries are
// sorted by name.
func (cl *Client) ReadDir(p *sim.Proc, r Ref) ([]DirEntry, uint64, error) {
	var ents []DirEntry
	var ver uint64
	err := cl.run(p, r, verbReadDir, func(t target) error {
		return t.retry(func() error {
			cl.c.metaOp(p, cl, "")
			o, err := cl.c.grp.Primary0Store().Get(t.id)
			if err != nil {
				return fmt.Errorf("core: readdir: %w", err)
			}
			ents, ver, err = entryTable(o)
			return err
		})
	})
	return ents, ver, err
}

// SetDirEntries replaces a Directory object's entry table with the given
// one, as a single metadata operation on the authoritative replica
// mirrored to all others. The operation is absolute — installing a table
// the directory already holds is a no-op — so transactional commit
// installation and crash-recovery replay can both use it idempotently.
func (cl *Client) SetDirEntries(p *sim.Proc, r Ref, entries []DirEntry) error {
	return cl.run(p, r, verbSetDirEntries, func(t target) error {
		return t.retry(func() error {
			cl.c.metaOp(p, cl, "")
			o, err := cl.c.grp.Primary0Store().Get(t.id)
			if err != nil {
				return fmt.Errorf("core: setdir: %w", err)
			}
			if err := installEntries(o, entries); err != nil {
				return err
			}
			cl.c.dropLeases(t.id)
			return cl.c.grp.Mirror(p, t.id)
		})
	})
}

// entryTable snapshots a directory's entries (sorted) and version.
func entryTable(o *object.Object) ([]DirEntry, uint64, error) {
	if o.Kind() != object.Directory {
		return nil, 0, fmt.Errorf("core: readdir on %v: %w", o.Kind(), object.ErrWrongKind)
	}
	names := o.Entries()
	ents := make([]DirEntry, 0, len(names))
	for _, n := range names {
		id, err := o.Lookup(n)
		if err != nil {
			return nil, 0, err
		}
		ents = append(ents, DirEntry{Name: n, ID: uint64(id)})
	}
	return ents, o.Version(), nil
}

// installEntries diffs the directory's current entries against the wanted
// table and applies only the difference, so replaying an already-installed
// table leaves the version untouched.
func installEntries(o *object.Object, entries []DirEntry) error {
	if o.Kind() != object.Directory {
		return fmt.Errorf("core: setdir on %v: %w", o.Kind(), object.ErrWrongKind)
	}
	want := make(map[string]object.ID, len(entries))
	for _, e := range entries {
		want[e.Name] = object.ID(e.ID)
	}
	for _, n := range o.Entries() {
		cur, err := o.Lookup(n)
		if err != nil {
			return err
		}
		if w, ok := want[n]; !ok || w != cur {
			if err := o.Unlink(n); err != nil {
				return err
			}
		}
	}
	names := make([]string, 0, len(want))
	for n := range want {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		if cur, err := o.Lookup(n); err == nil && cur == want[n] {
			continue
		}
		if err := o.Link(n, want[n]); err != nil {
			return err
		}
	}
	return nil
}

// QuiescentRead returns an object's payload and version directly from the
// authoritative replica, outside any simulated process — chaos-audit
// plumbing (no capability checks, costs, or caches). Replicated objects
// only.
func (c *Cloud) QuiescentRead(r Ref) ([]byte, uint64, error) {
	o, err := c.grp.Primary0Store().Get(r.cap.Object())
	if err != nil {
		return nil, 0, err
	}
	return o.Read(), o.Version(), nil
}

// QuiescentEntries returns a Directory object's entry table and version
// directly from the authoritative replica — chaos-audit plumbing.
func (c *Cloud) QuiescentEntries(r Ref) ([]DirEntry, uint64, error) {
	o, err := c.grp.Primary0Store().Get(r.cap.Object())
	if err != nil {
		return nil, 0, err
	}
	return entryTable(o)
}

// QuiescentPut replaces an object's payload at the authoritative replica,
// outside any simulated process — the roll-forward primitive the faasfs
// chaos check uses to replay a durably-committed redo log after healing.
// SyncAll propagates the result.
func (c *Cloud) QuiescentPut(r Ref, data []byte) error {
	return c.grp.QuiescentApply(r.cap.Object(), func(o *object.Object) error {
		if bytes.Equal(o.Read(), data) {
			return nil
		}
		return o.SetData(data)
	})
}

// QuiescentSetEntries replaces a Directory object's entry table at the
// authoritative replica, outside any simulated process — chaos-audit
// replay, idempotent like SetDirEntries.
func (c *Cloud) QuiescentSetEntries(r Ref, entries []DirEntry) error {
	return c.grp.QuiescentApply(r.cap.Object(), func(o *object.Object) error {
		return installEntries(o, entries)
	})
}

// NoteDirRoot registers a directory as a GC root, keeping it and
// everything reachable from it alive across Collect — faasfs mounts pin
// their root and journal this way.
func (c *Cloud) NoteDirRoot(r Ref) { c.nsRoots[r.cap.Object()] = struct{}{} }
