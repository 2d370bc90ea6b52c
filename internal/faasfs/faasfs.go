// Package faasfs is a shared, transactional, POSIX-shaped file system
// layered on PCSI objects through the capability-checked core client —
// the "FaaS file system" workload of Schleier-Smith et al., rebuilt on
// this repository's substrate.
//
// Every function invocation opens a [Session]: a snapshot-isolated view
// of one mounted file system. Reads are served from a first-touch
// snapshot cache plus the session's local write set, so a session always
// sees its own writes and a repeatable image of everything else. Commit
// validates the read and write sets optimistically against object
// versions under a file-system-wide commit lock and either installs the
// write set atomically or returns [ErrConflict], which classifies
// transient so the existing retry policies ([FS.Run], fault.Policy)
// re-run the whole transaction. Committed sessions are serializable:
// validation proves every version a session observed was still current
// at its commit point.
//
// Directories are PCSI Directory objects and files Regular objects; the
// commit point is an append to a write-ahead journal object, after which
// the write set is installed as absolute, idempotent redo operations. A
// crash between commit point and installation rolls forward: the redo
// log replays on the next commit and, under the chaos harness, in the
// quiescent audit — so no half-committed transaction is ever visible
// after HealAll.
package faasfs

import (
	"fmt"

	"repro/internal/consistency"
	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/sim"
	"repro/internal/trace"
)

// Typed errors. Conflict classifies transient — retry layers re-run the
// transaction; the rest are fatal POSIX-shaped failures.
var (
	// ErrConflict is returned by Commit when optimistic validation fails:
	// some object the session read or wrote was committed by another
	// session in between. fault.Retryable reports it transient.
	ErrConflict = fault.Transient("faasfs: optimistic commit conflict")
	// ErrNoEnt is "no such file or directory".
	ErrNoEnt = fault.Fatal("faasfs: no such file or directory")
	// ErrExist is "file exists".
	ErrExist = fault.Fatal("faasfs: file exists")
	// ErrBadFD is "bad file descriptor".
	ErrBadFD = fault.Fatal("faasfs: bad file descriptor")
	// ErrIsDir is "is a directory".
	ErrIsDir = fault.Fatal("faasfs: is a directory")
	// ErrNotDir is "not a directory".
	ErrNotDir = fault.Fatal("faasfs: not a directory")
	// ErrNotEmpty is "directory not empty".
	ErrNotEmpty = fault.Fatal("faasfs: directory not empty")
	// ErrClosed is returned by operations on a committed or aborted session.
	ErrClosed = fault.Fatal("faasfs: session already closed")
	// ErrInvalidPath rejects empty or malformed path components.
	ErrInvalidPath = fault.Fatal("faasfs: invalid path")
)

// Config parameterises a mount. It has no fields: a mount's transaction
// counters are its Stats.
type Config struct{}

// Stats is a snapshot of a mount's transaction counters.
type Stats struct {
	Commits   int64 // sessions that reached their commit point
	Conflicts int64 // commits refused by optimistic validation
	Aborts    int64 // sessions abandoned (includes conflicts)
	Replays   int64 // redo operations replayed after a failed install
}

// ConflictRate is the share of commit attempts refused by validation.
func (s Stats) ConflictRate() float64 {
	attempts := s.Commits + s.Conflicts
	if attempts == 0 {
		return 0
	}
	return float64(s.Conflicts) / float64(attempts)
}

// redoOp is one absolute, idempotent installation step of a committed
// transaction: the full payload of a file or the full entry table of a
// directory. Replaying an already-installed op is a no-op.
type redoOp struct {
	id      uint64
	dir     bool
	data    []byte
	entries []core.DirEntry
}

// FS is one mounted transactional file system: a root Directory object,
// a write-ahead journal object, and the committed model every session
// snapshots from and validates against.
type FS struct {
	cloud   *core.Cloud
	env     *sim.Env
	root    core.Ref
	journal core.Ref

	// commitMu serialises validation+install; sim.Resource queueing keeps
	// commit order deterministic.
	commitMu  *sim.Resource
	commitSeq uint64

	// refs holds a full-rights reference to every committed object, so
	// sessions can reach objects discovered through directory entries.
	refs  map[uint64]core.Ref
	isDir map[uint64]bool

	// The committed model: exactly what a fully-installed store contains.
	// The chaos audit replays any pending redo and then compares the
	// store against this map — a mismatch is a half-committed (or phantom)
	// transaction.
	model    map[uint64][]byte
	modelDir map[uint64]map[string]uint64

	// ver is the commit authority's version table: one counter per
	// object, bumped as each committed redo op installs. Every mutation
	// serializes through this mount, so sessions validate their read sets
	// against this table in memory — the commit authority is colocated
	// with the metadata it validates and needs no store round-trip.
	ver map[uint64]uint64

	// pending is the redo log of the latest committed transaction whose
	// installation did not complete (crash/fault between commit point and
	// install). It replays before the next commit validates.
	pending []redoOp

	stats Stats
}

// Mount creates a fresh file system (root directory + journal) on the
// client's cloud and registers its invariants with the cloud's fault
// session, if it has one.
func Mount(p *sim.Proc, cl *core.Client, _ Config) (*FS, error) {
	root, err := cl.Create(p, core.KindDirectory)
	if err != nil {
		return nil, fmt.Errorf("faasfs: mount root: %w", err)
	}
	journal, err := cl.Create(p, core.KindRegular, core.WithMutability(core.MutAppendOnly))
	if err != nil {
		return nil, fmt.Errorf("faasfs: mount journal: %w", err)
	}
	cloud := cl.Cloud()
	cloud.NoteDirRoot(root)
	cloud.NoteDirRoot(journal)
	fs := &FS{
		cloud:    cloud,
		env:      cloud.Env(),
		root:     root,
		journal:  journal,
		commitMu: cloud.Env().NewResource(1),
		refs:     map[uint64]core.Ref{uint64(root.ObjectID()): root},
		isDir:    map[uint64]bool{uint64(root.ObjectID()): true},
		model:    map[uint64][]byte{},
		modelDir: map[uint64]map[string]uint64{uint64(root.ObjectID()): {}},
		ver:      map[uint64]uint64{},
	}
	cloud.AddCheck("faasfs", fs.chaosInvariants)
	return fs, nil
}

// Stats snapshots the mount's transaction counters.
func (fs *FS) Stats() Stats { return fs.stats }

// ref returns the full-rights reference for a committed object id.
func (fs *FS) ref(id uint64) (core.Ref, bool) {
	r, ok := fs.refs[id]
	return r, ok
}

// Run executes fn as one transaction: Begin, body, Commit; on any error
// the session aborts. With a policy, the whole transaction is retried
// under it — ErrConflict classifies transient, so an optimistic loss
// simply re-runs fn against a fresh snapshot.
func (fs *FS) Run(p *sim.Proc, cl *core.Client, pol *fault.Policy, fn func(*Session) error) error {
	attempt := func() error {
		s := fs.Begin(cl)
		if err := fn(s); err != nil {
			s.Abort()
			return err
		}
		return s.Commit(p)
	}
	if pol == nil {
		return attempt()
	}
	return pol.Do(p, "faasfs.txn", attempt)
}

// replay installs the pending redo log of an earlier committed
// transaction. Ops are absolute and idempotent; completed ops are
// dropped so a failing install resumes where it stopped.
func (fs *FS) replay(p *sim.Proc, cl *core.Client) error {
	for len(fs.pending) > 0 {
		op := fs.pending[0]
		if err := fs.install(p, cl, op); err != nil {
			return err
		}
		fs.stats.Replays++
		fs.pending = fs.pending[1:]
	}
	return nil
}

// install applies one redo op through the client.
func (fs *FS) install(p *sim.Proc, cl *core.Client, op redoOp) error {
	r, ok := fs.ref(op.id)
	if !ok {
		return fault.Fatalf("faasfs: install: no reference for object %d", op.id)
	}
	var err error
	if op.dir {
		err = cl.SetDirEntries(p, r, op.entries)
	} else {
		err = cl.Put(p, r, op.data)
	}
	if err != nil {
		return err
	}
	// Bump only after the store write lands. Snapshot reads sample the
	// version before loading bytes, so a racing read can pair old bytes
	// with an old version (validates, consistent) or old bytes with a new
	// version (conflicts, retried) — never new bytes with an old version,
	// which is the pairing that would admit a stale read.
	fs.ver[op.id]++
	return nil
}

// sweep drops model entries no longer reachable from the root — objects
// whose last directory link was removed by the commit that just landed.
// The store copies linger until GC; the audit only checks model entries.
func (fs *FS) sweep() {
	rootID := uint64(fs.root.ObjectID())
	live := map[uint64]bool{rootID: true}
	queue := []uint64{rootID}
	for len(queue) > 0 {
		id := queue[0]
		queue = queue[1:]
		ents := fs.modelDir[id]
		for _, n := range sortedNames(ents) {
			child := ents[n]
			if !live[child] {
				live[child] = true
				queue = append(queue, child)
			}
		}
	}
	for _, id := range sortedKeys(fs.model) {
		if !live[id] {
			delete(fs.model, id)
			delete(fs.refs, id)
			delete(fs.isDir, id)
			delete(fs.ver, id)
		}
	}
	for _, id := range sortedKeys(fs.modelDir) {
		if !live[id] {
			delete(fs.modelDir, id)
			delete(fs.refs, id)
			delete(fs.isDir, id)
			delete(fs.ver, id)
		}
	}
}

// chaosInvariants is the fault-session check: after healing, roll the
// pending redo log forward quiescently, converge the replicas, and
// compare the store against the committed model. Any divergence means a
// transaction was visible half-committed — the invariant this subsystem
// exists to keep.
func (fs *FS) chaosInvariants() []string {
	var out []string
	grp := fs.cloud.Group()
	grp.SyncAll()
	for _, op := range fs.pending {
		r, ok := fs.ref(op.id)
		if !ok {
			out = append(out, fmt.Sprintf("faasfs: pending redo for unknown object %d", op.id))
			continue
		}
		var err error
		if op.dir {
			err = fs.cloud.QuiescentSetEntries(r, op.entries)
		} else {
			err = fs.cloud.QuiescentPut(r, op.data)
		}
		if err != nil {
			out = append(out, fmt.Sprintf("faasfs: redo replay for object %d failed: %v", op.id, err))
			continue
		}
		fs.ver[op.id]++
		fs.stats.Replays++
	}
	fs.pending = nil
	grp.SyncAll()
	for _, id := range sortedKeys(fs.model) {
		r, ok := fs.ref(id)
		if !ok {
			out = append(out, fmt.Sprintf("faasfs: committed object %d has no reference", id))
			continue
		}
		data, _, err := fs.cloud.QuiescentRead(r)
		if err != nil {
			out = append(out, fmt.Sprintf("faasfs: committed object %d missing from store: %v", id, err))
			continue
		}
		if string(data) != string(fs.model[id]) {
			out = append(out, fmt.Sprintf("faasfs: object %d payload diverges from committed model (%d vs %d bytes)", id, len(data), len(fs.model[id])))
		}
	}
	for _, id := range sortedKeys(fs.modelDir) {
		r, ok := fs.ref(id)
		if !ok {
			out = append(out, fmt.Sprintf("faasfs: committed directory %d has no reference", id))
			continue
		}
		ents, _, err := fs.cloud.QuiescentEntries(r)
		if err != nil {
			out = append(out, fmt.Sprintf("faasfs: committed directory %d missing from store: %v", id, err))
			continue
		}
		want := fs.modelDir[id]
		if len(ents) != len(want) {
			out = append(out, fmt.Sprintf("faasfs: directory %d entry count diverges (%d vs %d)", id, len(ents), len(want)))
			continue
		}
		for _, e := range ents {
			if want[e.Name] != e.ID {
				out = append(out, fmt.Sprintf("faasfs: directory %d entry %q diverges", id, e.Name))
			}
		}
	}
	return out
}

// beginStamp records the newest store stamp at session begin — the
// snapshot pin surfaced in txn trace spans.
func (fs *FS) beginStamp() consistency.Stamp {
	st, _ := fs.cloud.Group().NewestStamp(fs.root.ObjectID())
	return st
}

// tracer returns the deployment's tracer (nil-safe to use).
func (fs *FS) tracer() *trace.Tracer { return trace.Of(fs.env) }
