package faasfs

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/sim"
	"repro/internal/trace"
)

// Begin opens a session pinned to the current committed state: it
// records the commit sequence and the newest store stamp, and serves all
// subsequent reads from a first-touch snapshot. Begin itself costs no
// virtual time — the first read pays.
func (fs *FS) Begin(cl *core.Client) *Session {
	s := &Session{
		fs:      fs,
		cl:      cl,
		seq:     fs.commitSeq,
		stamp:   fs.beginStamp(),
		snap:    map[uint64]*snapEntry{},
		readSet: map[uint64]uint64{},
		dirSeen: map[uint64]map[string]uint64{},
		listed:  map[uint64]bool{},
		local:   map[uint64]*localObj{},
		appends: map[uint64][]byte{},
		newRefs: map[uint64]core.Ref{},
		fds:     map[int]*fdesc{},
		nextFD:  3,
	}
	fs.tracer().Instant("faasfs", "txn", "begin",
		trace.Int("snap_seq", int64(s.seq)),
		trace.Int("snap_stamp", int64(s.stamp.Counter)))
	return s
}

// fail closes the session as aborted: the write set is discarded and
// capabilities for session-created objects dropped. Nothing was ever
// installed, so abort leaves no partial state by construction.
func (s *Session) fail() {
	s.done = true
	s.fs.stats.Aborts++
	for _, id := range sortedKeys(s.newRefs) {
		s.cl.Drop(s.newRefs[id])
	}
}

// Abort abandons the session. Safe to call on a closed session.
func (s *Session) Abort() {
	if s.done {
		return
	}
	s.fail()
	s.fs.tracer().Instant("faasfs", "txn", "abort", trace.Int("snap_seq", int64(s.seq)))
}

// Commit runs the optimistic commit protocol under the mount-wide commit
// lock:
//
//  1. replay any pending redo of an earlier committed transaction;
//  2. validate the read set against the commit authority's in-memory
//     version and directory tables — a mismatch aborts with ErrConflict
//     (transient) and nothing is mutated;
//  3. append the commit record to the journal — the commit point;
//  4. fold the write set into the committed model and install it as
//     absolute redo ops.
//
// A failure after step 3 still returns nil: the transaction is durably
// committed and its redo log rolls forward on the next commit (or in the
// chaos audit). Failures before step 3 abort the whole session.
func (s *Session) Commit(p *sim.Proc) error {
	if s.done {
		return ErrClosed
	}
	fs := s.fs
	sp := fs.tracer().Start(p, "faasfs", "commit",
		trace.Int("snap_seq", int64(s.seq)),
		trace.Int("reads", int64(len(s.readSet))),
		trace.Int("writes", int64(len(s.local)+len(s.appends))))
	defer sp.Close(p)
	fs.commitMu.Acquire(p, 1)
	defer fs.commitMu.Release(1)

	if err := fs.replay(p, s.cl); err != nil {
		s.fail()
		sp.Annotate(trace.Str("outcome", "abort-replay"))
		return fmt.Errorf("faasfs: commit blocked by redo replay: %w", err)
	}

	conflict := func(format string, args ...any) error {
		fs.stats.Conflicts++
		s.fail()
		sp.Annotate(trace.Str("outcome", "conflict"))
		return fmt.Errorf("%w: "+format, append([]any{ErrConflict}, args...)...)
	}

	// Files — and directories whose full listing the session observed —
	// validate against the commit authority's in-memory version table.
	// Every mutation serializes through this commit lock, so the table is
	// exact and validation costs no store round-trips.
	for _, id := range sortedKeys(s.readSet) {
		if fs.isDir[id] && !s.listed[id] {
			continue // entry-level validation below
		}
		if _, ok := fs.ref(id); !ok {
			// The object was unlinked and swept by a later commit than our
			// snapshot: a conflict by definition.
			return conflict("object %d vanished", id)
		}
		if fs.ver[id] != s.readSet[id] {
			return conflict("object %d at version %d, read at %d", id, fs.ver[id], s.readSet[id])
		}
	}

	// Directories validate per entry against the committed table (held by
	// the validator in memory — the commit authority is colocated with the
	// mount's metadata): every looked-up name must still resolve to what
	// the snapshot saw, and every entry in a written delta must be
	// untouched by other sessions. Entries this session never observed are
	// free to change, so sessions touching different names in a shared
	// directory commute instead of conflicting.
	dirs := map[uint64]bool{}
	for id := range s.dirSeen {
		dirs[id] = true
	}
	for id, lo := range s.local {
		if lo.dir && !lo.created {
			dirs[id] = true
		}
	}
	for _, id := range sortedKeys(dirs) {
		cur, ok := fs.modelDir[id]
		if !ok {
			return conflict("directory %d vanished", id)
		}
		seen := s.dirSeen[id]
		for _, name := range sortedNames(seen) {
			if cur[name] != seen[name] {
				return conflict("directory %d entry %q changed (%d, read %d)", id, name, cur[name], seen[name])
			}
		}
		if lo, ok := s.local[id]; ok && lo.dir && !lo.created {
			base := s.snap[id].entries
			for _, name := range sortedNames(unionNames(base, lo.entries)) {
				b, o := base[name], lo.entries[name]
				if b == o {
					continue
				}
				if cur[name] != b {
					return conflict("directory %d entry %q changed (%d, base %d)", id, name, cur[name], b)
				}
			}
		}
	}

	// Blind appends validate for existence only: the delta lands on
	// whatever contents are current, so concurrent appenders commute.
	for _, id := range sortedKeys(s.appends) {
		if _, ok := fs.ref(id); !ok {
			return conflict("append target %d vanished", id)
		}
		if fs.isDir[id] {
			return conflict("append target %d is a directory", id)
		}
	}

	rec := fmt.Sprintf("txn %d reads=%d writes=%d\n", fs.commitSeq+1, len(s.readSet), len(s.local)+len(s.appends))
	if err := s.cl.Append(p, fs.journal, []byte(rec)); err != nil {
		s.fail()
		sp.Annotate(trace.Str("outcome", "abort-journal"))
		return fmt.Errorf("faasfs: journal append: %w", err)
	}

	// Committed. Everything below is bookkeeping + installation; the redo
	// log guarantees installation even if this process gets no further.
	s.done = true
	fs.commitSeq++
	fs.stats.Commits++
	var redo []redoOp
	for _, id := range sortedKeys(s.local) {
		lo := s.local[id]
		if lo.created {
			fs.refs[id] = s.newRefs[id]
			fs.isDir[id] = lo.dir
		}
		if lo.dir {
			// Fold the session's entry delta into the current committed
			// table — not the snapshot's — so commuting sessions compose.
			// The redo op is the absolute post-merge table (idempotent).
			merged := make(map[string]uint64)
			if !lo.created {
				for n, v := range fs.modelDir[id] {
					merged[n] = v
				}
				base := s.snap[id].entries
				for _, n := range sortedNames(unionNames(base, lo.entries)) {
					b, o := base[n], lo.entries[n]
					if b == o {
						continue
					}
					if o == 0 {
						delete(merged, n)
					} else {
						merged[n] = o
					}
				}
			} else {
				for n, v := range lo.entries {
					merged[n] = v
				}
			}
			ents := make([]core.DirEntry, 0, len(merged))
			for _, n := range sortedNames(merged) {
				ents = append(ents, core.DirEntry{Name: n, ID: merged[n]})
			}
			fs.modelDir[id] = merged
			redo = append(redo, redoOp{id: id, dir: true, entries: ents})
		} else {
			data := append([]byte(nil), lo.data...)
			fs.model[id] = data
			redo = append(redo, redoOp{id: id, data: data})
		}
	}
	for _, id := range sortedKeys(s.appends) {
		data := append(append([]byte(nil), fs.model[id]...), s.appends[id]...)
		fs.model[id] = data
		redo = append(redo, redoOp{id: id, data: data})
	}
	fs.sweep()
	// Redo for objects the sweep already dropped (created then unlinked in
	// the same transaction) has nothing to install.
	live := redo[:0]
	for _, op := range redo {
		if _, ok := fs.ref(op.id); ok {
			live = append(live, op)
		}
	}
	fs.pending = live
	for len(fs.pending) > 0 {
		if err := fs.install(p, s.cl, fs.pending[0]); err != nil {
			// Durably committed but not fully installed: leave the rest on
			// the redo log for roll-forward.
			sp.Annotate(trace.Str("install", "deferred"))
			break
		}
		fs.pending = fs.pending[1:]
	}
	sp.Annotate(trace.Str("outcome", "commit"))
	return nil
}
