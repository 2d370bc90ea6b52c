package faasfs_test

import (
	"errors"
	"fmt"
	"math/rand"
	"strconv"
	"testing"
	"testing/quick"

	"repro/internal/core"
	"repro/internal/faasfs"
	"repro/internal/fault"
	"repro/internal/sim"
)

func testCloud(seed int64) *core.Cloud {
	opts := core.DefaultOptions()
	opts.Seed = seed
	return core.New(opts)
}

// withFS builds a cloud, mounts a fresh FS, and drives fn inside one
// simulation run (sim.Env.Run drives the queue exactly once, so mount and
// test body share the run).
func withFS(t *testing.T, seed int64, fn func(p *sim.Proc, c *core.Cloud, cl *core.Client, fs *faasfs.FS)) {
	t.Helper()
	c := testCloud(seed)
	cl := c.NewClient(0)
	ran := false
	c.Env().Go("test", func(p *sim.Proc) {
		fs, err := faasfs.Mount(p, cl, faasfs.Config{})
		if err != nil {
			t.Errorf("mount: %v", err)
			return
		}
		ran = true
		fn(p, c, cl, fs)
	})
	c.Env().Run()
	if !ran {
		t.Fatal("test body did not run")
	}
}

// tree snapshots the committed file system through a fresh read-only
// session: path -> content for files, path/ -> "" for directories.
func tree(t *testing.T, p *sim.Proc, fs *faasfs.FS, cl *core.Client) map[string]string {
	t.Helper()
	out := map[string]string{}
	s := fs.Begin(cl)
	defer s.Abort()
	var walk func(dir string)
	walk = func(dir string) {
		names, err := s.ReadDir(p, dir)
		if err != nil {
			t.Errorf("readdir %q: %v", dir, err)
			return
		}
		for _, n := range names {
			path := dir + "/" + n
			info, err := s.Stat(p, path)
			if err != nil {
				t.Errorf("stat %q: %v", path, err)
				continue
			}
			if info.Dir {
				out[path+"/"] = ""
				walk(path)
			} else {
				data, err := s.ReadFile(p, path)
				if err != nil {
					t.Errorf("read %q: %v", path, err)
					continue
				}
				out[path] = string(data)
			}
		}
	}
	walk("")
	return out
}

func TestPosixSurface(t *testing.T) {
	withFS(t, 1, func(p *sim.Proc, c *core.Cloud, cl *core.Client, fs *faasfs.FS) {
		s := fs.Begin(cl)
		if err := s.Mkdir(p, "/src"); err != nil {
			t.Fatalf("mkdir: %v", err)
		}
		fd, err := s.Creat(p, "/src/main.c")
		if err != nil {
			t.Fatalf("creat: %v", err)
		}
		if _, err := s.Write(p, fd, []byte("int main(){}")); err != nil {
			t.Fatalf("write: %v", err)
		}
		if _, err := s.Seek(p, fd, 0, faasfs.SeekSet); err != nil {
			t.Fatalf("seek: %v", err)
		}
		got, err := s.Read(p, fd, 3)
		if err != nil || string(got) != "int" {
			t.Fatalf("read = %q, %v", got, err)
		}
		if err := s.Close(fd); err != nil {
			t.Fatalf("close: %v", err)
		}
		if err := s.Commit(p); err != nil {
			t.Fatalf("commit: %v", err)
		}

		// A second session sees the committed tree and can rename/unlink.
		s2 := fs.Begin(cl)
		names, err := s2.ReadDir(p, "/src")
		if err != nil || len(names) != 1 || names[0] != "main.c" {
			t.Fatalf("readdir = %v, %v", names, err)
		}
		if err := s2.Rename(p, "/src/main.c", "/src/main.o"); err != nil {
			t.Fatalf("rename: %v", err)
		}
		info, err := s2.Stat(p, "/src/main.o")
		if err != nil || info.Size != 12 || info.Dir {
			t.Fatalf("stat = %+v, %v", info, err)
		}
		if err := s2.Unlink(p, "/src/main.o"); err != nil {
			t.Fatalf("unlink: %v", err)
		}
		if err := s2.Unlink(p, "/src"); err != nil {
			t.Fatalf("unlink dir: %v", err)
		}
		if err := s2.Commit(p); err != nil {
			t.Fatalf("commit 2: %v", err)
		}

		if got := tree(t, p, fs, cl); len(got) != 0 {
			t.Fatalf("tree after cleanup = %v", got)
		}
		if _, err := fs.Begin(cl).Open(p, "/src/main.c"); !errors.Is(err, faasfs.ErrNoEnt) {
			t.Fatalf("open gone = %v", err)
		}
	})
}

func TestSparseWriteHole(t *testing.T) {
	withFS(t, 2, func(p *sim.Proc, c *core.Cloud, cl *core.Client, fs *faasfs.FS) {
		s := fs.Begin(cl)
		fd, err := s.Creat(p, "/sparse")
		if err != nil {
			t.Fatalf("creat: %v", err)
		}
		if _, err := s.Seek(p, fd, 1<<16, faasfs.SeekSet); err != nil {
			t.Fatalf("seek: %v", err)
		}
		if _, err := s.Write(p, fd, []byte("end")); err != nil {
			t.Fatalf("write: %v", err)
		}
		info, err := s.Stat(p, "/sparse")
		if err != nil || info.Size != 1<<16+3 {
			t.Fatalf("stat = %+v, %v", info, err)
		}
		data, err := s.ReadFile(p, "/sparse")
		if err != nil || data[0] != 0 || string(data[1<<16:]) != "end" {
			t.Fatalf("hole not zero-filled: %v", err)
		}
		if err := s.Commit(p); err != nil {
			t.Fatalf("commit: %v", err)
		}
	})
}

func TestConflictDetection(t *testing.T) {
	withFS(t, 3, func(p *sim.Proc, c *core.Cloud, cl *core.Client, fs *faasfs.FS) {
		setup := fs.Begin(cl)
		if err := setup.WriteFile(p, "/page", []byte("v0")); err != nil {
			t.Fatalf("setup: %v", err)
		}
		if err := setup.Commit(p); err != nil {
			t.Fatalf("setup commit: %v", err)
		}

		s1 := fs.Begin(cl)
		s2 := fs.Begin(cl)
		if _, err := s1.ReadFile(p, "/page"); err != nil {
			t.Fatalf("s1 read: %v", err)
		}
		if _, err := s2.ReadFile(p, "/page"); err != nil {
			t.Fatalf("s2 read: %v", err)
		}
		if err := s1.WriteFile(p, "/page", []byte("s1")); err != nil {
			t.Fatalf("s1 write: %v", err)
		}
		if err := s2.WriteFile(p, "/page", []byte("s2")); err != nil {
			t.Fatalf("s2 write: %v", err)
		}
		if err := s1.Commit(p); err != nil {
			t.Fatalf("s1 commit: %v", err)
		}
		err := s2.Commit(p)
		if !errors.Is(err, faasfs.ErrConflict) {
			t.Fatalf("s2 commit = %v, want ErrConflict", err)
		}
		if !fault.Retryable(err) {
			t.Fatal("ErrConflict must classify transient")
		}
		if data, err := fs.Begin(cl).ReadFile(p, "/page"); err != nil || string(data) != "s1" {
			t.Fatalf("committed winner = %q, %v", data, err)
		}
		st := fs.Stats()
		if st.Commits != 2 || st.Conflicts != 1 || st.Aborts != 1 {
			t.Fatalf("stats = %+v", st)
		}
		if st.ConflictRate() <= 0 {
			t.Fatalf("conflict rate = %v", st.ConflictRate())
		}
	})
}

func TestRunRetriesConflictToSuccess(t *testing.T) {
	withFS(t, 4, func(p *sim.Proc, c *core.Cloud, cl *core.Client, fs *faasfs.FS) {
		s := fs.Begin(cl)
		if err := s.WriteFile(p, "/counter", []byte("0")); err != nil {
			t.Fatalf("setup: %v", err)
		}
		if err := s.Commit(p); err != nil {
			t.Fatalf("setup commit: %v", err)
		}
		const writers, rounds = 4, 5
		done := make([]*sim.Event, writers)
		for w := 0; w < writers; w++ {
			ev := c.Env().NewEvent()
			done[w] = ev
			c.Env().Go(fmt.Sprintf("writer%d", w), func(wp *sim.Proc) {
				defer ev.Complete(nil)
				pol := fault.DefaultPolicy()
				pol.MaxAttempts = 50
				pol.Deadline = 0
				for i := 0; i < rounds; i++ {
					err := fs.Run(wp, cl, pol, func(s *faasfs.Session) error {
						data, err := s.ReadFile(wp, "/counter")
						if err != nil {
							return err
						}
						n, err := strconv.Atoi(string(data))
						if err != nil {
							return err
						}
						return s.WriteFile(wp, "/counter", []byte(strconv.Itoa(n+1)))
					})
					if err != nil {
						t.Errorf("writer txn: %v", err)
					}
				}
			})
		}
		for _, ev := range done {
			p.Wait(ev)
		}
		data, err := fs.Begin(cl).ReadFile(p, "/counter")
		if err != nil || string(data) != strconv.Itoa(writers*rounds) {
			t.Fatalf("counter = %q, %v (want %d): lost update", data, err, writers*rounds)
		}
		if st := fs.Stats(); st.Commits != int64(writers*rounds)+1 {
			t.Fatalf("commits = %d, want %d", st.Commits, writers*rounds+1)
		}
	})
}

// Directory operations validate per entry, so sessions creating
// different names in a shared directory commute — both commit — while
// two sessions racing on the same name still conflict.
func TestCommutativeDirectoryAdds(t *testing.T) {
	withFS(t, 5, func(p *sim.Proc, c *core.Cloud, cl *core.Client, fs *faasfs.FS) {
		setup := fs.Begin(cl)
		if err := setup.Mkdir(p, "/shared"); err != nil {
			t.Fatalf("mkdir: %v", err)
		}
		if err := setup.Commit(p); err != nil {
			t.Fatalf("setup commit: %v", err)
		}

		// Disjoint names: both sessions add to /shared and both commit.
		s1 := fs.Begin(cl)
		s2 := fs.Begin(cl)
		if err := s1.WriteFile(p, "/shared/a", []byte("1")); err != nil {
			t.Fatalf("s1 write: %v", err)
		}
		if err := s2.WriteFile(p, "/shared/b", []byte("2")); err != nil {
			t.Fatalf("s2 write: %v", err)
		}
		if err := s1.Commit(p); err != nil {
			t.Fatalf("s1 commit: %v", err)
		}
		if err := s2.Commit(p); err != nil {
			t.Fatalf("disjoint names in a shared directory must commute: %v", err)
		}
		got := tree(t, p, fs, cl)
		if got["/shared/a"] != "1" || got["/shared/b"] != "2" {
			t.Fatalf("merged directory = %v", got)
		}

		// Same name: second committer must conflict, not silently clobber.
		s3 := fs.Begin(cl)
		s4 := fs.Begin(cl)
		if err := s3.WriteFile(p, "/shared/c", []byte("3")); err != nil {
			t.Fatalf("s3 write: %v", err)
		}
		if err := s4.WriteFile(p, "/shared/c", []byte("4")); err != nil {
			t.Fatalf("s4 write: %v", err)
		}
		if err := s3.Commit(p); err != nil {
			t.Fatalf("s3 commit: %v", err)
		}
		if err := s4.Commit(p); !errors.Is(err, faasfs.ErrConflict) {
			t.Fatalf("same-name race = %v, want ErrConflict", err)
		}
	})
}

// Blind appends commute like O_APPEND: concurrent appenders to a shared
// file all commit with no conflicts, and every delta lands exactly once.
// A session that read the file first stays on the validated path and
// conflicts when the file moves under it.
func TestCommutativeAppends(t *testing.T) {
	withFS(t, 6, func(p *sim.Proc, c *core.Cloud, cl *core.Client, fs *faasfs.FS) {
		setup := fs.Begin(cl)
		if err := setup.WriteFile(p, "/spool", []byte("hdr\n")); err != nil {
			t.Fatalf("setup: %v", err)
		}
		if err := setup.Commit(p); err != nil {
			t.Fatalf("setup commit: %v", err)
		}

		sessions := make([]*faasfs.Session, 4)
		for i := range sessions {
			sessions[i] = fs.Begin(cl)
		}
		for i, s := range sessions {
			if err := s.AppendFile(p, "/spool", []byte(fmt.Sprintf("m%d\n", i))); err != nil {
				t.Fatalf("append %d: %v", i, err)
			}
		}
		for i, s := range sessions {
			if err := s.Commit(p); err != nil {
				t.Fatalf("appender %d must commute: %v", i, err)
			}
		}
		data, err := fs.Begin(cl).ReadFile(p, "/spool")
		if err != nil || string(data) != "hdr\nm0\nm1\nm2\nm3\n" {
			t.Fatalf("spool = %q, %v", data, err)
		}
		if st := fs.Stats(); st.Conflicts != 0 {
			t.Fatalf("commuting appends conflicted: %+v", st)
		}

		// Read-then-append stays transactional: the read set pins the file.
		sr := fs.Begin(cl)
		if _, err := sr.ReadFile(p, "/spool"); err != nil {
			t.Fatalf("read: %v", err)
		}
		if err := sr.AppendFile(p, "/spool", []byte("tail\n")); err != nil {
			t.Fatalf("append after read: %v", err)
		}
		sw := fs.Begin(cl)
		if err := sw.AppendFile(p, "/spool", []byte("race\n")); err != nil {
			t.Fatalf("racing append: %v", err)
		}
		if err := sw.Commit(p); err != nil {
			t.Fatalf("racing append commit: %v", err)
		}
		if err := sr.Commit(p); !errors.Is(err, faasfs.ErrConflict) {
			t.Fatalf("read-then-append over a moved file = %v, want ErrConflict", err)
		}

		// Appending within a session that also read it sees its own bytes.
		sv := fs.Begin(cl)
		if err := sv.AppendFile(p, "/spool", []byte("own\n")); err != nil {
			t.Fatalf("append: %v", err)
		}
		data, err = sv.ReadFile(p, "/spool")
		if err != nil || string(data) != "hdr\nm0\nm1\nm2\nm3\nrace\nown\n" {
			t.Fatalf("session view after blind append = %q, %v", data, err)
		}
		if err := sv.Commit(p); err != nil {
			t.Fatalf("commit: %v", err)
		}
	})
}

// prop: a committed transaction's effects equal applying its write set to
// a model map, and the final tree matches the model — across a seeded
// random op stream of sequential transactions.
func TestPropSerializableAgainstModel(t *testing.T) {
	iter := 0
	prop := func(seed int64, raw []byte) bool {
		iter++
		ok := true
		withFS(t, int64(iter), func(p *sim.Proc, c *core.Cloud, cl *core.Client, fs *faasfs.FS) {
			model := map[string]string{}
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < len(raw); i += 4 {
				err := fs.Run(p, cl, nil, func(s *faasfs.Session) error {
					for j := i; j < i+4 && j < len(raw); j++ {
						name := "/f" + strconv.Itoa(int(raw[j]%8))
						if raw[j]%16 < 12 {
							content := strconv.Itoa(int(raw[j])) + strconv.Itoa(rng.Intn(100))
							if err := s.WriteFile(p, name, []byte(content)); err != nil {
								return err
							}
							model[name] = content
						} else if _, exists := model[name]; exists {
							if err := s.Unlink(p, name); err != nil {
								return err
							}
							delete(model, name)
						}
					}
					return nil
				})
				if err != nil {
					t.Errorf("txn: %v", err)
					ok = false
					return
				}
			}
			got := tree(t, p, fs, cl)
			if len(got) != len(model) {
				t.Errorf("tree = %v, model = %v", got, model)
				ok = false
				return
			}
			for k, v := range model {
				if got[k] != v {
					t.Errorf("tree[%q] = %q, model %q", k, got[k], v)
					ok = false
				}
			}
		})
		return ok
	}
	cfg := &quick.Config{MaxCount: 8, Rand: rand.New(rand.NewSource(42))}
	if err := quick.Check(prop, cfg); err != nil {
		t.Fatal(err)
	}
}

// prop: two interleaved sessions with overlapping write sets never both
// commit; with disjoint write sets both do.
func TestPropConflictCompleteness(t *testing.T) {
	iter := 0
	prop := func(aKeys, bKeys []uint8) bool {
		iter++
		ok := true
		withFS(t, int64(iter)+100, func(p *sim.Proc, c *core.Cloud, cl *core.Client, fs *faasfs.FS) {
			// Seed every possible file so all writes hit existing objects.
			err := fs.Run(p, cl, nil, func(s *faasfs.Session) error {
				for i := 0; i < 8; i++ {
					if err := s.WriteFile(p, "/k"+strconv.Itoa(i), []byte("base")); err != nil {
						return err
					}
				}
				return nil
			})
			if err != nil {
				t.Errorf("seed: %v", err)
				ok = false
				return
			}
			overlap := map[string]bool{}
			aSet := map[string]bool{}
			for _, k := range aKeys {
				aSet["/k"+strconv.Itoa(int(k%8))] = true
			}
			bSet := map[string]bool{}
			for _, k := range bKeys {
				name := "/k" + strconv.Itoa(int(k%8))
				bSet[name] = true
				if aSet[name] {
					overlap[name] = true
				}
			}
			if len(aSet) == 0 || len(bSet) == 0 {
				return
			}
			sa := fs.Begin(cl)
			sb := fs.Begin(cl)
			for i := 0; i < 8; i++ {
				name := "/k" + strconv.Itoa(i)
				if aSet[name] {
					if err := sa.WriteFile(p, name, []byte("a")); err != nil {
						t.Errorf("a write: %v", err)
						ok = false
					}
				}
				if bSet[name] {
					if err := sb.WriteFile(p, name, []byte("b")); err != nil {
						t.Errorf("b write: %v", err)
						ok = false
					}
				}
			}
			errA := sa.Commit(p)
			errB := sb.Commit(p)
			if errA != nil {
				t.Errorf("first committer must win: %v", errA)
				ok = false
			}
			if len(overlap) > 0 {
				if !errors.Is(errB, faasfs.ErrConflict) {
					t.Errorf("overlapping commit = %v, want conflict (overlap %v)", errB, overlap)
					ok = false
				}
			} else if errB != nil {
				t.Errorf("disjoint commit = %v, want nil", errB)
				ok = false
			}
		})
		return ok
	}
	cfg := &quick.Config{MaxCount: 12, Rand: rand.New(rand.NewSource(7))}
	if err := quick.Check(prop, cfg); err != nil {
		t.Fatal(err)
	}
}

// prop: an aborted session leaves no partial state — the committed tree
// before and after is byte-identical, whatever the session did.
func TestPropAbortLeavesNoPartialState(t *testing.T) {
	iter := 0
	prop := func(raw []byte) bool {
		iter++
		ok := true
		withFS(t, int64(iter)+200, func(p *sim.Proc, c *core.Cloud, cl *core.Client, fs *faasfs.FS) {
			err := fs.Run(p, cl, nil, func(s *faasfs.Session) error {
				if err := s.Mkdir(p, "/d"); err != nil {
					return err
				}
				return s.WriteFile(p, "/d/keep", []byte("stable"))
			})
			if err != nil {
				t.Errorf("seed txn: %v", err)
				ok = false
				return
			}
			before := tree(t, p, fs, cl)
			s := fs.Begin(cl)
			for i, b := range raw {
				name := "/d/tmp" + strconv.Itoa(i%4)
				switch b % 4 {
				case 0:
					_ = s.WriteFile(p, name, []byte{b})
				case 1:
					_ = s.Mkdir(p, "/d/sub"+strconv.Itoa(i%3))
				case 2:
					_ = s.WriteFile(p, "/d/keep", []byte("dirty"))
				case 3:
					_ = s.Unlink(p, "/d/keep")
				}
			}
			s.Abort()
			after := tree(t, p, fs, cl)
			if len(before) != len(after) {
				t.Errorf("abort leaked state: %v -> %v", before, after)
				ok = false
				return
			}
			for k, v := range before {
				if after[k] != v {
					t.Errorf("abort mutated %q: %q -> %q", k, v, after[k])
					ok = false
				}
			}
		})
		return ok
	}
	cfg := &quick.Config{MaxCount: 10, Rand: rand.New(rand.NewSource(11))}
	if err := quick.Check(prop, cfg); err != nil {
		t.Fatal(err)
	}
}
