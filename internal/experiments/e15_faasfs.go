package experiments

import (
	"fmt"
	"path"
	"strconv"
	"strings"
	"time"

	"repro/internal/cluster"
	"repro/internal/consistency"
	"repro/internal/core"
	"repro/internal/faasfs"
	"repro/internal/fault"
	"repro/internal/media"
	"repro/internal/metrics"
	"repro/internal/nfsbase"
	"repro/internal/object"
	"repro/internal/platform"
	"repro/internal/restbase"
	"repro/internal/sim"
	"repro/internal/simnet"
)

// E15 reproduces the FaaSFS argument (PAPERS.md): serverless functions
// sharing a transactional POSIX file system beat both a stateful NFS
// mount and a stateless REST store on chatty application traces, while
// optimistic commit keeps concurrent writers serializable — the two
// baselines silently lose updates under the same contention.
//
// Three POSIX app traces run as task graphs on identical deployments:
//
//   - build: parallel compiles read a source tree chunk-by-chunk and
//     rename outputs into a shared directory, then a link step joins them;
//   - pagestore: SQLite-like page store — concurrent writers read the
//     header and two pages, modify them, write back, bump the commit
//     counter;
//   - mailspool: concurrent delivery agents append to one mailbox.
//
// The arms differ only in the storage path the handlers use: faasfs
// sessions with optimistic commit, per-invocation NFS mounts against a
// disk-backed file server (the §2.1 calibration), or REST calls through
// the stateless gateway.

func init() {
	register(Experiment{ID: "E15", Title: "FaaSFS shape: transactional POSIX traces — faasfs vs NFS vs REST", fn: runE15})
}

const (
	// e15Chunk is the POSIX I/O granularity: applications read and write
	// in small buffers, which the session absorbs locally and the remote
	// baselines pay per call.
	e15Chunk    = 256
	e15SrcSize  = 4096
	e15PageSize = 4096
	e15Builds   = 8
	e15Pages    = 8
	e15Writers  = 4
	e15Rounds   = 4
	e15Deliver  = 8
	// e15Exec is the compile step's compute time.
	e15Exec = 200 * time.Microsecond
)

// e15Mode selects an arm's storage path.
type e15Mode int

const (
	e15FaaSFS e15Mode = iota
	e15NFS
	e15REST
)

// e15Modes lists the arms in report order.
var e15Modes = []e15Mode{e15FaaSFS, e15NFS, e15REST}

func (m e15Mode) String() string { return [...]string{"faasfs", "nfs", "rest"}[m] }

// e15Arm collects one deployment's trace results.
type e15Arm struct {
	mode                e15Mode
	build, pages, spool time.Duration
	failures            int
	err                 error
	stats               faasfs.Stats
	headerGot           int
	spoolGot            int
	appOK               bool
}

func (a *e15Arm) lost() int {
	want := e15Writers*e15Rounds + e15Deliver
	return want - a.headerGot - a.spoolGot
}

// Deterministic trace content.

func e15Src(i int) []byte {
	b := make([]byte, e15SrcSize)
	for j := range b {
		b[j] = byte(i*31 + j)
	}
	return b
}

func e15Compile(i int, src []byte) []byte {
	out := make([]byte, e15PageSize)
	for j := range out {
		out[j] = src[(j*3)%len(src)] ^ byte(i)
	}
	return out
}

func e15App() []byte {
	sum := 0
	for i := 0; i < e15Builds; i++ {
		for _, c := range e15Compile(i, e15Src(i)) {
			sum += int(c)
		}
	}
	return []byte(fmt.Sprintf("link %d objs sum=%08x\n", e15Builds, sum))
}

func e15Header(n int) []byte { return []byte(fmt.Sprintf("%08d", n)) }

// e15IO is the file surface the traces are written against: whole-file
// read and write, publish (create a build output so readers never see it
// half-written, where the store can), and append. Each arm supplies it
// through its own storage path; the traces never name one.
type e15IO interface {
	read(path string) ([]byte, error)
	write(path string, data []byte) error
	publish(path string, data []byte) error
	append(path string, data []byte) error
}

// e15Store is one arm's storage path. setup loads the initial tree; unit
// runs fn as one unit of application work on the node cl sits on — a
// transaction where the store has them, re-run from the top when it
// conflicts. A unit with commit false only reads.
type e15Store interface {
	setup(p *sim.Proc, cl *core.Client, files []e15File) error
	unit(p *sim.Proc, cl *core.Client, commit bool, fn func(e15IO) error) error
}

// e15File is one entry of the initial tree. Build outputs are
// pre-created only by the arms whose protocol cannot create a file.
type e15File struct {
	path   string
	data   []byte
	output bool
}

// e15Tree lists the initial tree, in the order the NFS and REST arms
// export it (object IDs, and so placement, follow creation order).
func e15Tree() []e15File {
	var files []e15File
	for i := 0; i < e15Builds; i++ {
		files = append(files,
			e15File{path: fmt.Sprintf("src/f%d.c", i), data: e15Src(i)},
			e15File{path: fmt.Sprintf("obj/f%d.o", i), output: true})
	}
	files = append(files,
		e15File{path: "bin/app", output: true},
		e15File{path: "db/header", data: e15Header(0)})
	for i := 0; i < e15Pages; i++ {
		files = append(files, e15File{path: fmt.Sprintf("db/page%d", i), data: e15Mutate(0, e15Src(i)[:e15PageSize])})
	}
	return append(files, e15File{path: "spool/mbox"})
}

// e15ReadChunks reads to EOF in e15Chunk-sized calls, as a POSIX
// application does; next returns the chunk at the given offset.
func e15ReadChunks(next func(off int64) ([]byte, error)) ([]byte, error) {
	var out []byte
	for {
		b, err := next(int64(len(out)))
		if err != nil {
			return nil, err
		}
		out = append(out, b...)
		if len(b) < e15Chunk {
			return out, nil
		}
	}
}

// e15WriteChunks hands data to put in e15Chunk-sized pieces.
func e15WriteChunks(data []byte, put func(off int64, chunk []byte) error) error {
	for off := 0; off < len(data); off += e15Chunk {
		if err := put(int64(off), data[off:min(off+e15Chunk, len(data))]); err != nil {
			return err
		}
	}
	return nil
}

// e15OpenStore builds the arm's storage path on a fresh deployment; the
// faasfs arm leaves its commit telemetry in stats.
func e15OpenStore(mode e15Mode, cloud *core.Cloud, stats *faasfs.Stats) e15Store {
	switch mode {
	case e15FaaSFS:
		// Conflict retries back off on the scale of a commit, not a
		// network timeout: the loser should re-run as soon as the winner's
		// install is visible.
		pol := (&fault.Policy{
			MaxAttempts: 500,
			Backoff: fault.Backoff{
				Base: 50 * time.Microsecond, Cap: 800 * time.Microsecond,
				Factor: 2, JitterFrac: 0.5,
			},
		}).Bind(cloud.Env())
		return &e15Sessions{pol: pol, stats: stats}
	case e15NFS:
		return e15Mounts{nfsbase.NewServer(cloud.Net(), media.Disk)}
	default:
		return e15Gateway{
			gw:  restbase.NewGateway(cloud.Net(), cloud.Group(), restbase.DefaultConfig()),
			ids: make(map[string]object.ID),
		}
	}
}

// e15Sessions is the faasfs arm: every unit is one session, absorbing
// chunked I/O locally and paying one optimistic commit.
type e15Sessions struct {
	fs    *faasfs.FS
	pol   *fault.Policy
	stats *faasfs.Stats
}

func (st *e15Sessions) setup(p *sim.Proc, cl *core.Client, files []e15File) error {
	var err error
	st.fs, err = faasfs.Mount(p, cl, faasfs.Config{})
	if err != nil {
		return err
	}
	return st.fs.Run(p, cl, nil, func(s *faasfs.Session) error {
		// Directories first: object IDs, and so placement, follow creation
		// order.
		made := map[string]bool{}
		for _, f := range files {
			if dir := "/" + path.Dir(f.path); !made[dir] {
				made[dir] = true
				if err := s.Mkdir(p, dir); err != nil {
					return err
				}
			}
		}
		for _, f := range files {
			if f.output {
				continue
			}
			if err := s.WriteFile(p, "/"+f.path, f.data); err != nil {
				return err
			}
		}
		return nil
	})
}

func (st *e15Sessions) unit(p *sim.Proc, cl *core.Client, commit bool, fn func(e15IO) error) error {
	if commit {
		return st.fs.Run(p, cl, st.pol, func(s *faasfs.Session) error { return fn(e15SessionIO{p, s}) })
	}
	s := st.fs.Begin(cl)
	err := fn(e15SessionIO{p, s})
	// The telemetry is read before this snapshot's own Abort is counted:
	// after it the table shows one more abort than there were conflicts.
	*st.stats = st.fs.Stats()
	s.Abort()
	return err
}

type e15SessionIO struct {
	p *sim.Proc
	s *faasfs.Session
}

func (f e15SessionIO) read(path string) ([]byte, error) {
	fd, err := f.s.Open(f.p, "/"+path)
	if err != nil {
		return nil, err
	}
	defer f.s.Close(fd)
	return e15ReadChunks(func(int64) ([]byte, error) { return f.s.Read(f.p, fd, e15Chunk) })
}

func (f e15SessionIO) write(path string, data []byte) error {
	fd, err := f.s.Creat(f.p, "/"+path)
	if err != nil {
		return err
	}
	defer f.s.Close(fd)
	return e15WriteChunks(data, func(_ int64, chunk []byte) error {
		_, err := f.s.Write(f.p, fd, chunk)
		return err
	})
}

func (f e15SessionIO) publish(path string, data []byte) error {
	if err := f.write(path+".tmp", data); err != nil {
		return err
	}
	return f.s.Rename(f.p, "/"+path+".tmp", "/"+path)
}

func (f e15SessionIO) append(path string, data []byte) error {
	return f.s.AppendFile(f.p, "/"+path, data)
}

// e15Mounts is the NFS arm: a disk-backed file server (the §2.1
// calibration) and one mount per unit, so every chunk is a round trip
// plus the server's media access.
type e15Mounts struct{ srv *nfsbase.Server }

func (st e15Mounts) setup(p *sim.Proc, cl *core.Client, files []e15File) error {
	for _, f := range files {
		if err := st.srv.Export(f.path, f.data); err != nil {
			return err
		}
	}
	return nil
}

func (st e15Mounts) unit(p *sim.Proc, cl *core.Client, commit bool, fn func(e15IO) error) error {
	m, err := st.srv.Mount(p, cl.Node())
	if err != nil {
		return err
	}
	return fn(&e15MountIO{p: p, m: m, handles: map[string]*nfsbase.Handle{}})
}

// e15MountIO keeps the handles a unit has looked up: an application holds
// its descriptors between a read and the write-back, so each path costs
// one Lookup per unit.
type e15MountIO struct {
	p       *sim.Proc
	m       *nfsbase.Mount
	handles map[string]*nfsbase.Handle
}

func (f *e15MountIO) handle(path string) (*nfsbase.Handle, error) {
	if h, ok := f.handles[path]; ok {
		return h, nil
	}
	h, err := f.m.Lookup(f.p, path)
	if err == nil {
		f.handles[path] = h
	}
	return h, err
}

func (f *e15MountIO) read(path string) ([]byte, error) {
	h, err := f.handle(path)
	if err != nil {
		return nil, err
	}
	return e15ReadChunks(func(off int64) ([]byte, error) { return f.m.Read(f.p, h, off, e15Chunk) })
}

func (f *e15MountIO) write(path string, data []byte) error {
	h, err := f.handle(path)
	if err != nil {
		return err
	}
	return e15WriteChunks(data, func(off int64, chunk []byte) error { return f.m.Write(f.p, h, off, chunk) })
}

// publish writes in place: the protocol has no atomic rename.
func (f *e15MountIO) publish(path string, data []byte) error { return f.write(path, data) }

// append finds EOF by reading, then writes there: the race the
// transactional arm does not have.
func (f *e15MountIO) append(path string, data []byte) error {
	cur, err := f.read(path)
	if err != nil {
		return err
	}
	return f.m.Write(f.p, f.handles[path], int64(len(cur)), data)
}

// e15Gateway is the REST arm: whole-object calls through the stateless
// gateway, each paying the envelope and a credential check.
type e15Gateway struct {
	gw  *restbase.Gateway
	ids map[string]object.ID
}

const e15Creds = "e15"

func (st e15Gateway) setup(p *sim.Proc, cl *core.Client, files []e15File) error {
	node := cl.Node()
	for _, f := range files {
		id, err := st.gw.Create(p, node, e15Creds, object.Regular)
		if err != nil {
			return err
		}
		st.ids[f.path] = id
		if err := st.gw.Put(p, node, e15Creds, id, f.data, consistency.Linearizable); err != nil {
			return err
		}
	}
	return nil
}

func (st e15Gateway) unit(p *sim.Proc, cl *core.Client, commit bool, fn func(e15IO) error) error {
	return fn(e15GatewayIO{st, p, cl.Node()})
}

type e15GatewayIO struct {
	e15Gateway
	p    *sim.Proc
	node simnet.NodeID
}

func (f e15GatewayIO) read(path string) ([]byte, error) {
	return f.gw.Get(f.p, f.node, e15Creds, f.ids[path], consistency.Linearizable)
}

func (f e15GatewayIO) write(path string, data []byte) error {
	return f.gw.Put(f.p, f.node, e15Creds, f.ids[path], data, consistency.Linearizable)
}

func (f e15GatewayIO) publish(path string, data []byte) error { return f.write(path, data) }

func (f e15GatewayIO) append(path string, data []byte) error {
	cur, err := f.read(path)
	if err != nil {
		return err
	}
	return f.write(path, append(append([]byte(nil), cur...), data...))
}

// e15Pair picks writer k's two page indices for round j (distinct).
func e15Pair(k, j int) (int, int) {
	a := (k + j) % e15Pages
	b := (a + 1 + k%3) % e15Pages
	if b == a {
		b = (a + 1) % e15Pages
	}
	return a, b
}

func e15Mutate(k int, page []byte) []byte {
	out := make([]byte, len(page))
	for j := range out {
		out[j] = page[(j+1)%len(page)] ^ byte(k+1)
	}
	return out
}

// e15Run runs the three traces and the audit on one arm. The trace logic
// is written once, against e15IO; only e15OpenStore knows the arm.
func e15Run(rn run, mode e15Mode) *e15Arm {
	opts := rn.options()
	opts.ClusterCfg = cluster.Config{
		Racks: 2, NodesPerRack: 4,
		NodeCap: cluster.Resources{MilliCPU: 4000, MemMB: 16384},
	}
	cloud := core.New(opts)
	client := cloud.NewClient(0)
	env := cloud.Env()
	arm := &e15Arm{mode: mode}
	st := e15OpenStore(mode, cloud, &arm.stats)

	// handler adapts a trace step to a function body: the step is one unit
	// of work on the invocation's node, given the task's index.
	handler := func(step func(rp *sim.Proc, i int, io e15IO) error) core.HandlerFunc {
		return func(fc *core.FnCtx) error {
			rp, i := fc.Proc(), int(fc.Body[0])
			return st.unit(rp, &fc.Client, true, func(io e15IO) error { return step(rp, i, io) })
		}
	}

	compile := handler(func(rp *sim.Proc, i int, io e15IO) error {
		src, err := io.read(fmt.Sprintf("src/f%d.c", i))
		if err != nil {
			return err
		}
		out := e15Compile(i, src)
		rp.Sleep(e15Exec)
		return io.publish(fmt.Sprintf("obj/f%d.o", i), out)
	})

	link := handler(func(rp *sim.Proc, _ int, io e15IO) error {
		sum := 0
		for i := 0; i < e15Builds; i++ {
			b, err := io.read(fmt.Sprintf("obj/f%d.o", i))
			if err != nil {
				return err
			}
			for _, c := range b {
				sum += int(c)
			}
		}
		return io.write("bin/app", []byte(fmt.Sprintf("link %d objs sum=%08x\n", e15Builds, sum)))
	})

	// dbwriter runs e15Rounds transactions, each its own unit: read the
	// header and two pages, modify them, write back, bump the counter.
	dbwriter := func(fc *core.FnCtx) error {
		k := int(fc.Body[0])
		for j := 0; j < e15Rounds; j++ {
			a, b := e15Pair(k, j)
			pa, pb := fmt.Sprintf("db/page%d", a), fmt.Sprintf("db/page%d", b)
			err := st.unit(fc.Proc(), &fc.Client, true, func(io e15IO) error {
				hb, err := io.read("db/header")
				if err != nil {
					return err
				}
				n, err := strconv.Atoi(string(hb))
				if err != nil {
					return err
				}
				da, err := io.read(pa)
				if err != nil {
					return err
				}
				db, err := io.read(pb)
				if err != nil {
					return err
				}
				if err := io.write(pa, e15Mutate(k, da)); err != nil {
					return err
				}
				if err := io.write(pb, e15Mutate(k, db)); err != nil {
					return err
				}
				return io.write("db/header", e15Header(n+1))
			})
			if err != nil {
				return err
			}
		}
		return nil
	}

	deliver := handler(func(_ *sim.Proc, d int, io e15IO) error {
		return io.append("spool/mbox", []byte(fmt.Sprintf("msg %02d\n", d)))
	})

	// Final-state audit, through the arm's own read path.
	audit := func(io e15IO) error {
		header, err := io.read("db/header")
		if err != nil {
			return err
		}
		mbox, err := io.read("spool/mbox")
		if err != nil {
			return err
		}
		app, err := io.read("bin/app")
		if err != nil {
			return err
		}
		arm.headerGot, _ = strconv.Atoi(string(header))
		arm.spoolGot = strings.Count(string(mbox), "\n")
		arm.appOK = string(app) == string(e15App())
		return nil
	}

	env.Go("driver", func(p *sim.Proc) {
		if err := st.setup(p, client, e15Tree()); err != nil {
			arm.err = fmt.Errorf("setup: %w", err)
			return
		}
		fns := map[string]core.Ref{}
		for _, f := range []struct {
			name string
			h    core.HandlerFunc
		}{{"compile", compile}, {"link", link}, {"dbwriter", dbwriter}, {"deliver", deliver}} {
			ref, err := client.RegisterFunction(p, core.FnConfig{
				Name: f.name, Kind: platform.Wasm, Res: cluster.Resources{MilliCPU: 990, MemMB: 256},
				TypicalExec: e15Exec, Handler: f.h,
			})
			if err != nil {
				arm.err = err
				return
			}
			fns[f.name] = ref
		}
		// fanout is n parallel tasks of one function, task i carrying i.
		fanout := func(prefix, fn string, n int) (tasks []core.GraphTask, names []string) {
			for i := 0; i < n; i++ {
				name := prefix + strconv.Itoa(i)
				tasks = append(tasks, core.GraphTask{Name: name, Fn: fns[fn], Body: []byte{byte(i)}})
				names = append(names, name)
			}
			return tasks, names
		}
		runTrace := func(tasks []core.GraphTask) time.Duration {
			start := p.Now()
			res, gerr := client.RunGraph(p, tasks)
			if gerr != nil {
				arm.failures++
			}
			for _, tr := range res {
				if tr != nil && tr.Err != nil {
					arm.failures++
				}
			}
			return p.Now().Sub(start)
		}

		build, objs := fanout("cc", "compile", e15Builds)
		arm.build = runTrace(append(build, core.GraphTask{Name: "link", Fn: fns["link"], Body: []byte{0}, After: objs}))
		dbg, _ := fanout("w", "dbwriter", e15Writers)
		arm.pages = runTrace(dbg)
		spool, _ := fanout("d", "deliver", e15Deliver)
		arm.spool = runTrace(spool)
		arm.err = st.unit(p, client, false, audit)
	})
	env.Run()
	cloud.Runtime().Drain()
	return arm
}

func runE15(rn run) *Report {
	r := &Report{ID: "E15", Title: "FaaSFS shape: transactional POSIX traces — faasfs vs NFS vs REST"}
	arms := make([]*e15Arm, len(e15Modes))
	rn.fan(len(e15Modes), func(i int) bool { arms[i] = e15Run(rn, e15Modes[i]); return true })
	ffs, nfs, rest := arms[0], arms[1], arms[2]

	for _, a := range arms {
		if a.err != nil {
			r.Check("arm-"+a.mode.String(), false, "arm error: %v", a.err)
			return r
		}
	}

	t1 := metrics.NewTable(
		fmt.Sprintf("Trace makespans: %d-file build + link, %d writers × %d txns on %d pages, %d mail deliveries (%d B I/O chunks)",
			e15Builds, e15Writers, e15Rounds, e15Pages, e15Deliver, e15Chunk),
		"Arm", "Build", "Page store", "Mail spool", "Task failures")
	for _, a := range arms {
		t1.Row(a.mode.String(), metrics.FmtDuration(a.build), metrics.FmtDuration(a.pages),
			metrics.FmtDuration(a.spool), a.failures)
	}
	t1.Note("faasfs sessions absorb chunked I/O locally and pay one commit; NFS pays a disk round trip per chunk; REST pays the stateless envelope per object")
	r.Tables = append(r.Tables, t1)

	wantHeader := e15Writers * e15Rounds
	t2 := metrics.NewTable("Correctness under concurrent writers",
		"Arm", "DB commits (want "+strconv.Itoa(wantHeader)+")", "Mail lines (want "+strconv.Itoa(e15Deliver)+")", "Lost updates", "Link output")
	for _, a := range arms {
		app := "ok"
		if !a.appOK {
			app = "CORRUPT"
		}
		t2.Row(a.mode.String(), a.headerGot, a.spoolGot, a.lost(), app)
	}
	t2.Note("the baselines race read-modify-write; faasfs aborts and retries conflicting transactions until they serialize")
	r.Tables = append(r.Tables, t2)

	st := ffs.stats
	t3 := metrics.NewTable("faasfs optimistic-commit telemetry",
		"Commits", "Conflicts", "Aborts", "Replays", "Conflict rate")
	t3.Row(st.Commits, st.Conflicts, st.Aborts, st.Replays, fmt.Sprintf("%.1f%%", 100*st.ConflictRate()))
	t3.Note("every abort in this run is a conflict abort; each conflicted transaction re-runs under the retry policy until it commits")
	r.Tables = append(r.Tables, t3)

	r.Check("arms-complete", ffs.failures == 0 && nfs.failures == 0 && rest.failures == 0,
		"every task completes: %d/%d/%d failures across faasfs/nfs/rest",
		ffs.failures, nfs.failures, rest.failures)
	wantCommits := int64(1 + e15Builds + 1 + e15Writers*e15Rounds + e15Deliver)
	r.Check("faasfs-serializable",
		ffs.headerGot == wantHeader && ffs.spoolGot == e15Deliver && ffs.appOK && st.Commits == wantCommits,
		"faasfs: %d/%d db commits, %d/%d mail lines, link ok=%v, %d committed txns (want %d) — no lost updates",
		ffs.headerGot, wantHeader, ffs.spoolGot, e15Deliver, ffs.appOK, st.Commits, wantCommits)
	r.Check("conflicts-observed-and-retried",
		st.Conflicts > 0 && st.Aborts == st.Conflicts,
		"%d conflicts detected and retried to success (%d aborts, %.1f%% conflict rate)",
		st.Conflicts, st.Aborts, 100*st.ConflictRate())
	r.Check("baselines-lose-updates",
		nfs.lost() > 0 && rest.lost() > 0,
		"nfs loses %d updates, rest loses %d — unsynchronized read-modify-write under the same traces",
		nfs.lost(), rest.lost())
	r.Check("faasfs-beats-nfs",
		ffs.build+ffs.pages+ffs.spool < nfs.build+nfs.pages+nfs.spool,
		"total trace time %v (faasfs) vs %v (nfs)",
		metrics.FmtDuration(ffs.build+ffs.pages+ffs.spool), metrics.FmtDuration(nfs.build+nfs.pages+nfs.spool))
	r.Check("faasfs-beats-rest",
		ffs.build+ffs.pages+ffs.spool < rest.build+rest.pages+rest.spool,
		"total trace time %v (faasfs) vs %v (rest)",
		metrics.FmtDuration(ffs.build+ffs.pages+ffs.spool), metrics.FmtDuration(rest.build+rest.pages+rest.spool))
	return r
}
