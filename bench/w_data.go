package main

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"

	"repro/internal/metrics"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/pcsi"
)

// dataWorkload is data-read or data-write: 16 closed-loop client procs over
// 3 racks driving pcsi.Client verbs against one cloud with every optional
// hook on the path (function cache, retry policy, admission control with
// limits above the offered load, so none sheds). Both use the same cloud and
// the same object population; they differ only in the verb mix. op = one
// pcsi.Client verb.
type dataWorkload struct{ write bool }

// Population and load at full size.
const (
	dataProcs     = 16
	dataRacks     = 3
	dataBlobs     = 4096 // Regular objects: the issue's population
	dataLogs      = 512  // AppendOnly objects, 64-byte records
	dataTables    = 256  // Regular objects of tableSlots fixed records
	tableSlots    = 16
	tableRecLen   = 256
	dataReadOps   = 150_000
	dataWriteOps  = 50_000
	zipfS         = 1.1
	cacheEntries  = 1024 // per-node lease cache: a quarter of the blobs
	qosDataLimit  = 64   // admission limit, above the 16 offered
	setupHorizon  = sim.Time(3600e9)
	createRecLen  = 256
	maxViolations = 8
)

// blobSizePattern assigns sizes by object index, period 20: 64 B/1 KiB/4 KiB/
// 64 KiB at 40/40/15/5%. A key's Zipf rank is its index, and its size and
// level are fixed functions of the index, so every seed sees the same joint
// distribution of popularity, size and consistency level; the seed decides
// the order and choice of ops, not whether the hottest key happens to be a
// 64 KiB linearizable object.
var blobSizePattern = [20]int{
	64, 1 << 10, 64, 1 << 10, 4 << 10, 64, 1 << 10, 64, 1 << 10, 4 << 10,
	64, 1 << 10, 64, 1 << 10, 4 << 10, 64, 1 << 10, 64, 1 << 10, 64 << 10,
}

// linearizable reports the level of object i: levels alternate, and the
// alternation flips every size period so each size occurs at both levels.
func linearizable(i int) bool { return i%2 == (i/len(blobSizePattern))%2 }

type opKind uint8

const (
	opGet opKind = iota
	opReadAt
	opStat
	opPut
	opAppend
	opWriteAt
	opGetLog
	opGetTable
	opCreate // composite: Create, Put, Freeze, Get (each a verb), then Drop
	opFreeze // counted only
	numOpKinds
)

var opNames = [numOpKinds]string{"get", "readat", "stat", "put", "append", "writeat", "getlog", "gettable", "create", "freeze"}

// op is one generated action against the population.
type op struct {
	kind opKind
	obj  int32 // index within its population
	slot int32 // table record
	off  int32 // ReadAt offset
	n    int32 // ReadAt length
}

// objSpec is one populated object and what the generator knows about it.
type objSpec struct {
	ref  pcsi.Ref
	size int
	lin  bool
}

// population is the object set plus the oracle's model of it.
type population struct {
	blobs, logs, tables []objSpec
	blobReg             []*register
	tableReg            [][tableSlots]*register
	logModel            []*logModel
}

// dataCloudOptions is the one configuration both data workloads (and the
// full-configuration ladder rungs) run on.
func dataCloudOptions(seed int64) pcsi.Options {
	opts := pcsi.DefaultOptions()
	opts.Seed = seed
	opts.FnCache = &pcsi.FnCacheConfig{MaxEntriesPerNode: cacheEntries}
	opts.Retry = pcsi.DefaultRetryPolicy()
	opts.QoS = &pcsi.QoSConfig{Data: pcsi.QoSClassConfig{MaxConcurrency: qosDataLimit}}
	return opts
}

func scaled(n, scale, floor int) int {
	if n/scale < floor {
		return floor
	}
	return n / scale
}

// populate creates and fills the population through the client API. Objects
// at the eventual level are written once from each rack, because an eventual
// write lands on the writer's closest replica only.
func populate(p *sim.Proc, loaders []*pcsi.Client, scale int) (*population, error) {
	pop := &population{}
	nb, nl, nt := scaled(dataBlobs, scale, 32), scaled(dataLogs, scale, 8), scaled(dataTables, scale, 8)
	buf := make([]byte, templateLen)
	create := func(i int, appendOnly bool) (objSpec, error) {
		lvl, mut := pcsi.Linearizable, pcsi.Mutable
		if !linearizable(i) {
			lvl = pcsi.Eventual
		}
		if appendOnly {
			mut = pcsi.AppendOnly
		}
		ref, err := loaders[0].Create(p, pcsi.Regular, pcsi.WithConsistency(lvl), pcsi.WithMutability(mut))
		return objSpec{ref: ref, lin: linearizable(i)}, err
	}
	put := func(spec objSpec, data []byte) error {
		if spec.lin {
			return loaders[0].Put(p, spec.ref, data)
		}
		for _, l := range loaders {
			if err := l.Put(p, spec.ref, data); err != nil {
				return err
			}
		}
		return nil
	}
	for i := 0; i < nb; i++ {
		size := blobSizePattern[i%len(blobSizePattern)]
		spec, err := create(i, false)
		if err != nil {
			return nil, err
		}
		spec.size = size
		reg := newRegister()
		v := reg.begin(int64(p.Now()))
		fillRecord(buf[:size], uint32(i), 0, v)
		if err := put(spec, buf[:size]); err != nil {
			return nil, err
		}
		reg.finish(v, int64(p.Now()))
		pop.blobs = append(pop.blobs, spec)
		pop.blobReg = append(pop.blobReg, reg)
	}
	for i := 0; i < nl; i++ {
		spec, err := create(i, true)
		if err != nil {
			return nil, err
		}
		pop.logs = append(pop.logs, spec)
		pop.logModel = append(pop.logModel, &logModel{})
	}
	for i := 0; i < nt; i++ {
		spec, err := create(i, false)
		if err != nil {
			return nil, err
		}
		spec.size = tableSlots * tableRecLen
		var regs [tableSlots]*register
		start := int64(p.Now())
		for s := 0; s < tableSlots; s++ {
			regs[s] = newRegister()
			v := regs[s].begin(start)
			fillRecord(buf[s*tableRecLen:(s+1)*tableRecLen], pop.tableIdx(i), uint32(s), v)
		}
		if err := put(spec, buf[:spec.size]); err != nil {
			return nil, err
		}
		for s := 0; s < tableSlots; s++ {
			regs[s].finish(1, int64(p.Now()))
		}
		pop.tables = append(pop.tables, spec)
		pop.tableReg = append(pop.tableReg, regs)
	}
	return pop, nil
}

// Object indices written into payloads: blobs first, then logs, then tables.
func (pop *population) logIdx(i int) uint32 { return uint32(len(pop.blobs) + i) }
func (pop *population) tableIdx(i int) uint32 {
	return uint32(len(pop.blobs) + len(pop.logs) + i)
}

// keyPicker draws Zipf-ranked keys; rank r is object r of the population.
type keyPicker struct{ z *rand.Zipf }

func newKeyPicker(rng *rand.Rand, n int) keyPicker {
	return keyPicker{rand.NewZipf(rng, zipfS, 1, uint64(n-1))}
}

func (k keyPicker) pick() int32 { return int32(k.z.Uint64()) }

// genStreams builds every proc's op stream from the seed.
func (w dataWorkload) genStreams(rng *rand.Rand, pop *population, scale int) [][]op {
	total := dataReadOps
	if w.write {
		total = dataWriteOps
	}
	perProc := scaled(total, scale, dataProcs) / dataProcs
	blobKeys := newKeyPicker(rng, len(pop.blobs))
	logKeys := newKeyPicker(rng, len(pop.logs))
	tableKeys := newKeyPicker(rng, len(pop.tables))
	readAt := func() op {
		obj := blobKeys.pick()
		size := pop.blobs[obj].size
		n := []int{64, 256, 1024}[rng.Intn(3)]
		off := rng.Intn(size/64) * 64
		return op{kind: opReadAt, obj: obj, off: int32(off), n: int32(n)}
	}
	streams := make([][]op, dataProcs)
	for pi := range streams {
		ops := make([]op, 0, perProc)
		for len(ops) < perProc {
			u := rng.Float64()
			switch {
			case !w.write && u < 0.70:
				ops = append(ops, op{kind: opGet, obj: blobKeys.pick()})
			case !w.write && u < 0.85:
				ops = append(ops, readAt())
			case !w.write && u < 0.95:
				ops = append(ops, op{kind: opStat, obj: blobKeys.pick()})
			case !w.write:
				ops = append(ops, op{kind: opPut, obj: blobKeys.pick()})
			case u < 0.45:
				ops = append(ops, op{kind: opPut, obj: blobKeys.pick()})
			case u < 0.70:
				ops = append(ops, op{kind: opAppend, obj: logKeys.pick()})
			case u < 0.85:
				ops = append(ops, op{kind: opWriteAt, obj: tableKeys.pick(), slot: int32(rng.Intn(tableSlots))})
			case u < 0.90:
				ops = append(ops, op{kind: opCreate})
			case u < 0.97:
				ops = append(ops, op{kind: opGet, obj: blobKeys.pick()})
			case u < 0.985:
				ops = append(ops, op{kind: opGetLog, obj: logKeys.pick()})
			default:
				ops = append(ops, op{kind: opGetTable, obj: tableKeys.pick()})
			}
		}
		streams[pi] = ops
	}
	return streams
}

// dataProc is one closed-loop client: it issues its next verb when the
// previous one returns.
type dataProc struct {
	id      int32
	cl      *pcsi.Client
	pop     *population
	rec     *recorder
	buf     []byte
	virtNS  []int64
	counts  [numOpKinds]int64
	failed  int64
	created uint32
	bad     []string
}

func (d *dataProc) violation(format string, args ...any) {
	if len(d.bad) < maxViolations {
		d.bad = append(d.bad, fmt.Sprintf("proc %d: ", d.id)+fmt.Sprintf(format, args...))
	}
}

// pre and post bracket one client call: host span, virtual latency, verb
// and failure counts. post reports whether the call succeeded.
func (d *dataProc) pre(p *sim.Proc) (v0 sim.Time, th int64) {
	return p.Now(), d.rec.begin()
}

func (d *dataProc) post(p *sim.Proc, kind opKind, name string, req int64, v0 sim.Time, th int64, err error) bool {
	d.rec.end(name, th, d.id, req)
	d.virtNS = append(d.virtNS, int64(p.Now().Sub(v0)))
	d.counts[kind]++
	if err != nil {
		d.failed++
		d.violation("%s failed: %v", name, err)
		return false
	}
	return true
}

func (d *dataProc) run(p *sim.Proc, ops []op) {
	pop := d.pop
	for i, o := range ops {
		req := int64(d.id)<<32 | int64(i)
		switch o.kind {
		case opGet:
			spec, reg := pop.blobs[o.obj], pop.blobReg[o.obj]
			snap := reg.maxStartDone
			v0, th := d.pre(p)
			data, err := d.cl.Get(p, spec.ref)
			if d.post(p, opGet, "pcsi.Client.Get", req, v0, th, err) {
				v, err := checkRecord(data, uint32(o.obj), 0, spec.size)
				if err == nil {
					err = reg.checkRead(v, snap, spec.lin)
				}
				if err != nil {
					d.violation("Get blob %d: %v", o.obj, err)
				}
			}
		case opReadAt:
			spec, reg := pop.blobs[o.obj], pop.blobReg[o.obj]
			snap := reg.maxStartDone
			v0, th := d.pre(p)
			data, err := d.cl.ReadAt(p, spec.ref, int64(o.off), int(o.n))
			if d.post(p, opReadAt, "pcsi.Client.ReadAt", req, v0, th, err) {
				if err := checkRange(data, int(o.off), int(o.n), uint32(o.obj), spec, reg, snap); err != nil {
					d.violation("ReadAt blob %d [%d,+%d): %v", o.obj, o.off, o.n, err)
				}
			}
		case opStat:
			spec := pop.blobs[o.obj]
			v0, th := d.pre(p)
			info, err := d.cl.Stat(p, spec.ref)
			if d.post(p, opStat, "pcsi.Client.Stat", req, v0, th, err) {
				if info.Kind != pcsi.Regular || info.Size != int64(spec.size) {
					d.violation("Stat blob %d: kind %v size %d, want regular %d", o.obj, info.Kind, info.Size, spec.size)
				}
			}
		case opPut:
			spec, reg := pop.blobs[o.obj], pop.blobReg[o.obj]
			v := reg.begin(int64(p.Now()))
			fillRecord(d.buf[:spec.size], uint32(o.obj), 0, v)
			v0, th := d.pre(p)
			err := d.cl.Put(p, spec.ref, d.buf[:spec.size])
			if d.post(p, opPut, "pcsi.Client.Put", req, v0, th, err) {
				reg.finish(v, int64(p.Now()))
			}
		case opAppend:
			spec, lm := pop.logs[o.obj], pop.logModel[o.obj]
			seq := lm.begin()
			fillLogRecord(d.buf[:logRecLen], pop.logIdx(int(o.obj)), seq, uint32(d.id))
			v0, th := d.pre(p)
			err := d.cl.Append(p, spec.ref, d.buf[:logRecLen])
			if d.post(p, opAppend, "pcsi.Client.Append", req, v0, th, err) {
				lm.finish(seq)
			}
		case opWriteAt:
			spec, reg := pop.tables[o.obj], pop.tableReg[o.obj][o.slot]
			v := reg.begin(int64(p.Now()))
			fillRecord(d.buf[:tableRecLen], pop.tableIdx(int(o.obj)), uint32(o.slot), v)
			v0, th := d.pre(p)
			err := d.cl.WriteAt(p, spec.ref, d.buf[:tableRecLen], int64(o.slot)*tableRecLen)
			if d.post(p, opWriteAt, "pcsi.Client.WriteAt", req, v0, th, err) {
				reg.finish(v, int64(p.Now()))
			}
		case opGetLog:
			spec, lm := pop.logs[o.obj], pop.logModel[o.obj]
			done := len(lm.done)
			v0, th := d.pre(p)
			data, err := d.cl.Get(p, spec.ref)
			if d.post(p, opGetLog, "pcsi.Client.Get", req, v0, th, err) {
				if err := lm.checkRead(data, pop.logIdx(int(o.obj)), done, spec.lin); err != nil {
					d.violation("Get log %d: %v", o.obj, err)
				}
			}
		case opGetTable:
			spec, regs := pop.tables[o.obj], &pop.tableReg[o.obj]
			var snaps [tableSlots]int64
			for s, reg := range regs {
				snaps[s] = reg.maxStartDone
			}
			v0, th := d.pre(p)
			data, err := d.cl.Get(p, spec.ref)
			if d.post(p, opGetTable, "pcsi.Client.Get", req, v0, th, err) {
				if len(data) != spec.size {
					d.violation("Get table %d: %d bytes, want %d", o.obj, len(data), spec.size)
					break
				}
				for s, reg := range regs {
					v, err := checkRecord(data[s*tableRecLen:(s+1)*tableRecLen], pop.tableIdx(int(o.obj)), uint32(s), tableRecLen)
					if err == nil {
						err = reg.checkRead(v, snaps[s], spec.lin)
					}
					if err != nil {
						d.violation("Get table %d slot %d: %v", o.obj, s, err)
					}
				}
			}
		case opCreate:
			d.createFreezeDrop(p, req)
		}
	}
}

// createFreezeDrop is the object life cycle in one action: create, write,
// freeze to IMMUTABLE, read the frozen content back, drop the reference.
func (d *dataProc) createFreezeDrop(p *sim.Proc, req int64) {
	v0, th := d.pre(p)
	ref, err := d.cl.Create(p, pcsi.Regular)
	if !d.post(p, opCreate, "pcsi.Client.Create", req, v0, th, err) {
		return
	}
	defer d.cl.Drop(ref)
	d.created++
	idx := uint32(1<<31) | uint32(d.id)<<20 | d.created
	fillRecord(d.buf[:createRecLen], idx, 0, 1)
	v0, th = d.pre(p)
	err = d.cl.Put(p, ref, d.buf[:createRecLen])
	if !d.post(p, opPut, "pcsi.Client.Put", req, v0, th, err) {
		return
	}
	v0, th = d.pre(p)
	err = d.cl.Freeze(p, ref, pcsi.Immutable)
	if !d.post(p, opFreeze, "pcsi.Client.Freeze", req, v0, th, err) {
		return
	}
	v0, th = d.pre(p)
	data, err := d.cl.Get(p, ref)
	if d.post(p, opGet, "pcsi.Client.Get", req, v0, th, err) {
		if _, err := checkRecord(data, idx, 0, createRecLen); err != nil {
			d.violation("Get of frozen object: %v", err)
		}
	}
}

// checkRange verifies a ReadAt result: its length, and that its bytes are
// the requested range of some issued version the read was allowed to see.
func checkRange(b []byte, off, n int, idx uint32, spec objSpec, reg *register, snap int64) error {
	want := n
	if off+want > spec.size {
		want = spec.size - off
	}
	if len(b) != want {
		return fmt.Errorf("returned %d bytes, want %d", len(b), want)
	}
	if off == 0 {
		h, err := parseHeader(b)
		if err != nil {
			return err
		}
		if h.idx != idx || h.size != spec.size {
			return fmt.Errorf("header of object %d size %d", h.idx, h.size)
		}
		if !bodyEqual(b[hdrLen:], rotation(idx, 0, h.ver)+hdrLen) {
			return fmt.Errorf("body does not match version %d", h.ver)
		}
		return reg.checkRead(h.ver, snap, spec.lin)
	}
	// The range carries no header, so find the version it belongs to,
	// newest first.
	for v := reg.issued(); v >= 1; v-- {
		if bodyEqual(b, rotation(idx, 0, v)+off) {
			return reg.checkRead(v, snap, spec.lin)
		}
	}
	return fmt.Errorf("bytes match no issued version")
}

// dataSystem is a built and populated cloud, ready for its timed section.
type dataSystem struct {
	cloud   *pcsi.Cloud
	clients []*pcsi.Client
	pop     *population
	streams [][]op
}

func (w dataWorkload) build(cfg passCfg) (*dataSystem, error) {
	rng := rand.New(rand.NewSource(cfg.seed))
	cloud := pcsi.New(dataCloudOptions(cfg.seed))
	sys := &dataSystem{cloud: cloud}
	loaders := make([]*pcsi.Client, dataRacks)
	for r := range loaders {
		loaders[r] = cloud.NewClient(r)
	}
	for i := 0; i < dataProcs; i++ {
		sys.clients = append(sys.clients, cloud.NewClient(i%dataRacks))
	}
	var perr error
	done := false
	cloud.Env().Go("populate", func(p *sim.Proc) {
		sys.pop, perr = populate(p, loaders, cfg.scale)
		if perr == nil && cfg.corrupt {
			// A writer the oracle never heard of: well-formed header, wrong
			// body. The hottest keys are read within the first few ops.
			for i, spec := range sys.pop.blobs {
				if spec.lin {
					bad := make([]byte, spec.size)
					fillRecord(bad, uint32(i), 0, 1)
					bad[len(bad)-1] ^= 0xff
					if perr = loaders[0].Put(p, spec.ref, bad); perr != nil {
						break
					}
				}
			}
		}
		done = true
	})
	cloud.Env().RunUntil(setupHorizon)
	if perr != nil {
		return nil, fmt.Errorf("populate: %w", perr)
	}
	if !done {
		return nil, fmt.Errorf("populate did not finish within the set-up horizon")
	}
	sys.streams = w.genStreams(rng, sys.pop, cfg.scale)
	return sys, nil
}

func (w dataWorkload) pass(cfg passCfg) (passOut, error) {
	t0 := now()
	sys, err := w.build(cfg)
	if err != nil {
		return passOut{}, err
	}
	procs := make([]*dataProc, dataProcs)
	for i := range procs {
		d := &dataProc{
			id: int32(i), cl: sys.clients[i], pop: sys.pop, rec: cfg.rec,
			buf:    make([]byte, templateLen),
			virtNS: make([]int64, 0, len(sys.streams[i])+len(sys.streams[i])/4),
		}
		procs[i] = d
		ops := sys.streams[i]
		sys.cloud.Env().Go("client", func(p *sim.Proc) { d.run(p, ops) })
	}
	setupNS := now() - t0

	env := sys.cloud.Env()
	ev0, v0 := env.Dispatched(), env.Now()
	m0 := mallocs()
	t1 := now()
	end := env.Run()
	runNS := now() - t1
	m1 := mallocs()

	out := passOut{setupNS: setupNS, runNS: runNS, mallocs: m1 - m0}
	var counts [numOpKinds]int64
	for _, d := range procs {
		for k, c := range d.counts {
			counts[k] += c
			out.ops += c
		}
		out.failed += d.failed
		out.virtNS = append(out.virtNS, d.virtNS...)
		out.violations = append(out.violations, d.bad...)
	}
	events := env.Dispatched() - ev0
	fc := sys.cloud.FnCache().Snapshot()
	qs := sys.cloud.QoS().ClassStats(pcsi.QoSClassData)
	writes := counts[opPut] + counts[opAppend] + counts[opWriteAt] + counts[opFreeze]

	var sb strings.Builder
	fmt.Fprintf(&sb, "end=%d events=%d", int64(end.Sub(v0)), events)
	for k, c := range counts {
		fmt.Fprintf(&sb, " %s=%d", opNames[k], c)
	}
	fmt.Fprintf(&sb, " failed=%d hits=%d misses=%d inval=%d stale=%d admitted=%d shed=%d frozen_hits=%d bytes_moved=%d lat=%s",
		out.failed, fc.Hits, fc.Misses, fc.Invalidations, fc.StaleLeaseServes, qs.Admitted, qs.Shed,
		sys.cloud.CacheHits, sys.cloud.BytesMoved, latBuckets(out.virtNS))
	out.digest = sb.String()

	out.exact = map[string]float64{
		"sim.events":                float64(events),
		"fncache.stale_serves":      float64(fc.StaleLeaseServes),
		"qos.shed_ratio":            ratio(float64(qs.Shed), float64(qs.Admitted+qs.Shed)),
		"qos.queue_wait_virtual_us": queueWaitUS(sys.cloud),
	}
	if w.write {
		out.exact["fncache.invalidations_per_write"] = ratio(float64(fc.Invalidations), float64(writes))
	} else {
		out.exact["fncache.hit_ratio"] = fc.HitRate()
	}
	out.host = map[string]float64{
		"sim.ns_per_event":     float64(runNS) / float64(events),
		"sim.allocs_per_event": float64(m1-m0) / float64(events),
	}
	if fc.StaleLeaseServes != 0 {
		// The program's own audit, not one of this benchmark's oracles: it is
		// reported and pinned by the digest, and does not fail the run (see
		// README, "What the benchmark found").
		out.notes = append(out.notes, fmt.Sprintf("the cache's own audit counted %d linearizable reads served from stale lease entries per pass", fc.StaleLeaseServes))
	}
	if qs.Shed != 0 {
		out.violations = append(out.violations, fmt.Sprintf("admission control shed %d ops below its limit", qs.Shed))
	}
	return out, nil
}

// queueWaitUS is the mean admission queue wait in virtual microseconds.
func queueWaitUS(cloud *pcsi.Cloud) float64 {
	h := trace.Lookup[*metrics.Histogram](cloud.Metrics(), "qos_data_queue_delay")
	if h == nil || h.Count() == 0 {
		return 0
	}
	return float64(h.Mean()) / 1e3
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// latBuckets renders a virtual-latency histogram with power-of-two bucket
// edges (bucket k holds latencies in [2^k, 2^(k+1)) ns).
func latBuckets(ns []int64) string {
	counts := map[int]int{}
	for _, v := range ns {
		k := 0
		for x := v; x > 1; x >>= 1 {
			k++
		}
		counts[k]++
	}
	keys := make([]int, 0, len(counts))
	for k := range counts {
		keys = append(keys, k)
	}
	sort.Ints(keys)
	parts := make([]string, len(keys))
	for i, k := range keys {
		parts[i] = fmt.Sprintf("%d:%d", k, counts[k])
	}
	return "[" + strings.Join(parts, ",") + "]"
}
