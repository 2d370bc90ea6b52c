package main

import (
	"errors"
	"fmt"
	"runtime"
	"runtime/debug"
	"strconv"

	"repro/internal/capability"
	"repro/internal/object"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/pcsi"
)

// The data ladder prices the layers under pcsi.Client one rung at a time.
// Every rung is a fresh cloud driven by a single proc, so a span around a
// call holds that call's host time and nothing else; a layer's self time is
// its rung minus the rung below for the same op, and a hook's tax is the
// core rung with exactly that hook on minus the rung with all hooks off.

const (
	ladderOps  = 2000 // ops per rung
	ladderSize = 4 << 10
)

// hookSet selects the optional layers a ladder cloud runs with.
type hookSet struct{ retry, qos, fncache, trace, obs bool }

func hookByName(name string) hookSet {
	return map[string]hookSet{
		"retry": {retry: true}, "qos": {qos: true}, "fncache": {fncache: true},
		"trace": {trace: true}, "obs": {obs: true},
	}[name]
}

// ladderCloud builds a default cloud with the given hooks; release undoes the
// process-global sessions the trace and obs hooks need.
func ladderCloud(seed int64, h hookSet) (cloud *pcsi.Cloud, release func()) {
	opts := pcsi.DefaultOptions()
	opts.Seed = seed
	if h.retry {
		opts.Retry = pcsi.DefaultRetryPolicy()
	}
	if h.qos {
		opts.QoS = &pcsi.QoSConfig{Data: pcsi.QoSClassConfig{MaxConcurrency: qosDataLimit}}
	}
	if h.fncache {
		opts.FnCache = &pcsi.FnCacheConfig{}
	}
	var undo []func()
	if h.trace {
		undo = append(undo, trace.StartCollecting().Stop)
	}
	if h.obs {
		undo = append(undo, pcsi.ActivateObs(pcsi.ObsConfig{}).Deactivate)
	}
	return pcsi.New(opts), func() {
		for _, f := range undo {
			f()
		}
	}
}

// rung describes one ladder measurement: objs objects of size bytes are
// created first, then op runs n times in a single proc.
type rung struct {
	span       string // <module>.<Func>, the span name
	hooks      hookSet
	objs, size int
	eventual   bool
	appendOnly bool
	n          int
	op         func(p *sim.Proc, r *rungEnv, i int) error
}

// rungEnv is what a rung's op can reach.
type rungEnv struct {
	cloud  *pcsi.Cloud
	client *pcsi.Client
	refs   []pcsi.Ref
	buf    []byte
}

type rungOut struct {
	ns     value
	events float64 // per op, exact
	allocs float64 // per op
}

func runRung(seed int64, rg rung, rec *recorder) (rungOut, error) {
	// A rung is some 15 ms of work on a heap of a few MiB, where the
	// collector would start a cycle every few hundred ops and its scheduling,
	// not the layer, would decide the median. Collect before the rung and
	// keep the collector off during it: the rung prices the layer's own work
	// and allocation.
	runtime.GC()
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	cloud, release := ladderCloud(seed, rg.hooks)
	defer release()
	env := cloud.Env()
	re := &rungEnv{cloud: cloud, client: cloud.NewClient(0), buf: make([]byte, ladderSize)}
	fillRecord(re.buf, 0, 0, 1)

	var err error
	env.Go("rung-setup", func(p *sim.Proc) {
		lvl, mut := pcsi.Linearizable, pcsi.Mutable
		if rg.eventual {
			lvl = pcsi.Eventual
		}
		if rg.appendOnly {
			mut = pcsi.AppendOnly
		}
		for i := 0; i < rg.objs && err == nil; i++ {
			var ref pcsi.Ref
			ref, err = re.client.Create(p, pcsi.Regular, pcsi.WithConsistency(lvl), pcsi.WithMutability(mut))
			if err == nil && rg.size > 0 && !rg.appendOnly {
				err = re.client.Put(p, ref, re.buf[:rg.size])
			}
			re.refs = append(re.refs, ref)
		}
	})
	env.RunUntil(setupHorizon)
	if err != nil {
		return rungOut{}, fmt.Errorf("%s set-up: %w", rg.span, err)
	}
	if len(re.refs) != rg.objs {
		return rungOut{}, fmt.Errorf("%s set-up did not finish", rg.span)
	}

	per := make([]float64, 0, rg.n)
	var out rungOut
	defer rec.openGroup("ladder " + rg.span)()
	env.Go("rung", func(p *sim.Proc) {
		ev0, m0 := env.Dispatched(), mallocs()
		for i := 0; i < rg.n; i++ {
			t0 := now()
			if err = rg.op(p, re, i); err != nil {
				return
			}
			t1 := now()
			rec.add(rg.span, t0, t1, 0, int64(i))
			per = append(per, float64(t1-t0))
		}
		out.events = float64(env.Dispatched()-ev0) / float64(rg.n)
		out.allocs = float64(mallocs()-m0) / float64(rg.n)
	})
	env.Run()
	if err != nil {
		return out, fmt.Errorf("%s: %w", rg.span, err)
	}
	if len(per) != rg.n {
		return out, fmt.Errorf("%s: %d of %d ops completed", rg.span, len(per), rg.n)
	}
	out.ns = fromSamples("ns", per)
	return out, nil
}

// coreRungs are the pcsi.Client verbs at 4 KiB. Get reads each of n objects
// once, so with the function cache on every read is a miss plus a fill and
// the cache's tax, not its benefit, is what the rung prices.
func coreRungs(n int) map[string]rung {
	return map[string]rung{
		"get": {span: "pcsi.Client.Get", objs: n, size: ladderSize,
			op: func(p *sim.Proc, r *rungEnv, i int) error { _, err := r.client.Get(p, r.refs[i]); return err }},
		"put": {span: "pcsi.Client.Put", objs: 64, size: ladderSize,
			op: func(p *sim.Proc, r *rungEnv, i int) error { return r.client.Put(p, r.refs[i%64], r.buf) }},
		"append": {span: "pcsi.Client.Append", objs: n/4 + 1, appendOnly: true,
			op: func(p *sim.Proc, r *rungEnv, i int) error { return r.client.Append(p, r.refs[i%len(r.refs)], r.buf) }},
		"readat": {span: "pcsi.Client.ReadAt", objs: 64, size: ladderSize,
			op: func(p *sim.Proc, r *rungEnv, i int) error {
				_, err := r.client.ReadAt(p, r.refs[i%64], 0, ladderSize)
				return err
			}},
		"create": {span: "pcsi.Client.Create",
			op: func(p *sim.Proc, r *rungEnv, i int) error { _, err := r.client.Create(p, pcsi.Regular); return err }},
		"stat": {span: "pcsi.Client.Stat", objs: 64, size: ladderSize,
			op: func(p *sim.Proc, r *rungEnv, i int) error { _, err := r.client.Stat(p, r.refs[i%64]); return err }},
	}
}

// setData is the mutator the consistency rungs apply.
func setData(data []byte) func(*object.Object) error {
	return func(o *object.Object) error {
		//pcsi:allow rawmutation mutator runs inside Group.Apply's replica update path
		return o.SetData(data)
	}
}

func consistencyRungs() map[string]rung {
	read := func(p *sim.Proc, r *rungEnv, i int) error {
		ref := r.refs[i%len(r.refs)]
		_, err := r.cloud.Group().Read(p, r.client.Node(), ref.ObjectID(), ref.Level())
		return err
	}
	apply := func(p *sim.Proc, r *rungEnv, i int) error {
		ref := r.refs[i%len(r.refs)]
		return r.cloud.Group().Apply(p, r.client.Node(), ref.ObjectID(), ref.Level(), len(r.buf), setData(r.buf))
	}
	return map[string]rung{
		"read_lin":  {span: "consistency.Group.Read(lin)", objs: 64, size: ladderSize, op: read},
		"read_ev":   {span: "consistency.Group.Read(ev)", objs: 64, size: ladderSize, eventual: true, op: read},
		"apply_lin": {span: "consistency.Group.Apply(lin)", objs: 64, size: ladderSize, op: apply},
		"apply_ev":  {span: "consistency.Group.Apply(ev)", objs: 64, size: ladderSize, eventual: true, op: apply},
	}
}

func simnetRungs() map[string]rung {
	return map[string]rung{
		"send": {span: "simnet.Network.Send", op: func(p *sim.Proc, r *rungEnv, i int) error {
			r.cloud.Net().Send(p, r.client.Node(), r.cloud.Group().Primary0Node(), 64+ladderSize)
			return nil
		}},
		"call": {span: "simnet.Network.Call", op: func(p *sim.Proc, r *rungEnv, i int) error {
			r.cloud.Net().Call(p, r.client.Node(), r.cloud.Group().Primary0Node(), 64, 64+ladderSize, nil)
			return nil
		}},
	}
}

// ladderRounds is how often the rungs that are subtracted from one another
// are repeated. Within a round they run back to back, so slow drift of the
// machine cancels in the difference; the reported value is the median over
// rounds.
const ladderRounds = 7

// overRounds summarises one rung's medians across rounds.
func overRounds(rounds [][]rungOut, k int) value {
	xs := make([]float64, len(rounds))
	for r := range rounds {
		xs[r] = rounds[r][k].ns.Value
	}
	return fromSamples("ns", xs)
}

// diffOverRounds is the median over rounds of rung k minus rung base.
func diffOverRounds(rounds [][]rungOut, k, base int, note string) value {
	xs := make([]float64, len(rounds))
	for r := range rounds {
		xs[r] = rounds[r][k].ns.Value - rounds[r][base].ns.Value
	}
	v := fromSamples("ns", xs)
	v.Note = note
	return v
}

// ladder measures the layers the data workloads run on.
func (w dataWorkload) ladder(seed int64, scale int, rec *recorder) (map[string]value, []string, error) {
	n := scaled(ladderOps, scale, 20)
	out := simMicro(seed, scale, rec, false)
	sleepNS := out["sim.sleep_ns"].Value

	measure := func(rg rung) (rungOut, error) {
		rg.n = n
		return runRung(seed, rg, rec)
	}
	simnet, cons, core := simnetRungs(), consistencyRungs(), coreRungs(n)
	for _, name := range sortedKeys(simnet) {
		r, err := measure(simnet[name])
		if err != nil {
			return out, nil, err
		}
		out["simnet."+name+"_ns"] = r.ns
		out["simnet."+name+"_events"] = value{Value: r.events, Unit: "events/op"}
	}
	out["capability.check_ns"] = capabilityRung(n, rec)

	// Get and Put: the consistency rung, the core rung with all hooks off,
	// and the core rung with each hook on, interleaved.
	for _, pair := range [][2]string{{"get", "read_lin"}, {"put", "apply_lin"}} {
		verb, under := pair[0], pair[1]
		rungs := []rung{cons[under], core[verb]}
		for _, hook := range hookNames {
			rg := core[verb]
			rg.hooks = hookByName(hook)
			rg.span += "+" + hook
			rungs = append(rungs, rg)
		}
		rounds := make([][]rungOut, ladderRounds)
		for r := range rounds {
			for _, rg := range rungs {
				res, err := measure(rg)
				if err != nil {
					return out, nil, err
				}
				rounds[r] = append(rounds[r], res)
			}
		}
		const consK, coreK = 0, 1
		first := rounds[0]
		out["consistency."+under+"_ns"] = overRounds(rounds, consK)
		out["consistency."+under+"_events"] = value{Value: first[consK].events, Unit: "events/op"}
		ns := overRounds(rounds, coreK)
		out["core."+verb+"_ns"] = ns
		out["core."+verb+"_events"] = value{Value: first[coreK].events, Unit: "events/op"}
		out["core."+verb+"_allocs"] = value{Value: first[coreK].allocs, Unit: "allocs/op"}
		out["core."+verb+"_self_ns"] = diffOverRounds(rounds, coreK, consK, "core rung minus the consistency rung")
		out["core."+verb+"_engine_share"] = value{Value: first[coreK].events * sleepNS / ns.Value, Unit: "ratio",
			Note: "estimate: events x sim.sleep_ns / ns"}
		for h, hook := range hookNames {
			out["core.tax_"+hook+"_"+verb+"_ns"] = diffOverRounds(rounds, coreK+1+h, coreK,
				"rung with only this hook on, minus all hooks off")
		}
	}
	for _, name := range []string{"read_ev", "apply_ev"} {
		r, err := measure(cons[name])
		if err != nil {
			return out, nil, err
		}
		out["consistency."+name+"_ns"] = r.ns
		out["consistency."+name+"_events"] = value{Value: r.events, Unit: "events/op"}
	}
	for _, name := range []string{"append", "readat", "create", "stat"} {
		r, err := measure(core[name])
		if err != nil {
			return out, nil, err
		}
		out["core."+name+"_ns"] = r.ns
	}

	// A lease hit: the same object read again within its lease.
	hit, err := measure(rung{span: "pcsi.Client.Get(hit)", hooks: hookSet{fncache: true}, objs: 1, size: ladderSize,
		op: func(p *sim.Proc, r *rungEnv, i int) error {
			_, err := r.client.Get(p, r.refs[0])
			if err == nil && i == n-1 {
				if st := r.cloud.FnCache().Snapshot(); st.Hits != int64(n-1) {
					err = fmt.Errorf("%d lease hits in %d reads of one object", st.Hits, n)
				}
			}
			return err
		}})
	if err != nil {
		return out, nil, err
	}
	out["fncache.hit_get_ns"] = hit.ns

	notes, err := w.replayStream(seed, scale, rec)
	if err != nil {
		return out, notes, err
	}
	if w.write {
		if err := faasfsRung(seed, scale, rec, out); err != nil {
			return out, notes, err
		}
	}
	notes = append(notes, fmt.Sprintf("engine share of a 4 KiB op (estimate): Get %.0f%%, Put %.0f%%",
		100*out["core.get_engine_share"].Value, 100*out["core.put_engine_share"].Value))
	return out, notes, nil
}

// capabilityRung times the rights check every verb starts with. A check is
// tens of ns, below the clock's resolution, so it is timed in batches.
func capabilityRung(n int, rec *recorder) value {
	const batch = 1000
	reg := capability.NewRegistry()
	ref := reg.Mint(object.ID(1), capability.All)
	per := make([]float64, 0, n/10+1)
	for b := 0; b < n/10+1; b++ {
		t0 := now()
		for i := 0; i < batch; i++ {
			if err := reg.Check(ref, capability.Read); err != nil {
				panic(err) // a freshly minted full-rights reference cannot be denied
			}
		}
		t1 := now()
		rec.add("capability.Registry.Check x"+strconv.Itoa(batch), t0, t1, 0, int64(b))
		per = append(per, float64(t1-t0)/batch)
	}
	return fromSamples("ns", per)
}

// replayStream replays the first ladderOps ops of the workload's own stream
// with a single proc at each depth — pcsi.Client verbs, the consistency
// group, the network exchange, a bare Sleep — each on an identically
// configured fresh cloud, so a layer's share of this workload's op mix can
// be read off as rung minus rung.
func (w dataWorkload) replayStream(seed int64, scale int, rec *recorder) ([]string, error) {
	depths := []string{"pcsi", "consistency", "simnet", "sim"}
	medians := make([]float64, len(depths))
	var count int
	for di, depth := range depths {
		sys, err := w.build(passCfg{seed: seed, scale: scale})
		if err != nil {
			return nil, err
		}
		ops := sys.streams[0]
		if len(ops) > ladderOps {
			ops = ops[:ladderOps]
		}
		count = len(ops)
		d := &dataProc{id: 0, cl: sys.clients[0], pop: sys.pop, buf: make([]byte, templateLen)}
		var per []float64
		closeDepth := rec.openGroup("replay " + depth)
		sys.cloud.Env().Go("replay", func(p *sim.Proc) {
			for i := range ops {
				t0 := now()
				switch depth {
				case "pcsi":
					d.run(p, ops[i:i+1])
				case "consistency":
					replayConsistency(p, sys, d, ops[i])
				case "simnet":
					replaySimnet(p, sys, d, ops[i])
				case "sim":
					p.Sleep(sim.Duration(1000))
				}
				t1 := now()
				rec.add("replay."+depth, t0, t1, int32(di), int64(i))
				per = append(per, float64(t1-t0))
			}
		})
		sys.cloud.Env().Run()
		closeDepth()
		if len(d.bad) > 0 {
			return nil, errors.New("stream replay: " + d.bad[0])
		}
		medians[di] = median(per)
	}
	return []string{fmt.Sprintf(
		"stream replay, first %d ops, single proc, median host ns/op: pcsi %.0f, consistency %.0f, simnet %.0f, sim %.0f",
		count, medians[0], medians[1], medians[2], medians[3])}, nil
}

// opTarget resolves an op to the object it touches and the bytes it moves.
func opTarget(sys *dataSystem, o op) (spec objSpec, write bool, size int) {
	switch o.kind {
	case opGet, opStat:
		return sys.pop.blobs[o.obj], false, sys.pop.blobs[o.obj].size
	case opReadAt:
		return sys.pop.blobs[o.obj], false, int(o.n)
	case opPut:
		return sys.pop.blobs[o.obj], true, sys.pop.blobs[o.obj].size
	case opAppend:
		return sys.pop.logs[o.obj], true, logRecLen
	case opGetLog:
		return sys.pop.logs[o.obj], false, logRecLen
	case opWriteAt:
		return sys.pop.tables[o.obj], true, tableRecLen
	case opGetTable:
		return sys.pop.tables[o.obj], false, sys.pop.tables[o.obj].size
	}
	return sys.pop.blobs[0], true, createRecLen // opCreate: a small write
}

// replayConsistency performs an op's replicated read or update directly on
// the consistency group, below capability checks, hooks and caches.
func replayConsistency(p *sim.Proc, sys *dataSystem, d *dataProc, o op) {
	spec, write, size := opTarget(sys, o)
	grp, node := sys.cloud.Group(), d.cl.Node()
	id, lvl := spec.ref.ObjectID(), spec.ref.Level()
	var err error
	switch {
	case !write:
		_, err = grp.Read(p, node, id, lvl)
	case o.kind == opAppend:
		err = grp.Apply(p, node, id, lvl, size, func(ob *object.Object) error {
			//pcsi:allow rawmutation mutator runs inside Group.Apply's replica update path
			return ob.Append(d.buf[:size])
		})
	case o.kind == opWriteAt:
		err = grp.Apply(p, node, id, lvl, size, func(ob *object.Object) error {
			//pcsi:allow rawmutation mutator runs inside Group.Apply's replica update path
			_, werr := ob.WriteAt(d.buf[:size], int64(o.slot)*tableRecLen)
			return werr
		})
	case o.kind == opCreate:
		_, err = grp.Create(p, node, object.Regular)
	default:
		err = grp.Apply(p, node, id, lvl, size, setData(d.buf[:size]))
	}
	if err != nil {
		d.violation("consistency replay of %s: %v", opNames[o.kind], err)
	}
}

// replaySimnet performs only an op's client-to-primary network exchange.
func replaySimnet(p *sim.Proc, sys *dataSystem, d *dataProc, o op) {
	_, write, size := opTarget(sys, o)
	req, resp := 64, 64+size
	if write {
		req, resp = 64+size, 64
	}
	sys.cloud.Net().Call(p, d.cl.Node(), sys.cloud.Group().Primary0Node(), req, resp, nil)
}

// faasfsRung is a two-writer commit ladder: both writers increment one
// shared counter file in optimistic transactions, so commits conflict and
// retry, and the final value proves serializability.
func faasfsRung(seed int64, scale int, rec *recorder, out map[string]value) error {
	cloud, release := ladderCloud(seed, hookSet{})
	defer release()
	env := cloud.Env()
	const writers = 2
	txns := scaled(200, scale, 5)
	var fs *pcsi.FaaSFS
	var err error
	client := cloud.NewClient(0)
	env.Go("mount", func(p *sim.Proc) {
		if fs, err = pcsi.MountFaaSFS(p, client, pcsi.FaaSFSConfig{}); err != nil {
			return
		}
		err = fs.Run(p, client, nil, func(s *pcsi.FaaSFSSession) error { return s.WriteFile(p, "/counter", []byte("0")) })
	})
	env.RunUntil(setupHorizon)
	if err != nil {
		return fmt.Errorf("faasfs mount: %w", err)
	}

	var commitNS []float64
	var werr error
	ev0, ev1 := env.Dispatched(), uint64(0)
	for wi := 0; wi < writers; wi++ {
		wi := wi
		cl := cloud.NewClient(wi)
		env.Go("writer", func(p *sim.Proc) {
			for done := 0; done < txns; {
				s := fs.Begin(cl)
				data, err := s.ReadFile(p, "/counter")
				if err != nil {
					werr = err
					return
				}
				v, err := strconv.Atoi(string(data))
				if err != nil {
					werr = err
					return
				}
				if err := s.WriteFile(p, "/counter", []byte(strconv.Itoa(v+1))); err != nil {
					werr = err
					return
				}
				t0 := now()
				err = s.Commit(p)
				t1 := now()
				switch {
				case err == nil:
					rec.add("pcsi.FaaSFSSession.Commit", t0, t1, int32(wi), int64(done))
					commitNS = append(commitNS, float64(t1-t0))
					done++
				case !errors.Is(err, pcsi.ErrConflict):
					werr = err
					return
				}
			}
			ev1 = env.Dispatched() // the writer that finishes last sets it
		})
	}
	var final []byte
	env.Go("reader", func(p *sim.Proc) {
		// Runs after both writers: they were spawned first and the clock
		// only reaches this sleep's deadline once they are done.
		p.Sleep(sim.Duration(setupHorizon))
		rerr := fs.Run(p, client, nil, func(s *pcsi.FaaSFSSession) (err error) { final, err = s.ReadFile(p, "/counter"); return })
		if werr == nil {
			werr = rerr
		}
	})
	env.Run()
	if werr != nil {
		return fmt.Errorf("faasfs ladder: %w", werr)
	}
	if got, want := string(final), strconv.Itoa(writers*txns); got != want {
		return fmt.Errorf("faasfs ladder: counter reads %q after %s committed increments: not serializable", got, want)
	}
	st := fs.Stats()
	out["faasfs.commit_ns"] = fromSamples("ns", commitNS)
	out["faasfs.commit_events"] = value{Value: float64(ev1-ev0) / float64(writers*txns), Unit: "events/op",
		Note: "whole transactions, conflicts and retries included, per committed one"}
	out["faasfs.conflict_ratio"] = value{Value: st.ConflictRate(), Unit: "ratio",
		Note: fmt.Sprintf("%d conflicts, %d commits", st.Conflicts, st.Commits)}
	return nil
}
