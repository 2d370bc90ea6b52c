package main

import (
	"bytes"
	"fmt"
	"math/rand"
	"runtime"
	"strconv"
	"sync"
	"time"

	"repro/internal/pcsinet"
	"repro/internal/restbase"
	"repro/internal/sim"
	"repro/internal/wire"
	"repro/pcsi"
)

// loopback drives the one real-network surface: an in-process
// pcsinet.Server over host loopback (not a real link), min(nproc, 2)
// connections, each its own goroutine, closed loop, working on its own 64
// objects. op = one RPC.
type loopback struct{}

const (
	loopObjects = 64 // per connection: 56 blobs + 8 append-only logs
	loopLogs    = 8
	// RPCs per connection per pass. A pass is short (~0.6 s) so that a run
	// holds some twenty of them: the medians of ops_per_s and setup_s are
	// steadier over many short passes than over five long ones.
	loopRPCs = 10_000
)

var loopSizes = []int{64, 1 << 10, 16 << 10}

func loopConns() int {
	if n := runtime.NumCPU(); n < 2 {
		return n
	}
	return 2
}

type loopOpKind uint8

const (
	loopGet loopOpKind = iota
	loopPut
	loopStat
	loopAppend
	loopInvoke
)

type loopOp struct {
	kind loopOpKind
	obj  int
}

// loopConn is one connection's generator state and oracle: it is the only
// writer of its objects, so every read must return exactly its last write.
type loopConn struct {
	id      int
	cl      *pcsinet.Client
	tokens  []string // blobs, then logs; scratch last
	size    []int
	idx     []uint32 // identity the blob currently holds (echo copies another blob's bytes)
	ver     []uint64 // version the blob currently holds
	nextVer uint64
	appends []uint64 // records appended to each log
	ops     []loopOp
	hostNS  []int64
	rec     *recorder
	failed  int64
	bad     []string
	buf     []byte
}

func (c *loopConn) violation(format string, args ...any) {
	if len(c.bad) < maxViolations {
		c.bad = append(c.bad, fmt.Sprintf("conn %d: ", c.id)+fmt.Sprintf(format, args...))
	}
}

func (c *loopConn) blobs() int { return loopObjects - loopLogs }

// scratch is the echo function's output object.
func (c *loopConn) scratch() int { return loopObjects }

func (c *loopConn) objIdx(i int) uint32 { return uint32(c.id)<<16 | uint32(i) }

// setup creates and fills the connection's objects over the wire.
func (c *loopConn) setup() error {
	for i := 0; i <= loopObjects; i++ {
		mut := "MUTABLE"
		if i >= c.blobs() && i < loopObjects {
			mut = "APPEND_ONLY"
		}
		tok, err := c.cl.Create("regular", "linearizable", mut, false)
		if err != nil {
			return err
		}
		c.tokens = append(c.tokens, tok)
		size := 0
		if mut == "MUTABLE" {
			size = loopSizes[i%len(loopSizes)]
			c.nextVer++
			fillRecord(c.buf[:size], c.objIdx(i), 0, c.nextVer)
			if err := c.cl.Put(tok, c.buf[:size]); err != nil {
				return err
			}
		}
		c.size = append(c.size, size)
		c.idx = append(c.idx, c.objIdx(i))
		c.ver = append(c.ver, c.nextVer)
	}
	c.appends = make([]uint64, loopLogs)
	return nil
}

func (c *loopConn) genOps(rng *rand.Rand, n int) {
	c.ops = make([]loopOp, n)
	for i := range c.ops {
		u := rng.Float64()
		switch {
		case u < 0.70:
			// Reads cover every object, the echo output included.
			c.ops[i] = loopOp{loopGet, rng.Intn(loopObjects + 1)}
		case u < 0.90:
			c.ops[i] = loopOp{loopPut, rng.Intn(c.blobs())}
		case u < 0.95:
			c.ops[i] = loopOp{loopStat, rng.Intn(c.blobs())}
		case u < 0.98:
			c.ops[i] = loopOp{loopAppend, c.blobs() + rng.Intn(loopLogs)}
		default:
			c.ops[i] = loopOp{loopInvoke, rng.Intn(c.blobs())}
		}
	}
}

func (c *loopConn) run(echoToken string) {
	for i, o := range c.ops {
		tok := c.tokens[o.obj]
		var err error
		t0 := now()
		switch o.kind {
		case loopGet:
			var data []byte
			data, err = c.cl.Get(tok)
			c.done("pcsinet.Client.Get", t0, i, err)
			if err == nil {
				c.checkGet(o.obj, data)
			}
		case loopPut:
			c.nextVer++
			fillRecord(c.buf[:c.size[o.obj]], c.objIdx(o.obj), 0, c.nextVer)
			t0 = now()
			err = c.cl.Put(tok, c.buf[:c.size[o.obj]])
			c.done("pcsinet.Client.Put", t0, i, err)
			if err == nil {
				c.idx[o.obj], c.ver[o.obj] = c.objIdx(o.obj), c.nextVer
			}
		case loopStat:
			var h map[string]string
			h, err = c.cl.Stat(tok)
			c.done("pcsinet.Client.Stat", t0, i, err)
			if err == nil && (h["kind"] != "regular" || h["size"] != strconv.Itoa(c.size[o.obj])) {
				c.violation("Stat object %d: kind %q size %q, want regular %d", o.obj, h["kind"], h["size"], c.size[o.obj])
			}
		case loopAppend:
			l := o.obj - c.blobs()
			fillLogRecord(c.buf[:logRecLen], c.objIdx(o.obj), c.appends[l]+1, uint32(c.id))
			t0 = now()
			err = c.cl.Append(tok, c.buf[:logRecLen])
			c.done("pcsinet.Client.Append", t0, i, err)
			if err == nil {
				c.appends[l]++
			}
		case loopInvoke:
			err = c.cl.Invoke(echoToken, []string{tok}, []string{c.tokens[c.scratch()]}, nil)
			c.done("pcsinet.Client.Invoke", t0, i, err)
			if err == nil {
				s := c.scratch()
				c.idx[s], c.ver[s], c.size[s] = c.idx[o.obj], c.ver[o.obj], c.size[o.obj]
			}
		}
	}
}

func (c *loopConn) done(name string, t0 int64, i int, err error) {
	t1 := now()
	c.hostNS = append(c.hostNS, t1-t0)
	c.rec.add(name, t0, t1, int32(c.id), int64(c.id)<<32|int64(i))
	if err != nil {
		c.failed++
		c.violation("%s failed: %v", name, err)
	}
}

// checkGet requires a read to return the connection's own last write.
func (c *loopConn) checkGet(obj int, data []byte) {
	if obj >= c.blobs() && obj < loopObjects {
		l := obj - c.blobs()
		if len(data) != int(c.appends[l])*logRecLen {
			c.violation("Get log %d: %d bytes, want %d records", obj, len(data), c.appends[l])
			return
		}
		want := make([]byte, logRecLen)
		for seq := uint64(1); seq <= c.appends[l]; seq++ {
			fillLogRecord(want, c.objIdx(obj), seq, uint32(c.id))
			if !bytes.Equal(data[(seq-1)*logRecLen:seq*logRecLen], want) {
				c.violation("Get log %d: record %d is not the one appended", obj, seq)
				return
			}
		}
		return
	}
	v, err := checkRecord(data, c.idx[obj], 0, c.size[obj])
	if err == nil && v != c.ver[obj] {
		err = fmt.Errorf("version %d, last written %d", v, c.ver[obj])
	}
	if err != nil {
		c.violation("Get object %d: %v", obj, err)
	}
}

// loopServer is a listening in-process pcsinet server with echo registered.
type loopServer struct {
	cloud *pcsi.Cloud
	srv   *pcsinet.Server
	addr  string
	echo  string
}

func newLoopServer(seed int64) (*loopServer, error) {
	opts := pcsi.DefaultOptions()
	opts.Seed = seed
	cloud := pcsi.New(opts)
	srv := pcsinet.NewServer(cloud)
	echo, err := srv.RegisterFunction(pcsi.FnConfig{
		Name: "echo", Kind: pcsi.PlatformWasm,
		Handler: func(fc *pcsi.FnCtx) error {
			data, err := fc.Client.Get(fc.Proc(), fc.Inputs[0])
			if err != nil {
				return err
			}
			return fc.Client.Put(fc.Proc(), fc.Outputs[0], data)
		},
	})
	if err != nil {
		return nil, err
	}
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	return &loopServer{cloud: cloud, srv: srv, addr: addr, echo: echo}, nil
}

func (loopback) pass(cfg passCfg) (out passOut, err error) {
	t0 := now()
	ls, err := newLoopServer(cfg.seed)
	if err != nil {
		return out, err
	}
	defer ls.srv.Close() //nolint:errcheck // listener teardown
	rng := rand.New(rand.NewSource(cfg.seed))
	conns := make([]*loopConn, loopConns())
	for i := range conns {
		cl, err := pcsinet.Dial(ls.addr)
		if err != nil {
			return out, err
		}
		defer cl.Close() //nolint:errcheck // only read after the run
		c := &loopConn{id: i, cl: cl, buf: make([]byte, templateLen)}
		if cfg.rec != nil {
			c.rec = &recorder{}
		}
		if err := c.setup(); err != nil {
			return out, fmt.Errorf("conn %d set-up: %w", i, err)
		}
		c.genOps(rng, scaled(loopRPCs, cfg.scale, 50))
		c.hostNS = make([]int64, 0, len(c.ops))
		conns[i] = c
	}
	if cfg.corrupt {
		// A write the oracle does not know about.
		c := conns[0]
		for i := 0; i < c.blobs(); i++ {
			fillRecord(c.buf[:c.size[i]], c.objIdx(i), 0, c.ver[i]+1000)
			if err := c.cl.Put(c.tokens[i], c.buf[:c.size[i]]); err != nil {
				return out, err
			}
		}
	}
	out.setupNS = now() - t0

	env := ls.cloud.Env()
	ev0 := env.Dispatched()
	m0 := mallocs()
	t1 := now()
	var wg sync.WaitGroup
	for _, c := range conns {
		wg.Add(1)
		go func(c *loopConn) {
			defer wg.Done()
			c.run(ls.echo)
		}(c)
	}
	wg.Wait()
	out.runNS = now() - t1
	out.mallocs = mallocs() - m0
	events := env.Dispatched() - ev0

	for _, c := range conns {
		out.ops += int64(len(c.ops))
		out.failed += c.failed
		out.hostNS = append(out.hostNS, c.hostNS...)
		out.violations = append(out.violations, c.bad...)
		cfg.rec.merge(c.rec)
	}
	out.host = map[string]float64{
		"pcsinet.events_per_rpc": float64(events) / float64(out.ops),
	}
	return out, nil
}

// ladder takes one RPC apart: codec, framing, dial, the simulator's share
// (the same op driven in-process the way the server drives it), and the REST
// and raw-socket reference rows of Table 1 from the same run.
func (loopback) ladder(seed int64, scale int, rec *recorder) (map[string]value, []string, error) {
	out := simMicro(seed, scale, rec, false)
	n := scaled(5000, scale, 50)
	body := make([]byte, 1<<10)
	fillRecord(body, 1, 0, 1)

	// Codecs: encode + decode of a 1 KiB message.
	msg := &wire.Message{Op: pcsinet.OpPut, Key: "ref-0123456789abcdef0123456789abcdef", Body: body}
	codecRung := func(name string, c wire.Codec) error {
		per, err := timeEach(rec, name, 4*n, func() error {
			enc, err := c.Encode(msg)
			if err != nil {
				return err
			}
			_, err = c.Decode(enc)
			return err
		})
		out[name] = fromSamples("ns", per)
		return err
	}
	m0 := mallocs()
	if err := codecRung("wire.binary_roundtrip_ns", wire.BinaryCodec{}); err != nil {
		return out, nil, err
	}
	out["wire.binary_allocs"] = value{Value: float64(mallocs()-m0) / float64(4*n), Unit: "allocs/op"}
	if err := codecRung("wire.json_roundtrip_ns", wire.JSONCodec{}); err != nil {
		return out, nil, err
	}

	// Framing: what one RPC writes and reads — a request frame carrying the
	// body and a bare response frame.
	resp := &wire.Message{Status: pcsinet.StatusOK}
	var fb bytes.Buffer
	per, err := timeEach(rec, "pcsinet.frame_ns", 4*n, func() error {
		fb.Reset()
		for _, m := range []*wire.Message{msg, resp} {
			if err := pcsinet.WriteFrame(&fb, m); err != nil {
				return err
			}
			if _, err := pcsinet.ReadFrame(&fb); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return out, nil, err
	}
	out["pcsinet.frame_ns"] = fromSamples("ns", per)

	ls, err := newLoopServer(seed)
	if err != nil {
		return out, nil, err
	}
	defer ls.srv.Close() //nolint:errcheck // listener teardown
	per, err = timeEach(rec, "pcsinet.dial_ns", scaled(400, scale, 10), func() error {
		c, err := pcsinet.Dial(ls.addr)
		if err != nil {
			return err
		}
		return c.Close()
	})
	if err != nil {
		return out, nil, err
	}
	out["pcsinet.dial_ns"] = fromSamples("ns", per)

	cl, err := pcsinet.Dial(ls.addr)
	if err != nil {
		return out, nil, err
	}
	defer cl.Close() //nolint:errcheck // only read after the run
	tok, err := cl.Create("regular", "linearizable", "MUTABLE", false)
	if err != nil {
		return out, nil, err
	}
	env := ls.cloud.Env()
	per, err = timeEach(rec, "pcsinet.rpc_put_ns", n, func() error { return cl.Put(tok, body) })
	if err != nil {
		return out, nil, err
	}
	out["pcsinet.rpc_put_ns"] = fromSamples("ns", per)
	ev0 := env.Dispatched()
	per, err = timeEach(rec, "pcsinet.rpc_get_ns", n, func() error { _, err := cl.Get(tok); return err })
	if err != nil {
		return out, nil, err
	}
	eventsPerGet := float64(env.Dispatched()-ev0) / float64(n)
	rpcGet := fromSamples("ns", per)
	out["pcsinet.rpc_get_ns"] = rpcGet

	simNS, err := simPerRPC(seed, n, body, rec)
	if err != nil {
		return out, nil, err
	}
	out["pcsinet.sim_ns_per_rpc"] = simNS
	out["pcsinet.transport_ns"] = value{Value: rpcGet.Value - simNS.Value - out["pcsinet.frame_ns"].Value, Unit: "ns",
		Note: "rpc_get - sim_ns_per_rpc - frame"}
	share := eventsPerGet * out["sim.sleep_ns"].Value / rpcGet.Value
	out["pcsinet.get_engine_share"] = value{Value: share, Unit: "ratio",
		Note: fmt.Sprintf("estimate: %.1f events x sim.sleep_ns / rpc_get_ns", eventsPerGet)}

	// Table 1's reference rows, taken in the same run on the same loopback.
	httpSrv, err := restbase.NewLoopbackHTTP(body)
	if err != nil {
		return out, nil, err
	}
	defer httpSrv.Close() //nolint:errcheck // listener teardown
	per, err = timeEach(rec, "restbase.http_get_ns", scaled(2000, scale, 20), func() error { _, err := httpSrv.Get(); return err })
	if err != nil {
		return out, nil, err
	}
	out["restbase.http_get_ns"] = fromSamples("ns", per)
	tcpSrv, err := restbase.NewLoopbackTCP()
	if err != nil {
		return out, nil, err
	}
	defer tcpSrv.Close() //nolint:errcheck // listener teardown
	back := make([]byte, len(body))
	per, err = timeEach(rec, "restbase.tcp_roundtrip_ns", n, func() error { return tcpSrv.RoundTrip(body, back) })
	if err != nil {
		return out, nil, err
	}
	out["restbase.tcp_roundtrip_ns"] = fromSamples("ns", per)

	notes := []string{fmt.Sprintf("simulator share of a loopback Get: %.1f%% (%.0f of %.0f ns); engine share estimate %.1f%%",
		100*simNS.Value/rpcGet.Value, simNS.Value, rpcGet.Value, 100*share)}
	return out, notes, nil
}

// timeEach runs fn n times and returns each call's host ns, recording a
// span per call.
func timeEach(rec *recorder, name string, n int, fn func() error) ([]float64, error) {
	per := make([]float64, 0, n)
	for i := 0; i < n; i++ {
		t0 := now()
		err := fn()
		t1 := now()
		if err != nil {
			return per, fmt.Errorf("%s: %w", name, err)
		}
		rec.add(name, t0, t1, 0, int64(i))
		per = append(per, float64(t1-t0))
	}
	return per, nil
}

// simPerRPC drives a 1 KiB Get in-process exactly as pcsinet's server does:
// one fresh simulation process per request, the clock advanced in 10 ms
// steps until it finishes.
func simPerRPC(seed int64, n int, body []byte, rec *recorder) (value, error) {
	opts := pcsi.DefaultOptions()
	opts.Seed = seed
	cloud := pcsi.New(opts)
	env := cloud.Env()
	client := cloud.NewClient(0)
	drive := func(fn func(p *sim.Proc) error) error {
		var ferr error
		finished := false
		env.Go("rpc", func(p *sim.Proc) {
			ferr = fn(p)
			finished = true
		})
		for !finished && env.Pending() > 0 {
			env.RunUntil(env.Now().Add(10 * time.Millisecond))
		}
		if !finished {
			return fmt.Errorf("request did not complete")
		}
		return ferr
	}
	var ref pcsi.Ref
	if err := drive(func(p *sim.Proc) (err error) {
		if ref, err = client.Create(p, pcsi.Regular); err != nil {
			return err
		}
		return client.Put(p, ref, body)
	}); err != nil {
		return value{}, err
	}
	per, err := timeEach(rec, "pcsinet.sim_ns_per_rpc", n, func() error {
		return drive(func(p *sim.Proc) error { _, err := client.Get(p, ref); return err })
	})
	return fromSamples("ns", per), err
}
