package main

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"runtime"
	"strings"
	"time"

	"repro/internal/sim"
	"repro/pcsi"
)

// graphBytes is E4's shape: a 3-stage task graph (wasm pre → GPU infer →
// wasm post) passing an 8 MiB and a 1 KiB ephemeral intermediate by
// reference, beside a frozen 64 KiB weights object. Half the graphs run on a
// PlaceNaive cloud, half on PlaceColocate, 4 submitter procs each. Host time
// is byte copying in object/store/core. op = one RunGraph.
type graphBytes struct{}

const (
	graphSubmitters = 4
	graphsPerSub    = 8 // per submitter per cloud: 64 graphs a pass
	graphUpload     = 8 << 20
	graphResult     = 1 << 10
	graphWeights    = 64 << 10
	graphDevWeights = 50 << 20 // what the device copy of the weights costs
	graphEdge       = 4 << 10  // bytes checksummed at each end of the upload
)

// uploadBufs are the submitters' upload payloads: a fixed body under a
// 32-byte header rewritten per graph. A submitter has one graph in flight,
// and Put copies, so each buffer is free again when its next graph starts.
var uploadBufs [graphSubmitters][]byte

func uploadBuf(sub, size int) []byte {
	if uploadBufs[sub] == nil {
		b := make([]byte, graphUpload)
		copyBody(b, sub*4099)
		uploadBufs[sub] = b
	}
	return uploadBufs[sub][:size]
}

// edgeSum checksums both ends of a payload: enough to catch truncation, a
// swapped payload or a wrong header without reading all 8 MiB on the host
// clock the workload is measuring.
func edgeSum(b []byte) uint32 {
	n := graphEdge
	if n > len(b) {
		n = len(b)
	}
	return crc32.ChecksumIEEE(b[:n]) ^ crc32.ChecksumIEEE(b[len(b)-n:])
}

// graphSeen is what the stage handlers observed for one graph; the
// submitter checks it when RunGraph returns.
type graphSeen struct {
	inferLen int
	inferSum uint32
	postOK   bool
}

type graphRun struct {
	policy     pcsi.PlacementPolicy
	seed       int64
	submitters int
	perSub     int
	upload     int
	rec        *recorder
	corrupt    bool
}

type graphOut struct {
	setupNS, runNS int64
	graphs         int64
	failed         int64
	mallocs        uint64
	allocBytes     uint64
	events         uint64
	virtNS         []int64
	hostNS         []int64 // per-graph host time (single submitter only)
	digest         string
	cold, invoked  int64
	violations     []string
}

// runGraphs builds one cloud, registers the three stages and runs the
// submitters' graphs to completion.
func runGraphs(g graphRun) (graphOut, error) {
	var out graphOut
	t0 := now()
	opts := pcsi.DefaultOptions()
	opts.Seed = g.seed
	opts.Policy = g.policy
	cloud := pcsi.New(opts)
	env := cloud.Env()
	client := cloud.NewClient(0)
	seen := make([]graphSeen, g.submitters*g.perSub)
	var pre, infer, post, weightsRO, metricsAppend pcsi.Ref

	var setupErr error
	env.Go("setup", func(p *sim.Proc) {
		setupErr = func() error {
			weights, err := client.Create(p, pcsi.Regular)
			if err != nil {
				return err
			}
			wbuf := make([]byte, graphWeights)
			fillRecord(wbuf, 0, 0, 1)
			if err := client.Put(p, weights, wbuf); err != nil {
				return err
			}
			if err := client.Freeze(p, weights, pcsi.Immutable); err != nil {
				return err
			}
			if weightsRO, err = client.Attenuate(weights, pcsi.RightRead); err != nil {
				return err
			}
			metricsObj, err := client.Create(p, pcsi.Regular, pcsi.WithConsistency(pcsi.Eventual))
			if err != nil {
				return err
			}
			if metricsAppend, err = client.Attenuate(metricsObj, pcsi.RightAppend); err != nil {
				return err
			}
			pre, err = client.RegisterFunction(p, pcsi.FnConfig{
				Name: "pre", Kind: pcsi.PlatformWasm,
				Res: pcsi.Resources{MilliCPU: 1000, MemMB: 512},
				Handler: func(fc *pcsi.FnCtx) error {
					fc.Proc().Sleep(2 * time.Millisecond) // decode
					sub, seq := decodeGraphBody(fc.Body)
					buf := uploadBuf(sub, g.upload)
					gid := sub*g.perSub + seq
					stampHeader(buf, uint32(gid), uint64(seq+1))
					if g.corrupt && gid == 0 {
						buf = append([]byte(nil), buf...)
						buf[len(buf)-1] ^= 0xff
					}
					if err := fc.Client.Put(fc.Proc(), fc.Outputs[0], buf); err != nil {
						return err
					}
					return fc.Client.Freeze(fc.Proc(), fc.Outputs[0], pcsi.Immutable)
				},
			})
			if err != nil {
				return err
			}
			infer, err = client.RegisterFunction(p, pcsi.FnConfig{
				Name: "infer", Kind: pcsi.PlatformGPU,
				Res: pcsi.Resources{GPUs: 1},
				Handler: func(fc *pcsi.FnCtx) error {
					if dev := fc.Device(); dev != nil {
						fc.Proc().Sleep(dev.Ensure("weights", graphDevWeights))
					}
					upload, err := fc.Client.Get(fc.Proc(), fc.Inputs[0])
					if err != nil {
						return err
					}
					sub, seq := decodeGraphBody(fc.Body)
					gid := sub*g.perSub + seq
					seen[gid].inferLen, seen[gid].inferSum = len(upload), edgeSum(upload)
					if dev := fc.Device(); dev != nil {
						fc.Proc().Sleep(dev.Ensure(fmt.Sprintf("upload-%d", fc.Inv.Seq), int64(len(upload))))
					}
					fc.Proc().Sleep(5 * time.Millisecond) // kernel
					res := make([]byte, graphResult)
					fillRecord(res, uint32(gid), 0, uint64(edgeSum(upload)))
					if err := fc.Client.Put(fc.Proc(), fc.Outputs[0], res); err != nil {
						return err
					}
					return fc.Client.Freeze(fc.Proc(), fc.Outputs[0], pcsi.Immutable)
				},
			})
			if err != nil {
				return err
			}
			post, err = client.RegisterFunction(p, pcsi.FnConfig{
				Name: "post", Kind: pcsi.PlatformWasm,
				Res: pcsi.Resources{MilliCPU: 500, MemMB: 256},
				Handler: func(fc *pcsi.FnCtx) error {
					res, err := fc.Client.Get(fc.Proc(), fc.Inputs[0])
					if err != nil {
						return err
					}
					sub, seq := decodeGraphBody(fc.Body)
					gid := sub*g.perSub + seq
					v, cerr := checkRecord(res, uint32(gid), 0, graphResult)
					seen[gid].postOK = cerr == nil && v == uint64(seen[gid].inferSum)
					fc.Proc().Sleep(time.Millisecond) // format the response
					return fc.Client.Append(fc.Proc(), fc.Inputs[1], []byte("served\n"))
				},
			})
			return err
		}()
	})
	env.RunUntil(setupHorizon)
	if setupErr != nil {
		return out, fmt.Errorf("graph set-up: %w", setupErr)
	}
	if !pre.Valid() || !infer.Valid() || !post.Valid() {
		return out, fmt.Errorf("graph set-up did not finish within the set-up horizon")
	}

	coloc := g.policy == pcsi.PlaceColocate
	for sub := 0; sub < g.submitters; sub++ {
		sub := sub
		env.Go("submitter", func(p *sim.Proc) {
			for seq := 0; seq < g.perSub; seq++ {
				gid := sub*g.perSub + seq
				body := encodeGraphBody(sub, seq)
				upload, err := client.Create(p, pcsi.Regular, pcsi.WithEphemeral())
				if err != nil {
					out.failed++
					out.violations = append(out.violations, fmt.Sprintf("graph %d: create: %v", gid, err))
					continue
				}
				result, err := client.Create(p, pcsi.Regular, pcsi.WithEphemeral())
				if err != nil {
					out.failed++
					out.violations = append(out.violations, fmt.Sprintf("graph %d: create: %v", gid, err))
					continue
				}
				v0 := p.Now()
				th := now()
				_, err = client.RunGraph(p, []pcsi.GraphTask{
					{Name: "pre", Fn: pre, Body: body, Outputs: []pcsi.Ref{upload}, PreferGPUNode: coloc},
					{Name: "infer", Fn: infer, Body: body, After: []string{"pre"}, Colocate: true,
						Inputs: []pcsi.Ref{upload, weightsRO}, Outputs: []pcsi.Ref{result}},
					{Name: "post", Fn: post, Body: body, After: []string{"infer"}, Colocate: true,
						Inputs: []pcsi.Ref{result, metricsAppend}},
				})
				t1 := now()
				g.rec.add("pcsi.Client.RunGraph", th, t1, int32(sub), int64(gid))
				out.hostNS = append(out.hostNS, t1-th)
				out.virtNS = append(out.virtNS, int64(p.Now().Sub(v0)))
				out.graphs++
				client.Drop(upload)
				client.Drop(result)
				if err != nil {
					out.failed++
					out.violations = append(out.violations, fmt.Sprintf("graph %d: %v", gid, err))
					continue
				}
				// The upload the submitter's stage wrote, as the next stage
				// must have seen it: length and both-ends checksum.
				want := uploadBuf(sub, g.upload)
				stampHeader(want, uint32(gid), uint64(seq+1))
				s := seen[gid]
				if s.inferLen != g.upload || s.inferSum != edgeSum(want) || !s.postOK {
					out.violations = append(out.violations, fmt.Sprintf(
						"graph %d: infer saw %d bytes sum %#x (want %d, %#x), post check %v",
						gid, s.inferLen, s.inferSum, g.upload, edgeSum(want), s.postOK))
				}
			}
		})
	}
	out.setupNS = now() - t0

	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	ev0, v0 := env.Dispatched(), env.Now()
	t1 := now()
	end := env.Run()
	out.runNS = now() - t1
	runtime.ReadMemStats(&m1)
	out.mallocs, out.allocBytes = m1.Mallocs-m0.Mallocs, m1.TotalAlloc-m0.TotalAlloc
	out.events = env.Dispatched() - ev0

	var copies, copied int64
	for _, n := range cloud.Cluster().Nodes() {
		if d := cloud.Device(n.ID); d != nil {
			copies += d.Copies
			copied += d.BytesCopied
		}
	}
	rt := cloud.Runtime()
	out.cold, out.invoked = rt.ColdStarts.Value(), rt.Invocations.Value()
	out.digest = fmt.Sprintf("%s{end=%d events=%d graphs=%d failed=%d bytes_moved=%d cache_hits=%d device_copies=%d device_bytes=%d cold=%d invoked=%d lat=%s}",
		g.policy, int64(end.Sub(v0)), out.events, out.graphs, out.failed, cloud.BytesMoved, cloud.CacheHits,
		copies, copied, out.cold, out.invoked, latBuckets(out.virtNS))
	return out, nil
}

func encodeGraphBody(sub, seq int) []byte {
	b := make([]byte, 8)
	binary.LittleEndian.PutUint32(b[0:], uint32(sub))
	binary.LittleEndian.PutUint32(b[4:], uint32(seq))
	return b
}

func decodeGraphBody(b []byte) (sub, seq int) {
	return int(binary.LittleEndian.Uint32(b[0:])), int(binary.LittleEndian.Uint32(b[4:]))
}

// stampHeader rewrites only a record's header; the body keeps whatever the
// buffer holds.
func stampHeader(buf []byte, idx uint32, ver uint64) {
	binary.LittleEndian.PutUint32(buf[0:], recMagic)
	binary.LittleEndian.PutUint32(buf[4:], idx)
	binary.LittleEndian.PutUint64(buf[8:], ver)
	binary.LittleEndian.PutUint32(buf[16:], uint32(len(buf)))
	binary.LittleEndian.PutUint32(buf[20:], 0)
	binary.LittleEndian.PutUint32(buf[24:], 0)
	binary.LittleEndian.PutUint32(buf[28:], crc32.ChecksumIEEE(buf[:28]))
}

func (graphBytes) pass(cfg passCfg) (passOut, error) {
	var out passOut
	var digests []string
	var events uint64
	var cold, invoked int64
	for _, policy := range []pcsi.PlacementPolicy{pcsi.PlaceNaive, pcsi.PlaceColocate} {
		g, err := runGraphs(graphRun{
			policy: policy, seed: cfg.seed, submitters: graphSubmitters,
			perSub: scaled(graphsPerSub, cfg.scale, 1), upload: graphUpload,
			rec: cfg.rec, corrupt: cfg.corrupt,
		})
		if err != nil {
			return out, err
		}
		out.setupNS += g.setupNS
		out.runNS += g.runNS
		out.ops += g.graphs
		out.failed += g.failed
		out.mallocs += g.mallocs
		out.virtNS = append(out.virtNS, g.virtNS...)
		out.violations = append(out.violations, g.violations...)
		digests = append(digests, g.digest)
		events += g.events
		cold += g.cold
		invoked += g.invoked
	}
	out.digest = strings.Join(digests, " ")
	out.exact = map[string]float64{
		"sim.events":            float64(events),
		"faas.cold_start_ratio": ratio(float64(cold), float64(invoked)),
	}
	out.host = map[string]float64{
		"sim.ns_per_event":     float64(out.runNS) / float64(events),
		"sim.allocs_per_event": float64(out.mallocs) / float64(events),
	}
	return out, nil
}

// ladder prices what graph-bytes is made of: a warm and a cold invocation,
// the same graph with 1 KiB payloads (orchestration alone), and from the
// difference to the 8 MiB graph the cost of moving a MiB.
func (graphBytes) ladder(seed int64, scale int, rec *recorder) (map[string]value, []string, error) {
	out := map[string]value{}
	if err := invokeRungs(seed, scale, rec, out); err != nil {
		return out, nil, err
	}
	single := func(upload, n int) (graphOut, error) {
		g, err := runGraphs(graphRun{
			policy: pcsi.PlaceColocate, seed: seed, submitters: 1, perSub: n, upload: upload, rec: rec,
		})
		if err == nil && (g.failed > 0 || len(g.violations) > 0) {
			err = fmt.Errorf("ladder graph failed: %v", g.violations)
		}
		return g, err
	}
	small, err := single(graphResult, scaled(200, scale, 8))
	if err != nil {
		return out, nil, err
	}
	big, err := single(graphUpload, scaled(24, scale, 4))
	if err != nil {
		return out, nil, err
	}
	// The first graphs pay cold starts; the median is a warm graph.
	smallNS, bigNS := medianInt64(small.hostNS), medianInt64(big.hostNS)
	out["taskgraph.graph_ns"] = fromSamples("ns", toFloats(small.hostNS))
	out["taskgraph.graph_events"] = value{Value: float64(small.events) / float64(small.graphs), Unit: "events/op",
		Note: fmt.Sprintf("%d graphs, cold starts included", small.graphs)}
	mib := float64(graphUpload) / (1 << 20)
	out["object.copy_ns_per_mib"] = value{Value: (bigNS - smallNS) / mib, Unit: "ns/MiB", N: len(big.hostNS),
		Note: "8 MiB graph minus 1 KiB graph, per MiB of upload"}
	out["object.alloc_mib_per_graph"] = value{Value: float64(big.allocBytes) / float64(big.graphs) / (1 << 20), Unit: "MiB/graph"}
	notes := []string{fmt.Sprintf("byte-copy share of an 8 MiB graph: %.1f%% (%.0f of %.0f ns host; the 1 KiB graph costs %.0f ns)",
		100*(bigNS-smallNS)/bigNS, bigNS-smallNS, bigNS, smallNS)}
	return out, notes, nil
}

// invokeRungs times warm and cold invocations of a function that does
// nothing, through pcsi.Client.Invoke.
func invokeRungs(seed int64, scale int, rec *recorder, out map[string]value) error {
	opts := pcsi.DefaultOptions()
	opts.Seed = seed
	cloud := pcsi.New(opts)
	env := cloud.Env()
	client := cloud.NewClient(0)
	nWarm, nCold := scaled(2000, scale, 20), scaled(200, scale, 5)
	var warmNS, coldNS []int64
	var warmEvents uint64
	var runErr error
	env.Go("invoker", func(p *sim.Proc) {
		runErr = func() error {
			nop := func(fc *pcsi.FnCtx) error { return nil }
			fns := make([]pcsi.Ref, nCold)
			for i := range fns {
				ref, err := client.RegisterFunction(p, pcsi.FnConfig{
					Name: fmt.Sprintf("nop-%d", i), Kind: pcsi.PlatformWasm, CodeSize: 1 << 16, Handler: nop,
				})
				if err != nil {
					return err
				}
				fns[i] = ref
			}
			for i, fn := range fns {
				t0 := now()
				if _, err := client.Invoke(p, fn, pcsi.InvokeArgs{}); err != nil {
					return err
				}
				t1 := now()
				rec.add("pcsi.Client.Invoke(cold)", t0, t1, 0, int64(i))
				coldNS = append(coldNS, t1-t0)
			}
			ev0 := env.Dispatched()
			for i := 0; i < nWarm; i++ {
				t0 := now()
				if _, err := client.Invoke(p, fns[0], pcsi.InvokeArgs{}); err != nil {
					return err
				}
				t1 := now()
				rec.add("pcsi.Client.Invoke(warm)", t0, t1, 0, int64(i))
				warmNS = append(warmNS, t1-t0)
			}
			warmEvents = env.Dispatched() - ev0
			return nil
		}()
	})
	env.Run()
	if runErr != nil {
		return fmt.Errorf("invoke rungs: %w", runErr)
	}
	rt := cloud.Runtime()
	if rt.ColdStarts.Value() != int64(nCold) {
		return fmt.Errorf("invoke rungs: %d cold starts, want %d", rt.ColdStarts.Value(), nCold)
	}
	out["faas.invoke_warm_ns"] = fromSamples("ns", toFloats(warmNS))
	out["faas.invoke_cold_ns"] = fromSamples("ns", toFloats(coldNS))
	out["faas.invoke_warm_events"] = value{Value: float64(warmEvents) / float64(nWarm), Unit: "events/op"}
	return nil
}
