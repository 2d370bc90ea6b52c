package experiments

import (
	"fmt"
	"time"

	"repro/internal/capability"
	"repro/internal/cluster"
	"repro/internal/consistency"
	"repro/internal/core"
	"repro/internal/media"
	"repro/internal/metrics"
	"repro/internal/object"
	"repro/internal/platform"
	"repro/internal/sim"
)

// E4 reproduces Figure 2 and §4.1: the model-serving pipeline —
// HTTP decode → GPU inference → post-processing — run once with naive
// placement (every stage lands on a random node, intermediates travel
// through remote storage) and once with task-graph-aware co-location
// (stages share a GPU node, intermediates served from the local cache,
// weights stay resident in device memory).
//
// The paper's claim: "data movement is reduced to a single cudaMemcpy"
// and the co-located implementation "would achieve performance similar to
// a monolithic server-based service."

func init() {
	register(Experiment{ID: "E4", Title: "Figure 2 + §4.1: model serving, naive vs co-located", fn: runE4})
}

// pipelineStats summarises one policy's run.
type pipelineStats struct {
	policy      core.PlacementPolicy
	lat         *metrics.Histogram
	bytesMoved  int64
	deviceCopy  int64
	deviceBytes int64
	cacheHits   int64
}

const (
	e4Requests   = 30
	e4UploadSize = 8 << 20  // 8 MB image batch upload
	e4WeightSize = 50 << 20 // 50 MB model weights
	e4ResultSize = 1 << 10
)

func runE4(rn run) *Report {
	r := &Report{}
	naive := runPipeline(rn, core.PlaceNaive, r)
	coloc := runPipeline(rn, core.PlaceColocate, r)
	if naive == nil || coloc == nil {
		return r
	}

	t := metrics.NewTable("Model-serving pipeline: 30 requests, 8MB uploads, 50MB weights",
		"Placement", "p50 latency", "p99 latency", "bytes moved", "device copies", "cache hits")
	for _, s := range []*pipelineStats{naive, coloc} {
		t.Row(s.policy.String(),
			metrics.FmtDuration(s.lat.P50()), metrics.FmtDuration(s.lat.P99()),
			metrics.FmtBytes(s.bytesMoved), fmt.Sprintf("%d", s.deviceCopy), fmt.Sprintf("%d", s.cacheHits))
	}
	t.Note("naive: every stage on a random node; colocate: graph-aware placement on one GPU node")
	r.Tables = append(r.Tables, t)

	speedup := ratio(float64(naive.lat.P50()), float64(coloc.lat.P50()))
	r.Check("colocation-speedup", speedup >= 1.5,
		"co-located p50 is %.1fx faster than naive (§4.1: 'similar to a monolithic server')", speedup)
	r.Check("data-movement-reduced", coloc.bytesMoved*5 < naive.bytesMoved,
		"co-location moved %s vs naive %s over the network",
		metrics.FmtBytes(coloc.bytesMoved), metrics.FmtBytes(naive.bytesMoved))
	perReq := coloc.bytesMoved / e4Requests
	r.Check("single-cudamemcpy", coloc.deviceCopy <= int64(e4Requests)+2 && perReq < e4UploadSize/10,
		"co-located per-request network bytes %s ≪ upload size %s: data movement is just the device copy (%d copies for %d requests)",
		metrics.FmtBytes(perReq), metrics.FmtBytes(e4UploadSize), coloc.deviceCopy, e4Requests)
	r.Check("cache-hits-colocate", coloc.cacheHits > naive.cacheHits,
		"co-location hit the node-local cache %d times vs %d", coloc.cacheHits, naive.cacheHits)
	return r
}

func runPipeline(rn run, policy core.PlacementPolicy, r *Report) *pipelineStats {
	opts := rn.options()
	opts.Policy = policy
	opts.Media = media.NVMe
	cloud := core.New(opts)
	client := cloud.NewClient(0)
	stats := &pipelineStats{policy: policy, lat: metrics.NewHistogram(policy.String())}

	fail := func(err error) {
		r.Check("setup-"+policy.String(), false, "pipeline failed: %v", err)
	}

	cloud.Env().Go("driver", func(p *sim.Proc) {
		// Shared state: the weights object — strongly consistent, widely
		// replicated, immutable (Figure 2: "Weights Saved").
		weights, err := client.Create(p, object.Regular)
		if err != nil {
			fail(err)
			return
		}
		if err := client.PutShared(p, weights, object.Zeros(1<<16)); err != nil { // stand-in payload
			fail(err)
			return
		}
		if err := client.Freeze(p, weights, object.Immutable); err != nil {
			fail(err)
			return
		}
		weightsRO, err := client.Attenuate(weights, capability.Read)
		if err != nil {
			fail(err)
			return
		}
		// Metrics object: eventually consistent appends (Figure 2:
		// "Metrics").
		metricsObj, err := client.Create(p, object.Regular, core.WithConsistency(consistency.Eventual))
		if err != nil {
			fail(err)
			return
		}

		// The three pipeline functions.
		pre, err := client.RegisterFunction(p, core.FnConfig{
			Name: "preprocess", Kind: platform.Wasm,
			Res: cluster.Resources{MilliCPU: 1000, MemMB: 512},
			Handler: func(fc *core.FnCtx) error {
				fc.Proc().Sleep(2 * time.Millisecond) // HTTP decode CPU time
				// No stage reads or writes the upload bytes.
				upload := fc.Outputs[0]
				if err := fc.Client.PutShared(fc.Proc(), upload, object.Zeros(e4UploadSize)); err != nil {
					return err
				}
				// Single-use intermediate: freeze so downstream reads are
				// cache-stable.
				return fc.Client.Freeze(fc.Proc(), upload, object.Immutable)
			},
		})
		if err != nil {
			fail(err)
			return
		}
		infer, err := client.RegisterFunction(p, core.FnConfig{
			Name: "infer", Kind: platform.GPU,
			Res: cluster.Resources{GPUs: 1},
			Handler: func(fc *core.FnCtx) error {
				// Model weights onto the device (one cudaMemcpy if absent).
				if dev := fc.Device(); dev != nil {
					fc.Proc().Sleep(dev.Ensure("weights", e4WeightSize))
				}
				upload, err := fc.Client.Get(fc.Proc(), fc.Inputs[0])
				if err != nil {
					return err
				}
				// Upload onto the device.
				if dev := fc.Device(); dev != nil {
					key := fmt.Sprintf("upload-%d", fc.Inv.Seq)
					fc.Proc().Sleep(dev.Ensure(key, int64(len(upload))))
				}
				fc.Proc().Sleep(5 * time.Millisecond) // GPU kernel time
				if err := fc.Client.PutShared(fc.Proc(), fc.Outputs[0], object.Zeros(e4ResultSize)); err != nil {
					return err
				}
				return fc.Client.Freeze(fc.Proc(), fc.Outputs[0], object.Immutable)
			},
		})
		if err != nil {
			fail(err)
			return
		}
		post, err := client.RegisterFunction(p, core.FnConfig{
			Name: "postprocess", Kind: platform.Wasm,
			Res: cluster.Resources{MilliCPU: 500, MemMB: 256},
			Handler: func(fc *core.FnCtx) error {
				if _, err := fc.Client.Get(fc.Proc(), fc.Inputs[0]); err != nil {
					return err
				}
				fc.Proc().Sleep(time.Millisecond) // response formatting
				// Eventually-consistent metrics append.
				return fc.Client.Append(fc.Proc(), fc.Inputs[1], []byte("served\n"))
			},
		})
		if err != nil {
			fail(err)
			return
		}

		metricsAppend, err := client.Attenuate(metricsObj, capability.Append)
		if err != nil {
			fail(err)
			return
		}

		for i := 0; i < e4Requests; i++ {
			// Intermediates are ephemeral: single-copy, owner-resident
			// state passed between pipeline stages by reference.
			upload, err := client.Create(p, object.Regular, core.WithEphemeral())
			if err != nil {
				fail(err)
				return
			}
			result, err := client.Create(p, object.Regular, core.WithEphemeral())
			if err != nil {
				fail(err)
				return
			}
			start := p.Now()
			_, err = client.RunGraph(p, []core.GraphTask{
				{Name: "pre", Fn: pre, Outputs: []core.Ref{upload}, PreferGPUNode: policy == core.PlaceColocate},
				{Name: "infer", Fn: infer, After: []string{"pre"}, Colocate: true,
					Inputs: []core.Ref{upload, weightsRO}, Outputs: []core.Ref{result}},
				{Name: "post", Fn: post, After: []string{"infer"}, Colocate: true,
					Inputs: []core.Ref{result, metricsAppend}},
			})
			if err != nil {
				fail(err)
				return
			}
			stats.lat.Observe(p.Now().Sub(start))
			client.Drop(upload)
			client.Drop(result)
		}
	})
	cloud.Env().Run()
	if stats.lat.Count() != e4Requests {
		r.Check("completed-"+policy.String(), false, "only %d/%d requests completed", stats.lat.Count(), e4Requests)
		return nil
	}
	stats.bytesMoved = cloud.BytesMoved
	stats.cacheHits = cloud.CacheHits
	for _, n := range cloud.Cluster().Nodes() {
		if d := cloud.Device(n.ID); d != nil {
			stats.deviceCopy += d.Copies
			stats.deviceBytes += d.BytesCopied
		}
	}
	return stats
}
