package experiments

import (
	"fmt"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/platform"
	"repro/internal/sim"
	"repro/internal/workload"
)

// E9 validates §3.1/§4.2: functions "scale from a single invocation to
// thousands (or more)" with pay-per-use billing. A Poisson burst drives a
// cold deployment from zero to a large instance fleet and back to zero;
// the experiment reports cold-start counts, latency, peak fleet size, and
// instance-seconds billed versus what a peak-provisioned fleet would have
// cost over the same window.

func init() {
	register(Experiment{ID: "E9", Title: "§3.1/§4.2: autoscaling from zero, pay-per-use", fn: runE9})
}

const (
	e9Burst    = 2000.0 // requests per second during the burst
	e9BurstLen = 5 * time.Second
	e9Window   = 30 * time.Second
	e9Exec     = 50 * time.Millisecond
)

func runE9(rn run) *Report {
	r := &Report{}
	opts := rn.options()
	opts.IdleTimeout = 3 * time.Second
	opts.Policy = core.PlacePacked
	// A larger cluster so 100+ concurrent instances fit.
	opts.ClusterCfg = cluster.Config{
		Racks: 8, NodesPerRack: 16,
		NodeCap:         cluster.Resources{MilliCPU: 32000, MemMB: 131072},
		GPUNodesPerRack: 0,
	}
	cloud := core.New(opts)
	client := cloud.NewClient(0)
	env := cloud.Env()
	defer env.Close() // RunUntil stops with processes still parked
	rt := cloud.Runtime()

	lat := metrics.NewHistogram("invoke")
	peak := 0
	var reqs, failed int64
	var fnRef core.Ref
	setup := env.NewEvent()
	env.Go("setup", func(p *sim.Proc) {
		var err error
		fnRef, err = client.RegisterFunction(p, core.FnConfig{
			Name: "burst", Kind: platform.Wasm,
			Res: cluster.Resources{MilliCPU: 250, MemMB: 128},
			Handler: func(fc *core.FnCtx) error {
				fc.Proc().Sleep(e9Exec)
				return nil
			},
		})
		if err != nil {
			r.Check("setup", false, "register: %v", err)
			return
		}
		setup.Complete(nil)
	})

	// Load: quiet, then a hard 5-second burst at 2000 rps, then quiet.
	env.Go("load", func(p *sim.Proc) {
		if _, err := p.Wait(setup); err != nil {
			return
		}
		if rt.WarmCount("burst") != 0 {
			r.Check("starts-at-zero", false, "fleet not empty at start")
		}
		p.Sleep(time.Second)
		arr := workload.NewPoisson(env, e9Burst)
		workload.Run(env, arr, p.Now().Add(e9BurstLen), func(rp *sim.Proc, seq int) {
			start := rp.Now()
			if _, err := client.Invoke(rp, fnRef, core.InvokeArgs{}); err != nil {
				failed++
				return
			}
			reqs++
			lat.Observe(rp.Now().Sub(start))
			if w := rt.WarmCount("burst"); w > peak {
				peak = w
			}
		})
	})
	env.RunUntil(sim.Time(e9Window))
	endFleet := rt.WarmCount("burst")
	rt.Drain()

	// Billing comparison.
	perInstHour := 0.048*0.25 + 0.0053*0.125
	paid := rt.InstanceSeconds / 3600 * perInstHour
	provisioned := float64(peak) * e9Window.Seconds() / 3600 * perInstHour

	t := metrics.NewTable("Poisson burst 0 → 2000 rps → 0 (5s burst, 30s window)",
		"Metric", "Value")
	t.Row("requests served", fmt.Sprintf("%d", reqs))
	t.Row("failed invocations", fmt.Sprintf("%d", failed))
	t.Row("cold starts", fmt.Sprintf("%d", rt.ColdStarts.Value()))
	t.Row("warm starts", fmt.Sprintf("%d", rt.WarmStarts.Value()))
	t.Row("peak fleet size", fmt.Sprintf("%d instances", peak))
	t.Row("fleet after idle timeout", fmt.Sprintf("%d instances", endFleet))
	t.Row("p50 / p99 latency", fmt.Sprintf("%v / %v", metrics.FmtDuration(lat.P50()), metrics.FmtDuration(lat.P99())))
	t.Row("instance-seconds billed", fmt.Sprintf("%.1f", rt.InstanceSeconds))
	t.Row("pay-per-use cost", fmt.Sprintf("$%.5f", paid))
	t.Row("peak-provisioned cost (same window)", fmt.Sprintf("$%.5f", provisioned))
	r.Tables = append(r.Tables, t)

	r.Check("served-the-burst", failed == 0 && reqs > int64(e9Burst*e9BurstLen.Seconds())*8/10,
		"%d requests served with no failures", reqs)
	r.Check("scaled-from-zero", rt.ColdStarts.Value() >= 50 && peak >= 80,
		"fleet grew from 0 to %d instances (%d cold starts)", peak, rt.ColdStarts.Value())
	r.Check("scaled-back-to-zero", endFleet == 0,
		"fleet returned to zero after the idle timeout — pay-per-use, no capacity reservation")
	r.Check("latency-bounded", lat.P99() < e9Exec*4,
		"p99 %v stayed within 4x of execution time despite the cold burst (Wasm cold start is ~50µs)", lat.P99())
	r.Check("cheaper-than-provisioned", paid < provisioned/2,
		"pay-per-use $%.5f < half of peak-provisioned $%.5f", paid, provisioned)
	return r
}
