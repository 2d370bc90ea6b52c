// Autoscaling: functions "scale in accordance to the number of requests
// they receive" (§1) — from zero, to a fleet, and back to zero — with
// pay-per-use billing.
//
// A traffic spike hits a completely cold deployment. The example prints
// the fleet size over time, latency percentiles, and what the burst cost
// under pay-per-use versus keeping a peak-sized fleet provisioned.
//
//	go run ./examples/autoscale
package main

import (
	"errors"
	"fmt"
	"log"
	"time"

	"repro/internal/metrics"
	"repro/internal/workload"
	"repro/pcsi"
)

func main() {
	opts := pcsi.DefaultOptions()
	opts.IdleTimeout = 2 * time.Second
	opts.Policy = pcsi.PlacePacked
	cloud := pcsi.New(opts)
	client := cloud.NewClient(0)
	env := cloud.Env()
	rt := cloud.Runtime()

	lat := metrics.NewHistogram("latency")
	var served int

	var fn pcsi.Ref
	ready := env.NewEvent()
	env.Go("setup", func(p *pcsi.Proc) {
		var err error
		fn, err = client.RegisterFunction(p, pcsi.FnConfig{
			Name: "handler", Kind: pcsi.PlatformWasm,
			Res: pcsi.Resources{MilliCPU: 500, MemMB: 128},
			Handler: func(fc *pcsi.FnCtx) error {
				fc.Proc().Sleep(25 * time.Millisecond)
				return nil
			},
		})
		if err != nil {
			log.Fatal(err)
		}
		ready.Complete(nil)
	})

	// Load: 1s quiet, 4s spike at 800 rps, then silence.
	env.Go("load", func(p *pcsi.Proc) {
		if _, err := p.Wait(ready); err != nil {
			return
		}
		fmt.Printf("t=%-6v fleet=%d (cold deployment)\n", p.Now(), rt.WarmCount("handler"))
		p.Sleep(time.Second)
		arr := workload.NewPoisson(env, 800)
		workload.Run(env, arr, p.Now().Add(4*time.Second), func(rp *pcsi.Proc, seq int) {
			start := rp.Now()
			if _, err := client.Invoke(rp, fn, pcsi.InvokeArgs{}); err != nil {
				return
			}
			served++
			lat.Observe(rp.Now().Sub(start))
		})
	})

	// Sampler: print the fleet size each second.
	env.Go("sampler", func(p *pcsi.Proc) {
		for i := 0; i < 10; i++ {
			p.Sleep(time.Second)
			fmt.Printf("t=%-6v fleet=%d\n", p.Now(), rt.WarmCount("handler"))
		}
	})
	env.RunUntil(pcsi.Time(12 * time.Second))

	rt.Drain()
	fmt.Printf("\nserved %d requests: p50=%v p99=%v\n", served,
		metrics.FmtDuration(lat.P50()), metrics.FmtDuration(lat.P99()))
	fmt.Printf("cold starts: %d, warm starts: %d\n", rt.ColdStarts.Value(), rt.WarmStarts.Value())

	peakFleet := 25.0 // sized for the spike
	perInstHour := 0.048*0.5 + 0.0053*0.125
	payPerUse := rt.InstanceSeconds / 3600 * perInstHour
	provisioned := peakFleet * 12 / 3600 * perInstHour
	fmt.Printf("pay-per-use: $%.6f for %.0f instance-seconds\n", payPerUse, rt.InstanceSeconds)
	fmt.Printf("peak-provisioned for the same window: $%.6f (%.1fx more)\n",
		provisioned, provisioned/payPerUse)

	admissionDemo()
}

// admissionDemo shows the other half of elasticity: what happens when the
// cluster CANNOT scale to the offered load. A fixed 8-slot deployment is
// hit with a burst at 4x its capacity. With Options.QoS set, the excess is
// shed on arrival with the typed pcsi.ErrOverload, the queue-delay budget
// caps the tail, and goodput stays pinned at capacity.
func admissionDemo() {
	opts := pcsi.DefaultOptions()
	opts.Policy = pcsi.PlacePacked
	opts.IdleTimeout = time.Second
	// 4 nodes × 2 slots of 2000 mCPU → 8 concurrent invocations; at 10ms
	// per call the deployment serves 800 rps, and the burst offers 3200.
	opts.ClusterCfg.Racks = 2
	opts.ClusterCfg.NodesPerRack = 2
	opts.ClusterCfg.NodeCap = pcsi.Resources{MilliCPU: 4000, MemMB: 16384}
	opts.QoS = &pcsi.QoSConfig{Invoke: pcsi.QoSClassConfig{
		PerOp:         pcsi.Resources{MilliCPU: 2000, MemMB: 128},
		MaxQueue:      64,
		MaxQueueDelay: 100 * time.Millisecond,
		CoDelTarget:   20 * time.Millisecond,
	}}
	cloud := pcsi.New(opts)
	client := cloud.NewClient(0)
	env := cloud.Env()

	lat := metrics.NewHistogram("latency")
	var served, shed int

	var fn pcsi.Ref
	ready := env.NewEvent()
	env.Go("setup", func(p *pcsi.Proc) {
		var err error
		fn, err = client.RegisterFunction(p, pcsi.FnConfig{
			Name: "gated", Kind: pcsi.PlatformWasm,
			Res: pcsi.Resources{MilliCPU: 1990, MemMB: 120},
			Handler: func(fc *pcsi.FnCtx) error {
				fc.Proc().Sleep(10 * time.Millisecond)
				return nil
			},
		})
		if err != nil {
			log.Fatal(err)
		}
		ready.Complete(nil)
	})
	env.Go("burst", func(p *pcsi.Proc) {
		if _, err := p.Wait(ready); err != nil {
			return
		}
		arr := workload.NewPoisson(env, 3200) // 4x the 800 rps capacity
		workload.Run(env, arr, p.Now().Add(2*time.Second), func(rp *pcsi.Proc, seq int) {
			start := rp.Now()
			switch _, err := client.Invoke(rp, fn, pcsi.InvokeArgs{}); {
			case err == nil:
				served++
				lat.Observe(rp.Now().Sub(start))
			case errors.Is(err, pcsi.ErrOverload):
				shed++
			}
		})
	})
	env.RunUntil(pcsi.Time(5 * time.Second))
	cloud.Runtime().Drain()

	fmt.Printf("\n-- admission control: 4x overload burst against a fixed 8-slot fleet --\n")
	fmt.Printf("served %d, shed %d (typed ErrOverload — never a timeout)\n", served, shed)
	fmt.Printf("goodput %.0f rps of 800 rps capacity, p50=%v p99=%v (queue-delay budget 100ms)\n",
		float64(served)/2, metrics.FmtDuration(lat.P50()), metrics.FmtDuration(lat.P99()))
	st := cloud.QoS().ClassStats(pcsi.QoSClassInvoke)
	fmt.Printf("shed breakdown: queue-full=%d deadline=%d codel=%d, peak queue %d\n",
		st.ShedQueueFull, st.ShedDeadline, st.ShedCoDel, st.MaxQueued)
}
