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

// E5 reproduces §4.2 ("Making it Efficient"): rather than dedicate
// capacity sized for peak, the provider scavenges underutilised resources
// for each function independently. "Even though this may affect
// performance, it makes much more efficient use of expensive resources"
// — and since workloads come with SLOs, "good enough" performance is all
// that is needed.
//
// Three deployments serve the same bursty workload:
//   - Dedicated: a provisioned fleet of always-warm instances sized for
//     peak (the bare-metal-cluster strawman).
//   - Packed: serverless autoscaling with dense placement.
//   - Scavenge: serverless autoscaling on harvested idle capacity with
//     preemption risk.
//
// Metrics: p99 vs a 250 ms SLO, cost, and cluster utilisation.

func init() {
	register(Experiment{ID: "E5", Title: "§4.2: efficiency — dedicated vs packed vs scavenged", fn: runE5})
}

type e5Stats struct {
	name      string
	lat       *metrics.Histogram
	costUSD   float64
	util      float64
	preempted int64
	slo       float64 // fraction of requests within SLO
	reqs      int64
}

const (
	e5SLO      = 250 * time.Millisecond
	e5Duration = 30 * time.Second
	e5ExecTime = 40 * time.Millisecond
)

func runE5(rn run) *Report {
	r := &Report{ID: "E5", Title: "§4.2: efficiency — dedicated vs packed vs scavenged"}
	configs := []struct {
		name      string
		policy    core.PlacementPolicy
		dedicated bool
	}{
		{"dedicated", core.PlacePacked, true},
		{"packed", core.PlacePacked, false},
		{"scavenge", core.PlaceScavenge, false},
	}
	stats := make([]*e5Stats, len(configs))
	fails := make([][]Check, len(configs))
	// A deployment that completes nothing ends the run: fan hands out no
	// config after it, so at width 1 none after it is even set up.
	rn.fan(len(configs), func(i int) bool {
		cfg := configs[i]
		stats[i], fails[i] = runE5One(rn, cfg.name, cfg.policy, cfg.dedicated)
		return stats[i] != nil
	})
	for i := range configs {
		if stats[i] == nil {
			r.Checks = append(r.Checks, fails[i]...)
			return r
		}
	}

	t := metrics.NewTable(fmt.Sprintf("Bursty workload for %v, SLO p99 ≤ %v", e5Duration, e5SLO),
		"Deployment", "requests", "p50", "p99", "SLO attained", "compute cost", "preemptions")
	for _, s := range stats {
		t.Row(s.name, fmt.Sprintf("%d", s.reqs),
			metrics.FmtDuration(s.lat.P50()), metrics.FmtDuration(s.lat.P99()),
			fmt.Sprintf("%.1f%%", s.slo*100), fmt.Sprintf("$%.4f", s.costUSD),
			fmt.Sprintf("%d", s.preempted))
	}
	t.Note("dedicated keeps a peak-sized fleet warm; scavenge harvests idle capacity at spot pricing")
	r.Tables = append(r.Tables, t)

	ded, packed, scav := stats[0], stats[1], stats[2]
	r.Check("dedicated-fast-but-costly", ded.lat.P99() < packed.lat.P99() && ded.costUSD > scav.costUSD,
		"dedicated p99 %v beats packed %v (no cold starts), but costs $%.4f vs scavenged $%.4f",
		ded.lat.P99(), packed.lat.P99(), ded.costUSD, scav.costUSD)
	r.Check("scavenge-meets-slo", scav.slo >= 0.95,
		"scavenged deployment met the SLO on %.1f%% of requests ('good enough' performance)", scav.slo*100)
	r.Check("scavenge-cheapest", scav.costUSD < packed.costUSD && scav.costUSD < ded.costUSD,
		"scavenged cost $%.4f < packed $%.4f < dedicated $%.4f is the efficiency win",
		scav.costUSD, packed.costUSD, ded.costUSD)
	r.Check("cost-gap-material", ded.costUSD/scav.costUSD >= 2,
		"dedicated costs %.1fx the scavenged deployment", ded.costUSD/scav.costUSD)
	return r
}

// runE5One serves the workload on one deployment. It returns nil stats and
// the failed checks that say why when the deployment completed nothing.
func runE5One(rn run, name string, policy core.PlacementPolicy, dedicated bool) (*e5Stats, []Check) {
	opts := rn.options()
	opts.Policy = policy
	if dedicated {
		opts.IdleTimeout = 0 // the provisioned fleet is never torn down
	} else {
		opts.IdleTimeout = 6 * time.Second
	}
	if policy == core.PlaceScavenge {
		opts.EvictionProb = 0.02
	}
	cloud := core.New(opts)
	client := cloud.NewClient(0)
	s := &e5Stats{name: name, lat: metrics.NewHistogram(name)}
	fail := &Report{}
	env := cloud.Env()

	var fnRef core.Ref
	setup := env.NewEvent()
	env.Go("setup", func(p *sim.Proc) {
		var err error
		fnRef, err = client.RegisterFunction(p, core.FnConfig{
			Name: "serve", Kind: platform.Container,
			Res: cluster.Resources{MilliCPU: 2000, MemMB: 1024},
			Handler: func(fc *core.FnCtx) error {
				fc.Proc().Sleep(e5ExecTime)
				return nil
			},
		})
		if err != nil {
			fail.Check("setup-"+name, false, "register: %v", err)
			return
		}
		if dedicated {
			// Pre-warm a peak-sized fleet and keep it hot (dedicated
			// deployments pay for capacity whether used or not). Peak of
			// the bursty load is ~100 rps x 40ms = 4 concurrent; keep 16
			// warm for headroom, billed below.
			warm := env.NewBarrier(16)
			for i := 0; i < 16; i++ {
				env.Go("warm", func(wp *sim.Proc) {
					if _, err := client.Invoke(wp, fnRef, core.InvokeArgs{}); err == nil {
						warm.Arrive()
					}
				})
			}
			warm.Wait(p)
		}
		setup.Complete(nil)
	})

	// Bursty open-loop load: 20 rps base, 100 rps bursts.
	arr := workload.NewBursty(env, 20, 100, 3*time.Second, 5*time.Second)
	env.Go("load", func(p *sim.Proc) {
		if _, err := p.Wait(setup); err != nil {
			return
		}
		workload.Run(env, arr, p.Now().Add(e5Duration), func(rp *sim.Proc, seq int) {
			start := rp.Now()
			if _, err := client.Invoke(rp, fnRef, core.InvokeArgs{}); err != nil {
				return
			}
			d := rp.Now().Sub(start)
			s.lat.Observe(d)
			s.reqs++
			if d <= e5SLO {
				s.slo++
			}
		})
	})
	env.Run()
	if s.reqs == 0 {
		fail.Check("completed-"+name, false, "no requests completed")
		return nil, fail.Checks
	}
	s.slo /= float64(s.reqs)
	rt := cloud.Runtime()
	rt.Drain()
	s.preempted = rt.Preemptions.Value()
	s.util = cloud.Cluster().AvgUtilization()
	if dedicated {
		// Dedicated billing: the peak fleet's full wall-clock allocation
		// at on-demand rates.
		s.costUSD = 16 * float64(e5Duration.Hours()) * (0.048*2 + 0.0053)
	} else {
		// Serverless billing: instance-seconds actually held.
		perInstHour := 0.048*2 + 0.0053
		discount := 1.0
		if policy == core.PlaceScavenge {
			discount = 0.30
		}
		s.costUSD = rt.InstanceSeconds / 3600 * perInstHour * discount
	}
	return s, nil
}
