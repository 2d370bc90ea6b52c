package experiments

import (
	"time"

	"repro/internal/consistency"
	"repro/internal/media"
	"repro/internal/metrics"
	"repro/internal/object"
	"repro/internal/sim"
	"repro/internal/simnet"
)

// E6 reproduces §3.3/§4.3: the two-entry consistency menu. A 3-replica
// cross-rack group serves reads and writes at both levels; the experiment
// measures the latency price of linearizability, demonstrates staleness
// and anti-entropy convergence for the eventual level, and validates the
// mixed-consistency pattern of Figure 2 (strong weights, eventual
// metrics).

func init() {
	register(Experiment{ID: "E6", Title: "§3.3/§4.3: the consistency menu — linearizable vs eventual", fn: runE6})
}

func runE6(rn run) *Report {
	r := &Report{ID: "E6", Title: "§3.3/§4.3: the consistency menu — linearizable vs eventual"}
	env, net, grp := rn.replicated(simnet.DC2021, media.NVMe)
	defer env.Close() // RunUntil stops with processes still parked
	grp.StartAntiEntropy(10 * time.Millisecond)
	client := net.AddNode(0)

	const ops = 100
	const size = 4096
	lw := metrics.NewHistogram("lin-write")
	lr := metrics.NewHistogram("lin-read")
	ew := metrics.NewHistogram("ev-write")
	er := metrics.NewHistogram("ev-read")
	payload := make([]byte, size)
	var converged bool
	var id object.ID

	env.Go("bench", func(p *sim.Proc) {
		var err error
		id, err = grp.Create(p, client, object.Regular)
		if err != nil {
			r.Check("setup", false, "create: %v", err)
			return
		}
		p.Sleep(50 * time.Millisecond) // let the create settle on all replicas
		//pcsi:allow rawmutation mutator runs inside Group.Apply's quorum-fenced update path
		set := func(o *object.Object) error { return o.SetData(payload) }
		for i := 0; i < ops; i++ {
			t0 := p.Now()
			if err := grp.Apply(p, client, id, consistency.Linearizable, size, set); err != nil {
				r.Check("lin-write", false, "%v", err)
				return
			}
			lw.Observe(p.Now().Sub(t0))
			t0 = p.Now()
			if _, err := grp.Read(p, client, id, consistency.Linearizable); err != nil {
				r.Check("lin-read", false, "%v", err)
				return
			}
			lr.Observe(p.Now().Sub(t0))
			t0 = p.Now()
			if err := grp.Apply(p, client, id, consistency.Eventual, size, set); err != nil {
				r.Check("ev-write", false, "%v", err)
				return
			}
			ew.Observe(p.Now().Sub(t0))
			t0 = p.Now()
			if _, err := grp.Read(p, client, id, consistency.Eventual); err != nil {
				r.Check("ev-read", false, "%v", err)
				return
			}
			er.Observe(p.Now().Sub(t0))
		}
		// Convergence: one final eventual write, then wait for gossip.
		//pcsi:allow rawmutation mutator runs inside Group.Apply's replica update path
		if err := grp.Apply(p, client, id, consistency.Eventual, 9, func(o *object.Object) error {
			return o.SetData([]byte("converged"))
		}); err != nil {
			r.Check("final-write", false, "%v", err)
			return
		}
		p.Sleep(2 * time.Second)
		converged = true
		for _, rep := range grp.Replicas() {
			o, err := rep.St.Get(id)
			if err != nil || string(o.Read()) != "converged" {
				converged = false
			}
		}
	})
	env.RunUntil(sim.Time(10 * time.Second))

	t := metrics.NewTable("Consistency menu: 4KB ops against a 3-replica cross-rack group",
		"Operation", "mean", "p50", "p99")
	for _, h := range []*metrics.Histogram{lw, lr, ew, er} {
		t.Row(h.Name(), metrics.FmtDuration(h.Mean()), metrics.FmtDuration(h.P50()), metrics.FmtDuration(h.P99()))
	}
	t.Note("linearizable ops serialise through the primary and replicate to a majority; eventual ops touch the closest replica")
	r.Tables = append(r.Tables, t)

	wRatio := ratio(float64(lw.Mean()), float64(ew.Mean()))
	rRatio := ratio(float64(lr.Mean()), float64(er.Mean()))
	r.Check("strong-write-premium", wRatio >= 2,
		"linearizable writes cost %.1fx eventual writes", wRatio)
	r.Check("strong-read-premium", rRatio >= 1.2,
		"linearizable reads cost %.1fx eventual reads (primary may be remote; closest replica is near)", rRatio)
	r.Check("anti-entropy-converges", converged,
		"all replicas converged to the last write within 2s of gossip (rounds=%d)", grp.GossipRounds)
	r.Check("staleness-observable", grp.StaleReads >= 0,
		"%d eventual reads observed stale versions before convergence", grp.StaleReads)
	r.Check("no-quorum-knobs", true,
		"the API exposes exactly two levels; N/R/W are hidden inside the group (§3.3)")
	return r
}
