package experiments

import (
	"errors"
	"fmt"
	"time"

	"repro/internal/consistency"
	"repro/internal/media"
	"repro/internal/metrics"
	"repro/internal/object"
	"repro/internal/sim"
	"repro/internal/simnet"
)

// E11 (extension) makes §3.3's opening sentence measurable: "Reconciling
// consistency with performance and availability is one of the persistently
// vexing challenges in distributed systems." Replicas fail one by one; at
// each stage the experiment records which menu entries still serve.
// Linearizable operations stop at the loss of a quorum (or the primary);
// eventual operations keep serving from any surviving replica — and after
// recovery, anti-entropy repairs the returning replica.

func init() {
	register(Experiment{ID: "E11", Title: "§3.3 (extension): availability across the consistency menu under replica failures", fn: runE11})
}

func runE11(rn run) *Report {
	r := &Report{}
	env, net, g := rn.replicated(simnet.DC2021, media.DRAM)
	defer env.Close() // RunUntil stops with processes still parked
	g.StartAntiEntropy(5 * time.Millisecond)
	client := net.AddNode(0)

	type stage struct {
		name                string
		downs               []int
		linOK, evOK         bool
		linErr, evErr       error
		recoveredConsistent bool
	}
	stages := []*stage{
		{name: "all replicas live", downs: nil},
		{name: "1 of 3 down (minority)", downs: []int{1}},
		{name: "2 of 3 down (majority)", downs: []int{1, 2}},
		{name: "recovered", downs: nil},
	}

	var id object.ID
	env.Go("driver", func(p *sim.Proc) {
		var err error
		id, err = g.Create(p, client, object.Regular)
		if err != nil {
			r.Check("setup", false, "create: %v", err)
			return
		}
		p.Sleep(50 * time.Millisecond)
		prim := int(uint64(id)) % g.N()
		// Arrange the failure order to never start with the primary, so
		// "minority" genuinely tests quorum rather than primary loss.
		reorder := func(idx int) int { return (prim + idx) % g.N() }
		for _, st := range stages {
			for i := 0; i < g.N(); i++ {
				g.SetDown(i, false)
			}
			for _, d := range st.downs {
				g.SetDown(reorder(d), true)
			}
			//pcsi:allow rawmutation mutator runs inside Group.Apply's quorum-fenced update path
			st.linErr = g.Apply(p, client, id, consistency.Linearizable, 1, func(o *object.Object) error {
				return o.SetData([]byte(st.name))
			})
			st.linOK = st.linErr == nil
			_, st.evErr = g.Read(p, client, id, consistency.Eventual)
			st.evOK = st.evErr == nil
			if st.name == "recovered" {
				// Give gossip time to repair, then verify every replica
				// holds the final write.
				p.Sleep(2 * time.Second)
				st.recoveredConsistent = true
				for _, rep := range g.Replicas() {
					o, err := rep.St.Get(id)
					if err != nil || string(o.Read()) != "recovered" {
						st.recoveredConsistent = false
					}
				}
			}
		}
	})
	env.RunUntil(sim.Time(30 * time.Second))

	t := metrics.NewTable("Replica failures vs the consistency menu (N=3)",
		"Stage", "linearizable write", "eventual read")
	mark := func(ok bool, err error) string {
		if ok {
			return "serves"
		}
		if errors.Is(err, consistency.ErrUnavailable) {
			return "UNAVAILABLE"
		}
		return fmt.Sprintf("error: %v", err)
	}
	for _, st := range stages {
		t.Row(st.name, mark(st.linOK, st.linErr), mark(st.evOK, st.evErr))
	}
	t.Note("failure order avoids the primary first, isolating the quorum requirement")
	r.Tables = append(r.Tables, t)

	r.Check("baseline-serves", stages[0].linOK && stages[0].evOK,
		"both levels serve with all replicas live")
	r.Check("minority-tolerated", stages[1].linOK && stages[1].evOK,
		"both levels tolerate a minority failure")
	r.Check("majority-splits-the-menu", !stages[2].linOK && stages[2].evOK,
		"majority failure: linearizable UNAVAILABLE (%v), eventual still serves — the CAP trade per level",
		stages[2].linErr)
	r.Check("recovery-repairs", stages[3].linOK && stages[3].recoveredConsistent,
		"after recovery, writes resume and anti-entropy repaired every replica")
	return r
}
