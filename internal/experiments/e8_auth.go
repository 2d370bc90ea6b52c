package experiments

import (
	"fmt"
	"time"

	"repro/internal/capability"
	"repro/internal/consistency"
	"repro/internal/core"
	"repro/internal/media"
	"repro/internal/metrics"
	"repro/internal/object"
	"repro/internal/restbase"
	"repro/internal/sim"
	"repro/internal/simnet"
)

// E8 isolates §3.2's statefulness argument: "Statelessness is
// particularly fundamental, and has consequences such as repeated access
// control checks." The REST baseline re-validates credentials against a
// remote auth service on every operation; PCSI checks a capability's
// rights locally, with authorisation established once when the reference
// is opened. The experiment measures per-operation authorisation cost as
// the number of operations per open grows.

func init() {
	register(Experiment{ID: "E8", Title: "§3.2: per-request auth (REST) vs open-once capabilities (PCSI)", fn: runE8})
}

func runE8(rn run) *Report {
	r := &Report{}
	opsPerObject := []int{1, 10, 100, 1000}

	type row struct {
		ops                int
		restAuth, pcsiAuth int64
		restTime, pcsiTime time.Duration
	}
	var rows []row

	for _, nOps := range opsPerObject {
		nOps := nOps
		// REST: every read re-authenticates remotely.
		envR, netR, grp := rn.replicated(simnet.DC2021, media.DRAM)
		cfg := restbase.DefaultConfig()
		cfg.RoutingHops = 0 // isolate the auth path from routing costs
		gw := restbase.NewGateway(netR, grp, cfg)
		clientR := netR.AddNode(0)
		var restTime time.Duration
		envR.Go("rest", func(p *sim.Proc) {
			id, err := gw.Create(p, clientR, "tok", object.Regular)
			if err != nil {
				return
			}
			if err := gw.Put(p, clientR, "tok", id, make([]byte, 256), consistency.Eventual); err != nil {
				return
			}
			gw.AuthChecks = 0
			t0 := p.Now()
			for i := 0; i < nOps; i++ {
				if _, err := gw.Get(p, clientR, "tok", id, consistency.Eventual); err != nil {
					return
				}
			}
			restTime = p.Now().Sub(t0)
		})
		envR.Run()

		// PCSI: open once (namespace resolution + capability mint), then
		// operate through the reference with local checks.
		opts := rn.options()
		opts.Media = media.DRAM
		cloud := core.New(opts)
		clientP := cloud.NewClient(0)
		var pcsiTime time.Duration
		var pcsiChecks int64
		cloud.Env().Go("pcsi", func(p *sim.Proc) {
			ns, _, err := clientP.NewNamespace(p)
			if err != nil {
				return
			}
			wref, err := ns.CreateAt(p, clientP, "obj", object.Regular, core.WithConsistency(consistency.Eventual))
			if err != nil {
				return
			}
			if err := clientP.Put(p, wref, make([]byte, 256)); err != nil {
				return
			}
			before := cloud.Caps().Checks
			t0 := p.Now()
			// The open is the authorisation point; it is counted inside
			// the measured window deliberately.
			ref, err := ns.Open(p, clientP, "obj", capability.Read)
			if err != nil {
				return
			}
			for i := 0; i < nOps; i++ {
				if _, err := clientP.ViewAt(p, ref, consistency.Eventual); err != nil {
					return
				}
			}
			pcsiTime = p.Now().Sub(t0)
			pcsiChecks = cloud.Caps().Checks - before
		})
		cloud.Env().Run()
		rows = append(rows, row{nOps, gw.AuthChecks, pcsiChecks, restTime, pcsiTime})
	}

	t := metrics.NewTable("Authorisation cost amortisation: N reads of one object after one open",
		"Ops", "REST remote auths", "PCSI local checks", "REST total", "PCSI total", "per-op advantage")
	for _, rw := range rows {
		adv := ratio(float64(rw.restTime)/float64(rw.ops), float64(rw.pcsiTime)/float64(rw.ops))
		t.Row(rw.ops, rw.restAuth, rw.pcsiAuth,
			metrics.FmtDuration(rw.restTime), metrics.FmtDuration(rw.pcsiTime),
			fmt.Sprintf("%.0fx", adv))
	}
	t.Note("PCSI capability checks run in client memory; REST auth is a remote round trip per request")
	r.Tables = append(r.Tables, t)

	first, last := rows[0], rows[len(rows)-1]
	r.Check("rest-auth-linear", first.restAuth == 1 && last.restAuth == int64(last.ops),
		"REST performed %d remote auth checks for %d ops — strictly one per request", last.restAuth, last.ops)
	r.Check("pcsi-checks-local", last.pcsiTime < last.restTime,
		"PCSI total %v < REST total %v at %d ops despite checking rights on every call",
		last.pcsiTime, last.restTime, last.ops)
	advLast := ratio(float64(last.restTime)/float64(last.ops), float64(last.pcsiTime)/float64(last.ops))
	r.Check("amortisation-grows", advLast >= 2,
		"per-op advantage reaches %.0fx at %d ops/open", advLast, last.ops)
	return r
}
