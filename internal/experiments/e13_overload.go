package experiments

import (
	"errors"
	"fmt"
	"time"

	"repro/internal/cluster"
	"repro/internal/consistency"
	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/media"
	"repro/internal/metrics"
	"repro/internal/object"
	"repro/internal/obs"
	"repro/internal/platform"
	"repro/internal/qos"
	"repro/internal/restbase"
	"repro/internal/sim"
	"repro/internal/simnet"
	"repro/internal/workload"
)

// E13 measures overload behaviour (§4): what a cloud front door does when
// offered more work than it has capacity for. PCSI with internal/qos sheds
// excess load early with a typed, explicitly-fatal ErrOverload, so goodput
// tracks capacity and latency stays bounded. The same deployment without
// admission control turns every full-cluster placement failure into a
// retry storm. The REST baseline answers with an opaque 429 that clients
// blindly retry, and the rejects themselves consume worker time — the
// §2.1 pathology where overload begets more load.

func init() {
	register(Experiment{ID: "E13", Title: "§4: overload — admission control vs retry storms and opaque 429s", fn: runE13})
}

const (
	e13Exec   = 10 * time.Millisecond
	e13Window = 2 * time.Second
	// 2 racks × 2 nodes × 4000 mCPU, 2000 mCPU per op → 8 concurrent
	// invocations; at 10ms each the cluster serves 800 rps.
	e13Slots    = 8
	e13Capacity = float64(e13Slots) / 0.010 // rps
	// The REST gateway runs 4 workers at the same 10ms → 400 rps.
	e13RestWorkers  = 4
	e13RestCapacity = float64(e13RestWorkers) / 0.010 // rps
)

// e13Arm collects one deployment's view of the overload window.
type e13Arm struct {
	offered, attempts    int64
	served, shed, failed int64
	lat                  *metrics.Histogram
	plane                *obs.Plane
}

func (a *e13Arm) goodput() float64 { return float64(a.served) / e13Window.Seconds() }

// e13Objectives declares the per-arm SLOs evaluated by the telemetry
// plane. The evaluation window [300ms, 2s] sits inside the load window
// (load starts at ~100ms and stops at ~2.1s), so warm-up and drain ticks
// never burn budget. The goodput floor burns on the failure share — typed
// sheds are answers, not failures, so a QoS arm shedding hard at 4x stays
// alert-free while the unguarded arm's placement failures and exhausted
// retries page within the window.
func e13Objectives() []obs.Objective {
	return []obs.Objective{{
		Name:    "goodput-floor",
		Goodput: &obs.GoodputFloor{Served: "invocations", Failed: "invoke_failures"},
		Budget:  0.2,
		After:   300 * time.Millisecond,
		Until:   e13Window,
	}, {
		Name:    "invoke-p99",
		Latency: &obs.LatencyTarget{Metric: "invoke_latency", Quantile: 0.99, Max: 150 * time.Millisecond},
		Budget:  0.25,
		After:   300 * time.Millisecond,
		Until:   e13Window,
	}, {
		Name:   "shed-ceiling",
		Shed:   &obs.ShedCeiling{Shed: "qos_invoke_shed", Base: "qos_invoke_admitted"},
		Budget: 0.9,
		After:  300 * time.Millisecond,
		Until:  e13Window,
	}}
}

// e13PCSI drives one PCSI deployment at factor × capacity. Every arm gets
// the same stock retry policy; the QoS arms never retry because
// ErrOverload classifies as fatal, while the unguarded arm amplifies each
// placement failure into a backoff loop.
func e13PCSI(rn run, factor float64, withQoS bool) *e13Arm {
	opts := rn.options()
	opts.Policy = core.PlacePacked
	opts.IdleTimeout = time.Second
	opts.Retry = fault.DefaultPolicy()
	opts.ClusterCfg = cluster.Config{
		Racks: 2, NodesPerRack: 2,
		NodeCap: cluster.Resources{MilliCPU: 4000, MemMB: 16384},
	}
	if withQoS {
		opts.QoS = &qos.Config{Invoke: qos.ClassConfig{
			PerOp:         cluster.Resources{MilliCPU: 2000, MemMB: 128},
			MaxQueue:      64,
			MaxQueueDelay: 100 * time.Millisecond,
			CoDelTarget:   20 * time.Millisecond,
		}}
	}
	cloud := core.New(opts)
	client := cloud.NewClient(0)
	env := cloud.Env()
	defer env.Close() // RunUntil stops with processes still parked
	arm := &e13Arm{lat: metrics.NewHistogram("invoke"), plane: cloud.Obs()}
	if withQoS {
		arm.plane.SetLabel(fmt.Sprintf("pcsi+qos @%.1fx", factor))
	} else {
		arm.plane.SetLabel(fmt.Sprintf("pcsi no-qos @%.1fx", factor))
	}
	arm.plane.SetObjectives(e13Objectives()...)

	var fnRef core.Ref
	setup := env.NewEvent()
	env.Go("setup", func(p *sim.Proc) {
		var err error
		fnRef, err = client.RegisterFunction(p, core.FnConfig{
			Name: "serve", Kind: platform.Wasm,
			// 1990 mCPU + the 10 mCPU Wasm baseline = 2000 per instance:
			// exactly 8 fit, matching the admission controller's slots.
			Res: cluster.Resources{MilliCPU: 1990, MemMB: 120},
			Handler: func(fc *core.FnCtx) error {
				fc.Proc().Sleep(e13Exec)
				return nil
			},
		})
		if err == nil {
			setup.Complete(nil)
		}
	})
	env.Go("load", func(p *sim.Proc) {
		if _, err := p.Wait(setup); err != nil {
			return
		}
		p.Sleep(100 * time.Millisecond)
		arr := workload.NewPoisson(env, factor*e13Capacity)
		workload.Run(env, arr, p.Now().Add(e13Window), func(rp *sim.Proc, seq int) {
			arm.offered++
			start := rp.Now()
			_, err := client.Invoke(rp, fnRef, core.InvokeArgs{})
			switch {
			case err == nil:
				arm.served++
				arm.lat.Observe(rp.Now().Sub(start))
			case errors.Is(err, qos.ErrOverload):
				arm.shed++
			default:
				arm.failed++
			}
		})
	})
	env.RunUntil(sim.Time(e13Window + 5*time.Second))
	cloud.Runtime().Drain()
	arm.attempts = arm.offered + cloud.RetryAttempts
	return arm
}

// e13Rest drives the REST gateway at factor × its capacity. The client
// does what real SDKs do with a 429: exponential backoff and retry. The
// gateway spends RejectCost of worker time producing each 429, so the
// retries compete with useful work for the same pool.
func e13Rest(rn run, factor float64) (*e13Arm, int64) {
	env, net, grp := rn.replicated(simnet.DC2021, media.DRAM)
	defer env.Close() // RunUntil stops with processes still parked
	cfg := restbase.DefaultConfig()
	cfg.Workers = e13RestWorkers
	cfg.AppExec = e13Exec
	cfg.MaxInflight = 16
	cfg.RejectCost = time.Millisecond
	gw := restbase.NewGateway(net, grp, cfg)
	clientN := net.AddNode(0)
	arm := &e13Arm{lat: metrics.NewHistogram("get")}

	var id object.ID
	setup := env.NewEvent()
	env.Go("setup", func(p *sim.Proc) {
		var err error
		id, err = gw.Create(p, clientN, "tok", object.Regular)
		if err != nil {
			return
		}
		if err := gw.Put(p, clientN, "tok", id, make([]byte, 256), consistency.Eventual); err != nil {
			return
		}
		setup.Complete(nil)
	})
	retry := (&fault.Policy{
		MaxAttempts: 6,
		Deadline:    500 * time.Millisecond,
		Backoff:     fault.Backoff{Base: 2 * time.Millisecond, Cap: 20 * time.Millisecond, Factor: 2, JitterFrac: 0.5},
		// The 429 carries no admission state, so the only possible client
		// policy is "try again" — the opaque-error problem of §2.1.
		Retryable: func(err error) bool { return errors.Is(err, restbase.ErrThrottled) },
	}).Bind(env)
	env.Go("load", func(p *sim.Proc) {
		if _, err := p.Wait(setup); err != nil {
			return
		}
		p.Sleep(100 * time.Millisecond)
		arr := workload.NewPoisson(env, factor*e13RestCapacity)
		workload.Run(env, arr, p.Now().Add(e13Window), func(rp *sim.Proc, seq int) {
			arm.offered++
			start := rp.Now()
			err := retry.Do(rp, "rest.get", func() error {
				arm.attempts++
				_, gerr := gw.Get(rp, clientN, "tok", id, consistency.Eventual)
				return gerr
			})
			if err != nil {
				arm.failed++
				return
			}
			arm.served++
			arm.lat.Observe(rp.Now().Sub(start))
		})
	})
	env.RunUntil(sim.Time(e13Window + 5*time.Second))
	return arm, gw.Throttled.Value()
}

func runE13(rn run) *Report {
	r := &Report{}
	factors := []float64{0.5, 1, 2, 4}

	// The SLO shape checks need the telemetry plane. Under `pcsictl dash`
	// or the chaos harness the run's session is used, so its timeline sees
	// every arm, and the arms run in order. An unobserved run (plain
	// `pcsictl run E13`) gives each PCSI arm a private session, so the arms
	// fan out: each arm labels its plane and reads only that plane.
	pcsi := func(f float64, withQoS bool) *e13Arm {
		own := rn
		if own.obs == nil {
			own.obs = obs.NewSession(obs.Config{})
		}
		return e13PCSI(own, f, withQoS)
	}

	// Today's arm order, which an observed run keeps: the QoS sweep, no-QoS
	// at 2x and 4x, then REST at 1x and 2x.
	var jobs []func() *e13Arm
	for _, f := range factors {
		jobs = append(jobs, func() *e13Arm { return pcsi(f, true) })
	}
	var thr1, thr2 int64
	jobs = append(jobs,
		func() *e13Arm { return pcsi(2, false) },
		func() *e13Arm { return pcsi(4, false) },
		func() (a *e13Arm) { a, thr1 = e13Rest(rn, 1); return a },
		func() (a *e13Arm) { a, thr2 = e13Rest(rn, 2); return a },
	)
	arms := make([]*e13Arm, len(jobs))
	rn.fan(len(jobs), func(i int) bool { arms[i] = jobs[i](); return true })

	type qosRow struct {
		factor float64
		arm    *e13Arm
	}
	var sweep []qosRow
	for i, f := range factors {
		sweep = append(sweep, qosRow{f, arms[i]})
	}
	noqos, noqos4, rest1, rest2 := arms[4], arms[5], arms[6], arms[7]

	t1 := metrics.NewTable(
		fmt.Sprintf("PCSI+QoS, open-loop load sweep (capacity %.0f rps = %d slots × %v)",
			e13Capacity, e13Slots, metrics.FmtDuration(e13Exec)),
		"Load", "Offered", "Served", "Shed", "Goodput", "p50", "p99")
	for _, row := range sweep {
		t1.Row(fmt.Sprintf("%.1fx", row.factor),
			row.arm.offered, row.arm.served, row.arm.shed,
			fmt.Sprintf("%.0f rps", row.arm.goodput()),
			metrics.FmtDuration(row.arm.lat.P50()), metrics.FmtDuration(row.arm.lat.P99()))
	}
	t1.Note("shed = typed ErrOverload on arrival/dispatch; never a timeout, never a retry")
	r.Tables = append(r.Tables, t1)

	q2 := sweep[2]
	t2 := metrics.NewTable("Three front doors at 2x their capacity (served/failed are final outcomes)",
		"Arm", "Offered", "Attempts", "Served", "Shed/429", "Failed", "Goodput", "p99")
	t2.Row("PCSI + QoS", q2.arm.offered, q2.arm.attempts, q2.arm.served, q2.arm.shed,
		q2.arm.failed, fmt.Sprintf("%.0f rps", q2.arm.goodput()), metrics.FmtDuration(q2.arm.lat.P99()))
	t2.Row("PCSI, no QoS", noqos.offered, noqos.attempts, noqos.served, int64(0),
		noqos.failed, fmt.Sprintf("%.0f rps", noqos.goodput()), metrics.FmtDuration(noqos.lat.P99()))
	t2.Row("REST + 429 retry", rest2.offered, rest2.attempts, rest2.served, thr2,
		rest2.failed, fmt.Sprintf("%.0f rps", rest2.goodput()), metrics.FmtDuration(rest2.lat.P99()))
	t2.Row("REST at 1x (reference)", rest1.offered, rest1.attempts, rest1.served, thr1,
		rest1.failed, fmt.Sprintf("%.0f rps", rest1.goodput()), metrics.FmtDuration(rest1.lat.P50())+" p50")
	t2.Note("REST capacity is 400 rps (4 workers); each 429 also burns 1ms of worker time")
	r.Tables = append(r.Tables, t2)

	q4 := sweep[3]
	t3 := metrics.NewTable("SLO burn-rate alerts at 4x offered load (telemetry plane, 50ms ticks)",
		"Arm", "Objective", "Status", "First fire")
	for _, row := range []struct {
		name string
		pl   *obs.Plane
	}{{"PCSI + QoS", q4.arm.plane}, {"PCSI, no QoS", noqos4.plane}} {
		for _, o := range row.pl.Objectives() {
			status, first := "ok", "-"
			if n := row.pl.FireCount(o.Name); n > 0 {
				status = fmt.Sprintf("FIRED x%d", n)
				first = metrics.FmtDuration(sim.Duration(e13FirstFire(row.pl, o.Name)))
			}
			t3.Row(row.name, o.Name, status, first)
		}
	}
	t3.Note("goodput floor burns on failure share — typed sheds are answers, not failures")
	r.Tables = append(r.Tables, t3)

	// QoS keeps goodput at capacity under 2x overload.
	r.Check("qos-goodput-at-2x", q2.arm.goodput() >= 0.9*e13Capacity,
		"goodput %.0f rps >= 0.9x capacity (%.0f rps) at 2x offered load",
		q2.arm.goodput(), e13Capacity)
	// Queue bounds + deadline shedding keep the tail flat even at 4x.
	r.Check("qos-p99-bounded", q2.arm.lat.P99() <= 150*time.Millisecond && q4.arm.lat.P99() <= 150*time.Millisecond,
		"p99 %v at 2x, %v at 4x — within queue-delay budget + service time",
		metrics.FmtDuration(q2.arm.lat.P99()), metrics.FmtDuration(q4.arm.lat.P99()))
	// Shedding engages with load and only with load.
	shedMonotone := true
	for i := 1; i < len(sweep); i++ {
		if sweep[i].arm.shed < sweep[i-1].arm.shed {
			shedMonotone = false
		}
	}
	r.Check("qos-sheds-scale-with-load", shedMonotone && sweep[0].arm.shed == 0 && q2.arm.shed > 0,
		"sheds %d/%d/%d/%d across 0.5x/1x/2x/4x — zero when underloaded, monotone beyond",
		sweep[0].arm.shed, sweep[1].arm.shed, sweep[2].arm.shed, sweep[3].arm.shed)
	// ErrOverload is fatal to the retry layer: no attempt amplification.
	ampQoS := ratio(float64(q2.arm.attempts), float64(q2.arm.offered))
	r.Check("qos-kills-retry-storm", q2.arm.attempts == q2.arm.offered && q2.arm.failed == 0,
		"%.2fx attempt amplification with the stock retry policy active — shed is typed fatal, every other request completes",
		ampQoS)
	// Without admission control the same deployment retry-storms.
	ampNoQoS := ratio(float64(noqos.attempts), float64(noqos.offered))
	r.Check("noqos-retry-storm", ampNoQoS >= 1.5 && noqos.failed > 0,
		"%.1fx attempt amplification and %d exhausted-retry failures without QoS",
		ampNoQoS, noqos.failed)
	// The REST baseline collapses: retries amplify offered load and the
	// rejects themselves eat the worker pool.
	ampRest := ratio(float64(rest2.attempts), float64(rest2.offered))
	r.Check("rest-goodput-collapses", rest2.goodput() < 0.7*rest1.goodput() && ampRest >= 1.5,
		"REST goodput falls from %.0f rps at 1x to %.0f rps at 2x (%.1fx attempt amplification)",
		rest1.goodput(), rest2.goodput(), ampRest)
	// The burn-rate alerter pages on the unguarded arm's failure storm —
	// inside the overload window, not during warm-up or drain.
	r.Check("obs-noqos-goodput-alert",
		noqos4.plane.FiredBetween("goodput-floor", sim.Time(100*time.Millisecond), sim.Time(e13Window+200*time.Millisecond)),
		"no-QoS @4x fires the goodput-floor burn-rate alert during the overload window (first at %v)",
		metrics.FmtDuration(sim.Duration(e13FirstFire(noqos4.plane, "goodput-floor"))))
	// Admission control keeps every SLO green across the whole sweep: sheds
	// are typed answers and the p99 stays inside the queue-delay budget.
	qosFires := 0
	for _, row := range sweep {
		qosFires += row.arm.plane.FireCount("")
	}
	r.Check("obs-qos-alert-free", qosFires == 0,
		"%d burn-rate alerts across the QoS sweep (0.5x-4x) — admission control holds every objective",
		qosFires)
	return r
}

// e13FirstFire returns the virtual time of the objective's first "fire"
// transition, or 0 when it never fired.
func e13FirstFire(pl *obs.Plane, objective string) sim.Time {
	for _, a := range pl.Alerts() {
		if a.Kind == "fire" && a.Objective == objective {
			return a.At
		}
	}
	return 0
}
