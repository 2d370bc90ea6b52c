package main

import (
	"fmt"

	"repro/internal/sim"
)

// engineStorm drives only the sim engine, in the exact shape of
// cmd/pcsi-bench/engine.go: a timer storm, a completion fan-out, rendezvous
// queue pairs and a wide spawn wave. It draws no randomness, so every seed
// dispatches the same 351,402 events with 37,401 processes live at the
// peak — the figures committed in BENCH_engine.json. op = one dispatched
// event.
type engineStorm struct{}

// Full-size shape; a pass at scale 1 must reproduce these exactly.
const (
	stormTimerProcs  = 2000
	stormTimerSleeps = 100
	stormEvents      = 5000
	stormQueuePairs  = 200
	stormQueueItems  = 100
	stormWideProcs   = 30000

	stormWantEvents = 351402
	stormWantPeak   = 37401
)

func (engineStorm) pass(cfg passCfg) (passOut, error) {
	rec := cfg.rec
	div := func(n int) int { return scaled(n, cfg.scale, 1) }
	ms := sim.Duration(1e6)

	t0 := now()
	env := sim.NewEnv(cfg.seed)
	sleep := func(p *sim.Proc, tid int32, d sim.Duration) {
		th := rec.begin()
		p.Sleep(d)
		rec.end("sim.Proc.Sleep", th, tid, 0)
	}

	// Phase A — timer storm: staggered, colliding deadlines.
	for i := 0; i < div(stormTimerProcs); i++ {
		i := i
		env.Go("timer", func(p *sim.Proc) {
			for j := 0; j < stormTimerSleeps; j++ {
				sleep(p, 1, sim.Duration((i*j)%97+1)*ms)
			}
		})
	}

	// Phase B — completion fan-out: one parked waiter and one callback per
	// event, completed in order by a single driver.
	events := make([]*sim.Event, div(stormEvents))
	sink := 0
	for i := range events {
		events[i] = env.NewEvent()
		events[i].OnComplete(func(any, error) { sink++ })
		ev := events[i]
		env.Go("waiter", func(p *sim.Proc) {
			th := rec.begin()
			p.Wait(ev) //nolint:errcheck // the event never fails
			rec.end("sim.Proc.Wait", th, 2, 0)
		})
	}
	env.Go("completer", func(p *sim.Proc) {
		for i, ev := range events {
			sleep(p, 2, sim.Duration(i%7+1)*ms)
			ev.Complete(i)
		}
	})

	// Phase C — queue pairs: blocking Get against bursty Put.
	for i := 0; i < div(stormQueuePairs); i++ {
		q := sim.NewQueue[int](env)
		env.Go("producer", func(p *sim.Proc) {
			for j := 0; j < stormQueueItems; j++ {
				sleep(p, 3, sim.Duration(j%13+1)*ms)
				q.Put(j)
			}
			q.Close()
		})
		env.Go("consumer", func(p *sim.Proc) {
			for {
				th := rec.begin()
				_, ok := q.Get(p)
				rec.end("sim.Queue.Get", th, 3, 0)
				if !ok {
					return
				}
			}
		})
	}

	// Phase D — width: a wave of processes all alive at once.
	for i := 0; i < div(stormWideProcs); i++ {
		i := i
		env.Go("node", func(p *sim.Proc) {
			sleep(p, 4, sim.Duration(i%31+1)*ms)
			sleep(p, 4, sim.Duration(i%17+1)*ms)
		})
	}
	peak := 0
	var sample func()
	sample = func() {
		if n := env.LiveProcs(); n > peak {
			peak = n
		}
		if env.Pending() > 0 {
			env.After(5*ms, sample)
		}
	}
	env.After(0, sample)
	setupNS := now() - t0

	m0 := mallocs()
	t1 := now()
	end := env.Run()
	runNS := now() - t1
	m1 := mallocs()

	out := passOut{
		setupNS: setupNS, runNS: runNS,
		ops: int64(env.Dispatched()), mallocs: m1 - m0,
		digest: fmt.Sprintf("end=%d events=%d peak_live_procs=%d callbacks=%d", int64(end), env.Dispatched(), peak, sink),
		exact: map[string]float64{
			"sim.events":          float64(env.Dispatched()),
			"sim.peak_live_procs": float64(peak),
		},
		host: map[string]float64{
			"sim.ns_per_event":     float64(runNS) / float64(env.Dispatched()),
			"sim.allocs_per_event": float64(m1-m0) / float64(env.Dispatched()),
		},
	}
	if sink != len(events) {
		out.violations = append(out.violations, fmt.Sprintf("%d of %d completion callbacks ran", sink, len(events)))
	}
	if cfg.scale == 1 && (env.Dispatched() != stormWantEvents || peak != stormWantPeak) {
		out.violations = append(out.violations, fmt.Sprintf(
			"engine-storm dispatched %d events with %d peak live procs; BENCH_engine.json pins %d and %d",
			env.Dispatched(), peak, stormWantEvents, stormWantPeak))
	}
	if cfg.corrupt {
		out.violations = append(out.violations, "planted failure (engine-storm has no payload to corrupt)")
	}
	return out, nil
}

// ladder prices the engine's primitives one at a time: each rung is a
// fresh environment doing n of one thing.
func (engineStorm) ladder(seed int64, scale int, rec *recorder) (map[string]value, []string, error) {
	return simMicro(seed, scale, rec, true), nil, nil
}

// simMicro measures the engine's primitives. Every workload whose engine
// share is estimated measures sim.sleep_ns in its own process; only
// engine-storm reports the rest.
func simMicro(seed int64, scale int, rec *recorder, all bool) map[string]value {
	n := scaled(40000, scale, 1)
	const reps = 5
	out := map[string]value{}
	measure := func(name, spanName string, build func(env *sim.Env, n int)) {
		var per []float64
		for r := 0; r < reps; r++ {
			env := sim.NewEnv(seed)
			build(env, n)
			t0 := now()
			env.Run()
			t1 := now()
			rec.add(spanName, t0, t1, 0, int64(r))
			per = append(per, float64(t1-t0)/float64(n))
		}
		out[name] = fromSamples("ns", per)
	}
	us := sim.Duration(1000)

	// One Sleep = one event and two goroutine switches (engine → proc →
	// engine).
	measure("sim.sleep_ns", "sim.Proc.Sleep", func(env *sim.Env, n int) {
		env.Go("sleeper", func(p *sim.Proc) {
			for i := 0; i < n; i++ {
				p.Sleep(us)
			}
		})
	})
	if !all {
		return out
	}
	// One After callback = one event and no goroutine switch.
	measure("sim.callback_ns", "sim.Env.After", func(env *sim.Env, n int) {
		left := n
		var tick func()
		tick = func() {
			if left--; left > 0 {
				env.After(us, tick)
			}
		}
		env.After(us, tick)
	})
	// One Wait = a waiter parked on an Event that a second proc completes
	// after a Sleep: two events, four switches per iteration.
	measure("sim.wait_ns", "sim.Proc.Wait", func(env *sim.Env, n int) {
		evs := make([]*sim.Event, n)
		for i := range evs {
			evs[i] = env.NewEvent()
		}
		env.Go("waiter", func(p *sim.Proc) {
			for _, ev := range evs {
				p.Wait(ev) //nolint:errcheck // the event never fails
			}
		})
		env.Go("completer", func(p *sim.Proc) {
			for _, ev := range evs {
				p.Sleep(us)
				ev.Complete(nil)
			}
		})
	})
	// One queue item = a producer Sleep + Put and a consumer wake-up.
	measure("sim.queue_ns", "sim.Queue.Get", func(env *sim.Env, n int) {
		q := sim.NewQueue[int](env)
		env.Go("producer", func(p *sim.Proc) {
			for i := 0; i < n; i++ {
				p.Sleep(us)
				q.Put(i)
			}
			q.Close()
		})
		env.Go("consumer", func(p *sim.Proc) {
			for {
				if _, ok := q.Get(p); !ok {
					return
				}
			}
		})
	})
	// One spawn = Env.Go of a process that exits at once: one event, one
	// goroutine created and torn down.
	measure("sim.spawn_ns", "sim.Env.Go", func(env *sim.Env, n int) {
		for i := 0; i < n; i++ {
			env.Go("nop", func(p *sim.Proc) {})
		}
	})
	return out
}
