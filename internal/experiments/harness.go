package experiments

import (
	"runtime"
	"sync"

	"repro/internal/consistency"
	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/media"
	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/simnet"
	"repro/internal/trace"
)

// run is what one experiment run is given: its seed and the sessions that
// observe it, each nil when off. Experiments build every environment and
// deployment through it, so a run touches no state it does not own and any
// number of runs can proceed at once.
type run struct {
	seed   int64
	trace  *trace.Collector
	faults *fault.Session
	obs    *obs.Session
}

// env returns a fresh environment at the run's seed, observed as the run is.
func (rn run) env() *sim.Env {
	env := sim.NewEnv(rn.seed)
	rn.trace.Attach(env)
	rn.faults.Attach(env)
	return env
}

// replicated returns a fresh env, its network (profile p) and a three-replica
// group on media m, one replica per rack: the store baselines serve from.
func (rn run) replicated(p simnet.Profile, m media.Profile) (*sim.Env, *simnet.Network, *consistency.Group) {
	env := rn.env()
	net := simnet.New(env, p)
	var nodes []simnet.NodeID
	for i := 0; i < 3; i++ {
		nodes = append(nodes, net.AddNode(i))
	}
	return env, net, consistency.NewGroup(env, net, nodes, m)
}

// options returns core.DefaultOptions at the run's seed with its sessions.
func (rn run) options() core.Options {
	opts := core.DefaultOptions()
	opts.Seed = rn.seed
	opts.Trace, opts.Faults, opts.Obs = rn.trace, rn.faults, rn.obs
	return opts
}

// fan runs arm(0) … arm(n-1), a run's independent arms, at most
// runtime.GOMAXPROCS(0) at once. The caller takes indices from the front
// and the helpers from the back, so an experiment that lists its longest
// arms last (E13's REST arms) starts them first and the two ends meet in
// the middle. Each arm writes only its own index's slot of the caller's
// result slices, so a report never depends on which arm finished first.
//
// An arm that returns false or panics stops the fan: every index below it
// still runs and no further index above it is handed out, but above width
// 1 any arm after the stopping one may already have run; the caller reads
// results only up to it. If the lowest stopping arm panicked, fan
// re-panics in the caller with its value; the re-panic's stack starts at
// fan, so the value is what names the fault (a sim process's panic names
// the process).
//
// An observed run keeps width 1, so it runs exactly the arms, in the order,
// of a loop that stops at the first failed arm, because every session
// records in attach order and without a lock: trace.Of names each tracer
// "run<N>" as it registers it, obs.Session.Attach counts labels, and
// fault.Session.Attach and AddCheck append.
func (rn run) fan(n int, arm func(i int) bool) {
	width := runtime.GOMAXPROCS(0)
	if rn.trace != nil || rn.faults != nil || rn.obs != nil {
		width = 1
	}
	var (
		mu          sync.Mutex
		front, back = 0, n // indices not yet handed out: [front, back)
		stop        = n    // lowest index whose arm stopped the fan; n: none
		panicked    bool
		value       any // what arm stop panicked with
	)
	work := func(fromBack bool) {
		for {
			mu.Lock()
			back = min(back, stop)
			if front >= back {
				mu.Unlock()
				return
			}
			i := front
			if fromBack {
				back--
				i = back
			} else {
				front++
			}
			mu.Unlock()
			if ok, p, v := runArm(arm, i); !ok {
				mu.Lock()
				if i < stop {
					stop, panicked, value = i, p, v
				}
				mu.Unlock()
			}
		}
	}
	// The caller is one of the workers. runNoLeak relies on fan returning
	// only after every helper has passed wg.Done.
	var wg sync.WaitGroup
	for w := 1; w < min(width, n); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			work(true)
		}()
	}
	work(false)
	wg.Wait()
	if panicked {
		panic(value)
	}
}

// runArm runs arm(i) and returns its result, or false, true and the value
// it panicked with.
func runArm(arm func(int) bool, i int) (ok, panicked bool, v any) {
	panicked = true
	defer func() {
		if panicked {
			v = recover()
		}
	}()
	return arm(i), false, nil
}

// Run runs the experiment at seed, unobserved.
func (e Experiment) Run(seed int64) *Report { return e.fn(run{seed: seed}) }

// RunFaults runs the experiment at seed with faults injected (nil: none).
func (e Experiment) RunFaults(seed int64, faults *fault.Session) *Report {
	return e.fn(run{seed: seed, faults: faults})
}

// RunTraced is RunFaults with span collection on, returning the collected
// trace too. Tracing draws no randomness from the simulation streams (span
// IDs come from sim.Env.ObserverRand), so the report is identical to an
// untraced run, and two traced runs with the same seed export
// byte-identical JSON.
//
// The trace always opens with a synthetic "harness" run holding one root
// span that brackets the whole experiment in virtual time — so even
// experiments that never enter the simulator (E1's wall-clock measurements)
// export a well-formed, non-empty trace.
func RunTraced(e Experiment, seed int64, faults *fault.Session) (*Report, *trace.Data) {
	c := trace.NewCollector()
	ht := trace.Of(run{seed: seed, trace: c}.env())
	ht.SetLabel("harness")
	rep := e.fn(run{seed: seed, trace: c, faults: faults})
	var end sim.Time
	for _, run := range c.Data().Runs {
		for _, s := range run.Spans {
			if s.End > end {
				end = s.End
			}
		}
	}
	ht.Mark("experiment", "experiment", "experiment:"+e.ID, 0, end,
		trace.Str("title", e.Title), trace.Int("seed", seed))
	return rep, c.Data()
}

// RunDash is RunFaults under a fresh obs session — every cloud the
// experiment builds gets a telemetry plane — returning the exportable
// timeline for the dashboard renderers too. The experiment's own objectives
// (E13 installs per-arm SLOs) ride along unchanged; runs are byte-identical
// by (experiment, seed).
func RunDash(e Experiment, seed int64, faults *fault.Session) (*Report, *obs.Timeline) {
	s := obs.NewSession(obs.Config{})
	return e.fn(run{seed: seed, faults: faults, obs: s}), s.Timeline(e.ID, seed)
}
