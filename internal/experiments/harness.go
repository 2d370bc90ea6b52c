package experiments

import (
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
