package experiments

import (
	"strings"

	"repro/internal/fault"
	"repro/internal/sim"
	"repro/internal/trace"
)

// RunTraced runs one experiment with span collection on and returns its
// report plus the collected trace. Tracing draws no randomness from the
// simulation streams (span IDs come from sim.Env.ObserverRand), so the
// report is identical to an untraced run, and two traced runs with the same
// seed export byte-identical JSON.
//
// The trace always opens with a synthetic "harness" run holding one root
// span that brackets the whole experiment in virtual time — so even
// experiments that never enter the simulator (E1's wall-clock measurements)
// export a well-formed, non-empty trace.
func RunTraced(id string, seed int64) (*Report, *trace.Data, error) {
	e, ok := Get(strings.ToUpper(id))
	if !ok {
		return nil, nil, fault.Fatalf("experiments: unknown experiment %q", id)
	}
	c := trace.StartCollecting()
	defer c.Stop()
	ht := trace.Of(sim.NewEnv(seed))
	ht.SetLabel("harness")
	rep := e.Run(seed)
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
	return rep, c.Data(), nil
}
