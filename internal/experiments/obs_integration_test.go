package experiments

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/trace"
)

// registerEViol installs EVIOL, a synthetic chaos target: it records
// flight events and then deliberately fails an invariant, so tests can
// assert that a violated seed carries a flight-recorder dump of the
// moments before the failure. It is registered per-test (not init) and
// removed on cleanup so the registry stays E1–E13 for every other test,
// and it never reaches `pcsictl run`.
func registerEViol(t *testing.T) {
	t.Helper()
	register(Experiment{ID: "EVIOL", Title: "synthetic invariant violation (test only)", fn: runEViol})
	t.Cleanup(func() { delete(registry, "EVIOL") })
}

func runEViol(rn run) *Report {
	r := &Report{}
	env := rn.env()
	pl := rn.obs.Attach(env, trace.NewRegistry(), "synthetic")
	env.Go("work", func(p *sim.Proc) {
		for i := 0; i < 5; i++ {
			p.Sleep(10 * time.Millisecond)
			pl.Record("fault", "synthetic.glitch", fmt.Sprintf("step %d", i))
		}
	})
	env.Run()
	if rn.faults != nil {
		rn.faults.AddCheck("synthetic-invariant", func() []string {
			return []string{"deliberately violated for the flight-recorder test"}
		})
	}
	r.Check("ran", true, "synthetic run complete")
	return r
}

// A chaos seed that violates an invariant must come with a non-empty
// flight-recorder dump containing the events recorded before the failure,
// and the violated report must still render byte-identically.
func TestChaosViolationCarriesFlightDump(t *testing.T) {
	registerEViol(t)
	cfg := ChaosConfig{Exp: "EVIOL", Seeds: 2}
	rep, err := RunChaos(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if rep.InvariantsHeld() {
		t.Fatal("synthetic violation not detected")
	}
	for _, o := range rep.Outcomes {
		if len(o.Violations) == 0 {
			t.Fatalf("seed %d: no violation recorded", o.Seed)
		}
		if !strings.Contains(o.FlightDump, "synthetic.glitch") {
			t.Fatalf("seed %d: flight dump missing recorded events:\n%q", o.Seed, o.FlightDump)
		}
	}
	var first, second strings.Builder
	rep.Render(&first)
	rep2, err := RunChaos(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rep2.Render(&second)
	if first.String() != second.String() {
		t.Fatalf("violated chaos report not byte-identical:\n--- first ---\n%s\n--- second ---\n%s",
			first.String(), second.String())
	}
	if !strings.Contains(first.String(), "flight recorder:") {
		t.Errorf("rendered report omits the flight dump:\n%s", first.String())
	}
}

// Chaos seeds that hold their invariants must NOT carry a dump — the
// recorder is a post-mortem tool, not a log.
func TestChaosCleanSeedHasNoFlightDump(t *testing.T) {
	rep, err := RunChaos(ChaosConfig{Exp: "E2", Seeds: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, o := range rep.Outcomes {
		if o.FlightDump != "" {
			t.Errorf("seed %d: clean seed carries a flight dump:\n%s", o.Seed, o.FlightDump)
		}
	}
}

// The telemetry plane must be a pure observer: running a simulated
// experiment under an obs session — sampler ticks, SLO evaluation, flight
// recorder and all — must render its report byte-identically to its
// section of pcsi_bench_output.txt, which TestE2Fetch…TestE15FaaSFS pin
// for the run with obs off. E3, E6 and E11 build no core cloud, so they
// have no plane to attach.
func TestObsDoesNotPerturbExperiments(t *testing.T) {
	planeless := map[string]bool{"E3": true, "E6": true, "E11": true}
	for _, e := range simulated() {
		t.Run(e.ID, func(t *testing.T) {
			s := obs.NewSession(obs.Config{})
			checkGolden(t, e.ID, render(e.fn(run{seed: 1, obs: s})))
			if len(s.Timeline(e.ID, 1).Planes) == 0 && !planeless[e.ID] {
				t.Error("experiment attached no telemetry planes under an active session")
			}
		})
	}
}
