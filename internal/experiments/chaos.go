package experiments

import (
	"fmt"
	"io"
	"strings"

	"repro/internal/fault"
	"repro/internal/obs"
)

// ChaosConfig parameterises a chaos sweep: one experiment re-run across a
// range of seeds with fault injection active.
type ChaosConfig struct {
	Exp       string // experiment ID, e.g. "E4"
	Seeds     int    // number of consecutive seeds to sweep (default 5)
	BaseSeed  int64  // first seed (default 1)
	FaultRate float64
	// Schedule optionally adds deterministic timed events (crashes,
	// partitions) on top of the stochastic rates.
	Schedule []fault.Event
	// NoRetry disables the default retry policy chaos runs otherwise adopt.
	NoRetry bool
}

// SeedOutcome is one seed's result. Experiments are allowed to fail their
// own shape checks under injected faults — that outcome is recorded and
// must replay identically — but invariant Violations are never acceptable.
type SeedOutcome struct {
	Seed         int64
	ExpPassed    bool
	FailedChecks []string
	Panic        string // non-empty if the experiment panicked (still deterministic)
	Counters     []fault.Counter
	Violations   []fault.Violation
	// FlightDump is the flight recorder's recent window, captured only when
	// the seed violated an invariant or panicked — the post-mortem context
	// (sheds, faults, retries, alerts) leading up to the failure.
	FlightDump string
}

// ChaosReport aggregates a sweep.
type ChaosReport struct {
	Exp       string
	Title     string
	FaultRate float64
	Outcomes  []SeedOutcome
}

// InvariantsHeld reports whether no seed produced an invariant violation
// or a panic.
func (r *ChaosReport) InvariantsHeld() bool {
	for _, o := range r.Outcomes {
		if len(o.Violations) > 0 || o.Panic != "" {
			return false
		}
	}
	return true
}

// Render writes the sweep deterministically: no wall-clock times, counters
// sorted by name, seeds in ascending order.
func (r *ChaosReport) Render(w io.Writer) {
	fmt.Fprintf(w, "== chaos %s: %s — %d seeds, fault rate %g ==\n\n",
		r.Exp, r.Title, len(r.Outcomes), r.FaultRate)
	passed, violated := 0, 0
	for _, o := range r.Outcomes {
		status := "pass"
		switch {
		case o.Panic != "":
			status = "panic"
		case !o.ExpPassed:
			status = "fail"
		default:
			passed++
		}
		fmt.Fprintf(w, "seed %-4d experiment %s", o.Seed, status)
		if len(o.FailedChecks) > 0 {
			fmt.Fprintf(w, " (%s)", strings.Join(o.FailedChecks, ", "))
		}
		if len(o.Counters) > 0 {
			parts := make([]string, 0, len(o.Counters))
			for _, c := range o.Counters {
				parts = append(parts, fmt.Sprintf("%s=%d", c.Name, c.N))
			}
			fmt.Fprintf(w, " | %s", strings.Join(parts, " "))
		}
		fmt.Fprintln(w)
		if o.Panic != "" {
			fmt.Fprintf(w, "  PANIC %s\n", o.Panic)
		}
		for _, v := range o.Violations {
			violated++
			fmt.Fprintf(w, "  INVARIANT VIOLATED [%s] %s\n", v.Check, v.Detail)
		}
		if o.FlightDump != "" {
			for _, line := range strings.Split(strings.TrimRight(o.FlightDump, "\n"), "\n") {
				fmt.Fprintf(w, "  | %s\n", line)
			}
		}
	}
	fmt.Fprintf(w, "\nexperiment checks: %d/%d seeds clean\n", passed, len(r.Outcomes))
	if r.InvariantsHeld() {
		fmt.Fprintf(w, "invariants: OK on every seed\n")
	} else {
		fmt.Fprintf(w, "invariants: VIOLATED (%d violations)\n", violated)
	}
}

// RunChaos sweeps cfg.Seeds consecutive seeds of one experiment under an
// active fault session, collecting per-seed outcomes, injected-fault
// counters, and end-of-run invariant audits (registered by each Cloud the
// experiment builds). The whole sweep is deterministic: identical configs
// render byte-identical reports.
func RunChaos(cfg ChaosConfig) (*ChaosReport, error) {
	e, ok := Get(strings.ToUpper(cfg.Exp))
	if !ok {
		return nil, fault.Fatalf("experiments: unknown experiment %q", cfg.Exp)
	}
	if cfg.Seeds <= 0 {
		cfg.Seeds = 5
	}
	if cfg.BaseSeed == 0 {
		cfg.BaseSeed = 1
	}
	rep := &ChaosReport{Exp: e.ID, Title: e.Title, FaultRate: cfg.FaultRate}
	for i := 0; i < cfg.Seeds; i++ {
		seed := cfg.BaseSeed + int64(i)
		spec := fault.Spec{Rates: fault.Uniform(cfg.FaultRate), Schedule: cfg.Schedule}
		if !cfg.NoRetry {
			spec.Retry = fault.DefaultPolicy()
		}
		rep.Outcomes = append(rep.Outcomes, runChaosSeed(e, seed, spec))
	}
	return rep, nil
}

func runChaosSeed(e Experiment, seed int64, spec fault.Spec) SeedOutcome {
	s := fault.Activate(spec)
	defer s.Deactivate()
	// Chaos seeds run with the telemetry plane on so that a violated seed
	// comes with a flight-recorder dump of the moments before the failure.
	// An already-active session (nested harnesses, tests) is reused.
	osess := obs.ActiveSession()
	if osess == nil {
		osess = obs.Activate(obs.Config{})
		defer osess.Deactivate()
	}
	out := SeedOutcome{Seed: seed}
	r := func() (r *Report) {
		defer func() {
			if v := recover(); v != nil {
				out.Panic = fmt.Sprint(v)
			}
		}()
		return e.Run(seed)
	}()
	// Quiescence: heal partitions, then audit every invariant the run's
	// clouds registered (stale linearizable reads, convergence, graph and
	// capability leaks).
	s.HealAll()
	out.Violations = s.RunChecks()
	out.Counters = s.Counters()
	if len(out.Violations) > 0 || out.Panic != "" {
		out.FlightDump = osess.FlightDump()
	}
	if r != nil {
		out.ExpPassed = r.Passed()
		for _, c := range r.Checks {
			if !c.Pass {
				out.FailedChecks = append(out.FailedChecks, c.Name)
			}
		}
	}
	return out
}
