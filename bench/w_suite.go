package main

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"os"
	"os/exec"
	"strings"

	"repro/internal/experiments"
)

// reproSuite is what a user of the reproduction runs: every experiment
// E1…E15 at one seed, then a 2-seed chaos sweep of E4 at fault rate 0.05.
// Its mix is fixed by the experiments (E4 bytes, E13 engine + faas + qos,
// E7 consistency). op = one experiment run at one seed (17 per pass).
type reproSuite struct{}

const (
	suiteExperiments = 15
	suiteChaosSeeds  = 2
	suiteChaosRate   = 0.05
	suiteWantChecks  = 76
)

// probeEnv makes a child of this binary exit at once: the set-up a suite
// user pays is starting the binary (exec, runtime start, package
// initialisation), so that is what repro-suite reports as setup_s — work a
// change moves into package init shows there.
const probeEnv = "PCSI_BENCH_PROBE_START"

// startProbe starts this binary probeRuns times and returns the median
// start time: a pass has one set-up, but a run has only a handful of passes
// and a single exec is noisy.
func startProbe() (int64, error) {
	const probeRuns = 15
	self, err := os.Executable()
	if err != nil {
		return 0, err
	}
	var ns []int64
	for i := 0; i < probeRuns; i++ {
		cmd := exec.Command(self)
		cmd.Env = append(os.Environ(), probeEnv+"=1")
		t0 := now()
		if err := cmd.Run(); err != nil {
			return 0, err
		}
		ns = append(ns, now()-t0)
	}
	return int64(medianInt64(ns)), nil
}

func (reproSuite) pass(cfg passCfg) (passOut, error) {
	var out passOut
	setupNS, err := startProbe()
	if err != nil {
		return out, fmt.Errorf("start probe: %w", err)
	}
	out.setupNS = setupNS
	out.exact = map[string]float64{}
	out.host = map[string]float64{}

	ids := make([]string, 0, suiteExperiments)
	for i := 1; i <= suiteExperiments; i++ {
		ids = append(ids, fmt.Sprintf("E%d", i))
	}
	chaosSeeds := suiteChaosSeeds
	if cfg.scale > 1 {
		// The smoke test keeps the harness path and drops the heavy arms.
		ids = []string{"E2", "E3", "E8"}
		chaosSeeds = 0
	}

	var digest []string
	checks := 0
	m0 := mallocs()
	t0 := now()
	for _, id := range ids {
		e, ok := experiments.Get(id)
		if !ok {
			return out, fmt.Errorf("experiment %s is not registered", id)
		}
		th := now()
		rep := e.Run(cfg.seed)
		t1 := now()
		cfg.rec.add("experiments."+id+".Run", th, t1, 0, int64(out.ops))
		out.host["experiments."+id+"_s"] = float64(t1-th) / 1e9
		out.ops++
		for _, c := range rep.Checks {
			switch {
			case c.Pass:
				checks++
			case cfg.seed == 1:
				out.violations = append(out.violations, fmt.Sprintf("%s shape check %s failed: %s", id, c.Name, c.Detail))
			default:
				// The shape checks are tuned at seed 1 and some do not hold
				// with margin on other seeds (ROADMAP, correctness); there
				// they are counted, not required.
				out.notes = append(out.notes, fmt.Sprintf("seed %d: %s shape check %s does not hold", cfg.seed, id, c.Name))
			}
		}
		// E1's rows are measured on this machine's clock; every other
		// report is a pure function of the seed.
		if id != "E1" {
			var buf bytes.Buffer
			rep.Render(&buf)
			digest = append(digest, fmt.Sprintf("%s=%x", id, sha256.Sum256(buf.Bytes()))[:len(id)+1+16])
		}
	}
	violations := 0
	if chaosSeeds > 0 {
		th := now()
		rep, err := experiments.RunChaos(experiments.ChaosConfig{
			Exp: "E4", Seeds: chaosSeeds, BaseSeed: cfg.seed, FaultRate: suiteChaosRate,
		})
		t1 := now()
		if err != nil {
			return out, err
		}
		cfg.rec.add("experiments.RunChaos", th, t1, 0, int64(out.ops))
		out.host["experiments.chaos_seed_s"] = float64(t1-th) / 1e9 / float64(chaosSeeds)
		out.ops += int64(chaosSeeds)
		for _, o := range rep.Outcomes {
			violations += len(o.Violations)
			if o.Panic != "" {
				violations++
			}
		}
		if !rep.InvariantsHeld() {
			out.violations = append(out.violations, fmt.Sprintf("chaos E4: %d invariant violations", violations))
		}
		var buf bytes.Buffer
		rep.Render(&buf)
		digest = append(digest, fmt.Sprintf("chaos=%x", sha256.Sum256(buf.Bytes()))[:6+16])
	}
	out.runNS = now() - t0
	out.mallocs = mallocs() - m0

	digest = append(digest, fmt.Sprintf("checks=%d", checks))
	out.digest = strings.Join(digest, " ")
	out.exact["experiments.checks_passed"] = float64(checks)
	out.exact["experiments.chaos_violations"] = float64(violations)
	if cfg.scale == 1 && cfg.seed == 1 && checks != suiteWantChecks {
		out.violations = append(out.violations, fmt.Sprintf("%d shape checks passed, want %d", checks, suiteWantChecks))
	}
	if cfg.corrupt {
		out.violations = append(out.violations, "planted failure (repro-suite has no payload to corrupt)")
	}
	return out, nil
}

// ladder: the per-experiment times come from the passes themselves.
func (reproSuite) ladder(seed int64, scale int, rec *recorder) (map[string]value, []string, error) {
	return nil, nil, nil
}
