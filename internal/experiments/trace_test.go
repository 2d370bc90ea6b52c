package experiments

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/fault"
	"repro/internal/trace"
)

// TestRunTracedCoverage is the attribution acceptance bar: each simulated
// PCSI run in the E4 trace must attribute at least 95% of its end-to-end
// virtual time to named spans on the critical path.
func TestRunTracedCoverage(t *testing.T) {
	_, d := RunTraced(mustGet(t, "E4"), 1, nil)
	checked := 0
	for _, run := range d.Runs {
		if !strings.HasPrefix(run.Label, "pcsi/") {
			continue
		}
		checked++
		rep := trace.CriticalPath(run)
		if cov := rep.Coverage(); cov < 0.95 {
			var buf bytes.Buffer
			rep.Render(&buf)
			t.Errorf("run %s coverage = %.3f, want >= 0.95\n%s", run.Label, cov, buf.String())
		}
	}
	if checked == 0 {
		t.Fatal("E4 trace contains no pcsi/* runs")
	}
}

// TestRunTracedDoesNotPerturb: tracing must not change what a simulated
// experiment computes — span IDs come from the observer rand stream, never
// from the simulation's forked streams — so each traced report renders as
// its section of pcsi_bench_output.txt, which TestE2Fetch…TestE15FaaSFS
// pin for the untraced run. Every span must be closed by the process that
// opened it before that process returns; a process Env.Close aborted may
// leave its spans open. The traced runs are the ones TestSimulationContract
// digests.
func TestRunTracedDoesNotPerturb(t *testing.T) {
	traced := tracedAtSeed1()
	for i, e := range simulated() {
		tr := traced[i]
		checkGolden(t, e.ID, tr.report)
		if n := len(tr.leaked); n > 0 {
			s := tr.leaked[0]
			t.Errorf("%s: %d spans left open by a process that returned; the first is %s/%s on track %s, opened at %v", e.ID, n, s.Cat, s.Name, s.Track, s.Start)
		}
	}
}

// TestRunTracedChaosLeaksNoSpan holds the same span discipline under
// faults: the error paths only an injected fault or a crashed node takes
// must close what they opened too. Two chaos seeds each of E13, E14 and
// E15, traced at fault rate 0.05 under chaosSchedule.
func TestRunTracedChaosLeaksNoSpan(t *testing.T) {
	for _, id := range []string{"E13", "E14", "E15"} {
		for seed := int64(1); seed <= 2; seed++ {
			spec := fault.Spec{Rates: fault.Uniform(0.05), Schedule: chaosSchedule(), Retry: fault.DefaultPolicy()}
			_, d := RunTraced(mustGet(t, id), seed, fault.NewSession(spec))
			if n := len(d.Leaked); n > 0 {
				s := d.Leaked[0]
				t.Errorf("%s seed %d under faults: %d spans left open by a process that returned; the first is %s/%s on track %s, opened at %v", id, seed, n, s.Cat, s.Name, s.Track, s.Start)
			}
		}
	}
}

// TestRunTracedHarnessRoot: every trace carries the harness root span, so
// even wall-clock-only experiments export non-empty traceEvents.
func TestRunTracedHarnessRoot(t *testing.T) {
	_, d := RunTraced(mustGet(t, "E2"), 1, nil)
	if len(d.Runs) == 0 || d.Runs[0].Label != "harness" {
		t.Fatalf("first run = %+v, want harness", d.Runs)
	}
	spans := d.Runs[0].Spans
	if len(spans) != 1 || spans[0].Name != "experiment:E2" {
		t.Fatalf("harness spans = %+v, want one experiment:E2 root", spans)
	}
	total := 0
	for _, run := range d.Runs {
		total += len(run.Spans)
	}
	if total < 2 {
		t.Fatalf("E2 trace has %d spans, want harness root plus simulated ops", total)
	}
}
