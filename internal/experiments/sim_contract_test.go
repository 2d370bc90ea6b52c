package experiments

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"testing"

	"repro/internal/fault"
	"repro/internal/trace"
)

// simDigests is SIM_DIGESTS.json: "same simulation" as one committed file.
// Each output names the pcsictl command whose standard output it digests.
type simDigests struct {
	Note       string   `json:"note"`
	Outputs    []digest `json:"outputs"`
	DashSeries []string `json:"dash_e13_series"`
}

type digest struct {
	Cmd    string `json:"cmd"`
	SHA256 string `json:"sha256"`
}

func (d *simDigests) add(cmd string, write func(io.Writer) error) error {
	h := sha256.New()
	if err := write(h); err != nil {
		return fmt.Errorf("%s: %w", cmd, err)
	}
	d.Outputs = append(d.Outputs, digest{cmd, hex.EncodeToString(h.Sum(nil))})
	return nil
}

// tracedRun is what the tests read from one traced run of a simulated
// experiment at seed 1: its report, the spans a returned process left
// open, and the SHA-256 of its exported trace JSON (`pcsictl trace <E>`).
type tracedRun struct {
	report string
	leaked []*trace.Span
	digest string
	err    error // the export failed, or is not a non-empty trace
}

// tracedAtSeed1 traces E2–E15 once per test binary, up to GOMAXPROCS at
// once, for TestRunTracedDoesNotPerturb and TestSimulationContract; the
// i-th run is simulated()[i]. Under -race, where the contract skips,
// nothing is exported.
var tracedAtSeed1 = sync.OnceValue(func() []tracedRun {
	exps := simulated()
	runs := make([]tracedRun, len(exps))
	run{}.fan(len(exps), func(i int) bool {
		rep, d := RunTraced(exps[i], 1, nil)
		tr := tracedRun{report: render(rep), leaked: d.Leaked}
		if !raceEnabled {
			var buf bytes.Buffer
			tr.err = trace.Export(&buf, d)
			sum := sha256.Sum256(buf.Bytes())
			tr.digest = hex.EncodeToString(sum[:])
			// Parsing all 80 MB of JSON would cost half a second; E4's
			// trace stands for the exporter.
			if exps[i].ID == "E4" && tr.err == nil {
				tr.err = checkTraceJSON(buf.Bytes())
			}
		}
		runs[i] = tr
		return true
	})
	return runs
})

// checkTraceJSON requires a Chrome trace_event file with events in it.
func checkTraceJSON(b []byte) error {
	var f struct {
		TraceEvents []json.RawMessage `json:"traceEvents"`
	}
	if err := json.Unmarshal(b, &f); err != nil {
		return fmt.Errorf("export is not valid JSON: %w", err)
	}
	if len(f.TraceEvents) == 0 {
		return fmt.Errorf("export has no traceEvents")
	}
	return nil
}

// simContract recomputes SIM_DIGESTS.json. Every output is at seed 1.
func simContract() (*simDigests, error) {
	d := &simDigests{Note: "SHA-256 of each command's standard output at seed 1; " +
		"TestSimulationContract (internal/experiments) recomputes this file and prints it when it moves"}
	for _, c := range []struct {
		cmd string
		cfg ChaosConfig
	}{
		{"pcsictl chaos E4 -seed 1 -seeds 5", ChaosConfig{Exp: "E4", Seeds: 5, BaseSeed: 1, FaultRate: 0.05}},
		{"pcsictl chaos E13 -seed 1 -seeds 5", ChaosConfig{Exp: "E13", Seeds: 5, BaseSeed: 1, FaultRate: 0.05}},
		{"pcsictl chaos E14 -seed 1 -seeds 5", ChaosConfig{Exp: "E14", Seeds: 5, BaseSeed: 1, FaultRate: 0.05}},
		{"pcsictl chaos E15 -seed 1 -seeds 5", ChaosConfig{Exp: "E15", Seeds: 5, BaseSeed: 1, FaultRate: 0.05}},
		{"pcsictl chaos E5 -seed 1 -noretry -faultrate 0.5 -seeds 5", ChaosConfig{Exp: "E5", Seeds: 5, BaseSeed: 1, FaultRate: 0.5, NoRetry: true}},
	} {
		rep, err := RunChaos(c.cfg)
		if err != nil {
			return nil, err
		}
		if err := d.add(c.cmd, func(w io.Writer) error { rep.Render(w); return nil }); err != nil {
			return nil, err
		}
	}
	traced := tracedAtSeed1()
	for i, e := range simulated() {
		tr := traced[i]
		if tr.err != nil {
			return nil, fmt.Errorf("pcsictl trace %s: %w", e.ID, tr.err)
		}
		d.Outputs = append(d.Outputs, digest{"pcsictl trace " + e.ID + " -seed 1", tr.digest})
	}
	e13, _ := Get("E13")
	seen := map[string]bool{}
	for _, rate := range []float64{0, 0.05} {
		cmd := "pcsictl dash E13 -seed 1"
		if rate > 0 {
			cmd += fmt.Sprintf(" -faultrate %g", rate)
		}
		// The session pcsictl's -faultrate builds.
		_, tl := RunDash(e13, 1, fault.NewSession(fault.Spec{Rate: rate, Retry: fault.DefaultPolicy()}))
		if err := d.add(cmd, tl.WriteHTML); err != nil {
			return nil, err
		}
		if err := d.add(cmd+" -o /dev/null -json /dev/stdout", tl.WriteJSON); err != nil {
			return nil, err
		}
		for _, p := range tl.Planes {
			for _, s := range p.Series {
				if name := s.Metric + "/" + s.Stat; !seen[name] {
					seen[name] = true
					d.DashSeries = append(d.DashSeries, name)
				}
			}
		}
	}
	slices.Sort(d.DashSeries)
	return d, nil
}

// TestSimulationContract: every simulated output a change could move
// without moving a report — chaos sweeps, trace JSON, the E13 dashboard —
// digests as SIM_DIGESTS.json says. A change meant to move one replaces
// the file with the one this test prints and says why, as for a golden.
// The file sorts after fan_test.go so that the sim workers these runs
// leave idle do not slow TestFanLeavesNoGoroutines's stack dumps.
func TestSimulationContract(t *testing.T) {
	if raceEnabled {
		t.Skip("exporting 80 MB of traces under -race checks nothing new; scripts/ci.sh runs this test without it")
	}
	got, err := simContract()
	if err != nil {
		t.Fatal(err)
	}
	want, err := json.MarshalIndent(got, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	want = append(want, '\n')
	// A missing or unparsable file reads as empty: every entry is new.
	have, _ := os.ReadFile(filepath.Join("..", "..", "SIM_DIGESTS.json"))
	if bytes.Equal(have, want) {
		return
	}
	var committed simDigests
	_ = json.Unmarshal(have, &committed)
	sums := func(d *simDigests) map[string]string {
		m := make(map[string]string)
		for _, o := range d.Outputs {
			m[o.Cmd] = o.SHA256
		}
		return m
	}
	old, now := sums(&committed), sums(got)
	var moved []string
	for _, o := range got.Outputs {
		if sum, ok := old[o.Cmd]; !ok {
			moved = append(moved, o.Cmd+" (new)")
		} else if sum != o.SHA256 {
			moved = append(moved, o.Cmd)
		}
	}
	for _, o := range committed.Outputs {
		if _, ok := now[o.Cmd]; !ok {
			moved = append(moved, o.Cmd+" (gone)")
		}
	}
	if !slices.Equal(committed.DashSeries, got.DashSeries) {
		moved = append(moved, "dash_e13_series")
	}
	if len(moved) == 0 {
		moved = append(moved, "nothing: the file is not as this test writes it")
	}
	fmt.Printf("--- recomputed SIM_DIGESTS.json ---\n%s--- end ---\n", want)
	t.Errorf("SIM_DIGESTS.json moved:\n\t%s\nif the change is meant to move them, say why in CHANGES.md and replace the file with the one printed above",
		strings.Join(moved, "\n\t"))
}
