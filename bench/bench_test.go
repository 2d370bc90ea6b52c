package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// TestMain lets repro-suite's start probe re-execute the test binary: with
// the probe variable set the child exits at once instead of running tests.
func TestMain(m *testing.M) {
	if os.Getenv(probeEnv) != "" {
		os.Exit(0)
	}
	now()
	os.Exit(m.Run())
}

const smokeScale = 50

func smokeRun(t *testing.T, workload string, trace bool, root string) runResult {
	t.Helper()
	res := runWorkload(runOpts{workload: workload, seed: 3, seconds: 0.01, trace: trace, scale: smokeScale, root: root})
	if !res.Correct {
		t.Fatalf("%s (trace %v) failed: %v", workload, trace, res.Errors)
	}
	if res.Attempted < 1 || res.Failed != 0 {
		t.Fatalf("%s: attempted %d, failed %d", workload, res.Attempted, res.Failed)
	}
	return res
}

// TestSmokeAndMetricNames runs all six workloads at 1/50 scale, untraced and
// traced, with every oracle on, and checks that the metric names each run
// emits are exactly the ones declared for that workload.
func TestSmokeAndMetricNames(t *testing.T) {
	root := t.TempDir()
	for _, w := range workloads {
		for _, trace := range []bool{false, true} {
			res := smokeRun(t, w.Name, trace, root)
			declared := map[string]bool{}
			for _, d := range perLayer {
				// The ladder's metrics only exist in the traced run; the
				// pass-derived ones in both.
				declared[d.Name] = d.on(w.Name)
			}
			for _, d := range endToEnd {
				declared[d.Name] = !trace
			}
			for name := range res.Metrics {
				if !declared[name] {
					t.Errorf("%s (trace %v) emits %s, which is not declared for it", w.Name, trace, name)
				}
			}
			if trace {
				for _, d := range perLayer {
					if w.Name == wSuite && strings.HasPrefix(d.Name, "experiments.") {
						continue // the smoke scale runs three experiments, not fifteen
					}
					if _, ok := res.Metrics[d.Name]; d.on(w.Name) && !ok {
						t.Errorf("%s traced run does not emit %s", w.Name, d.Name)
					}
				}
				b, err := os.ReadFile(filepath.Join(root, "bench", "out", "trace-"+w.Name+".json"))
				if err != nil {
					t.Fatal(err)
				}
				var tf struct {
					TraceEvents []map[string]any `json:"traceEvents"`
				}
				if err := json.Unmarshal(b, &tf); err != nil || len(tf.TraceEvents) == 0 {
					t.Errorf("%s trace file does not load: %v (%d events)", w.Name, err, len(tf.TraceEvents))
				}
			} else {
				for _, d := range endToEnd {
					if v := res.Metrics[d.Name]; v.Value <= 0 {
						t.Errorf("%s: end-to-end metric %s is %v; it must never be 0", w.Name, d.Name, v.Value)
					}
				}
			}
			// The driver-facing line has exactly the contract's keys.
			var line map[string]json.RawMessage
			if err := json.Unmarshal([]byte(resultLine(res)), &line); err != nil {
				t.Fatal(err)
			}
			if len(line) != 4 || line["correct"] == nil || line["attempted"] == nil || line["failed"] == nil || line["metrics"] == nil {
				t.Errorf("result line keys: %v", line)
			}
			var metrics map[string]struct {
				Value *float64 `json:"value"`
				Unit  string   `json:"unit"`
			}
			if err := json.Unmarshal(line["metrics"], &metrics); err != nil {
				t.Fatal(err)
			}
			want := endToEnd
			if trace {
				want = perLayer
			}
			if len(metrics) != len(want) {
				t.Errorf("result line has %d metrics, want %d", len(metrics), len(want))
			}
			for _, d := range want {
				if m, ok := metrics[d.Name]; !ok || m.Value == nil || m.Unit != d.Unit {
					t.Errorf("result line metric %s: %+v", d.Name, m)
				}
			}
		}
	}
}

// TestSpecMatchesBinary is the drift test: BENCHMARK.json is exactly what
// the metric and workload lists in this package render, and every name and
// unit stays inside the character sets the driver accepts.
func TestSpecMatchesBinary(t *testing.T) {
	got, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, specJSON()) {
		t.Errorf("BENCHMARK.json drifted from the lists in metrics.go; regenerate it with `bash bench/run.sh -print-spec > BENCHMARK.json`")
	}
	nameRE := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	check := func(name, unit string) {
		if !nameRE.MatchString(name) {
			t.Errorf("name %q is outside [A-Za-z0-9_.-]", name)
		}
		if unit != "" && !unitRE.MatchString(unit) {
			t.Errorf("unit %q of %s is outside the accepted set", unit, name)
		}
		if seen[name] {
			t.Errorf("name %q is used twice", name)
		}
		seen[name] = true
	}
	for _, w := range workloads {
		check(w.Name, "")
		if len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("why of %s is not one line of at most 200 characters", w.Name)
		}
	}
	for _, d := range endToEnd {
		check(d.Name, d.Unit)
		if d.Bound <= 0 || d.Bound > 0.25 {
			t.Errorf("bound of %s is %v", d.Name, d.Bound)
		}
	}
	for _, d := range perLayer {
		check(d.Name, d.Unit)
	}
	if len(perLayer) > 128 {
		t.Errorf("%d per-layer metrics, the driver accepts 128", len(perLayer))
	}
	if endToEnd[0].Name != "setup_s" || endToEnd[0].Unit != "s" || endToEnd[0].Better != "lower" {
		t.Errorf("setup_s must be an end-to-end metric in s, lower is better")
	}
}

// TestCorruptPayloadFailsRun proves a failed check fails the run: with one
// planted payload the oracle never issued, the run is not correct and the
// process would exit non-zero.
func TestCorruptPayloadFailsRun(t *testing.T) {
	for _, w := range workloads {
		res := runWorkload(runOpts{workload: w.Name, seed: 3, seconds: 0.01, scale: smokeScale, corrupt: true})
		if res.Correct || len(res.Errors) == 0 {
			t.Errorf("%s: a corrupted payload went unnoticed", w.Name)
		}
		if !strings.Contains(resultLine(res), `"correct":false`) {
			t.Errorf("%s: result line does not say correct:false", w.Name)
		}
	}
}

// TestEngineStormShape pins the full-size engine workload to the figures in
// BENCH_engine.json.
func TestEngineStormShape(t *testing.T) {
	out, err := engineStorm{}.pass(passCfg{seed: 1, scale: 1})
	if err != nil {
		t.Fatal(err)
	}
	if out.ops != stormWantEvents || out.exact["sim.peak_live_procs"] != stormWantPeak || len(out.violations) != 0 {
		t.Errorf("engine-storm: %d events, %v peak, violations %v", out.ops, out.exact["sim.peak_live_procs"], out.violations)
	}
	want, ok := goldenDigest(wEngine)
	if !ok || want != out.digest {
		t.Errorf("digest %q, golden %q", out.digest, want)
	}
}

// TestTailPercentile pins the percentile rule: the highest percentile with
// at least ten samples beyond it, never above what the name promises.
func TestTailPercentile(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{
		{5, 50}, {19, 50}, {39, 50}, {40, 75}, {64, 75}, {99, 75}, {100, 90}, {199, 90},
		{200, 95}, {999, 95}, {1000, 99}, {150000, 99},
	} {
		if got := tailPercentile(c.n); got != c.want {
			t.Errorf("tailPercentile(%d) = %v, want %v", c.n, got, c.want)
		}
	}
	sorted := make([]int64, 1000)
	for i := range sorted {
		sorted[i] = int64(i + 1)
	}
	if got := percentile(sorted, 99); got != 990 {
		t.Errorf("p99 of 1..1000 = %d, want 990 (ten samples beyond it)", got)
	}
	if got := percentile(sorted, 50); got != 500 {
		t.Errorf("p50 of 1..1000 = %d, want 500", got)
	}
	p50, tail, p := latencySummary([]int64{3000, 1000, 2000})
	if p50 != 2 || tail != 2 || p != 50 {
		t.Errorf("latencySummary of 3 samples = %v %v p%v", p50, tail, p)
	}
}

// TestQuartilesMatchPython pins the spread computation to
// statistics.quantiles(xs, n=4), which the acceptance driver uses.
func TestQuartilesMatchPython(t *testing.T) {
	q1, q2, q3 := quartiles([]float64{10, 1, 2, 3, 4, 5, 6, 7, 8, 9})
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles(1..10) = %v %v %v, want 2.75 5.5 8.25", q1, q2, q3)
	}
	q1, q2, q3 = quartiles([]float64{3, 1, 2})
	if q1 != 1 || q2 != 2 || q3 != 3 {
		t.Errorf("quartiles(1,2,3) = %v %v %v, want 1 2 3", q1, q2, q3)
	}
}

// TestRegisterOracle exercises the linearizability rule on hand-made
// histories.
func TestRegisterOracle(t *testing.T) {
	r := newRegister()
	v1 := r.begin(0)
	r.finish(v1, 10)
	v2 := r.begin(20) // strictly after v1 completed
	r.finish(v2, 30)
	snap := r.maxStartDone // a read beginning at t=40
	if err := r.checkRead(v1, snap, true); err == nil {
		t.Error("a read that began after v2 completed may not return v1")
	}
	if err := r.checkRead(v1, snap, false); err != nil {
		t.Errorf("an eventual read may return any issued version: %v", err)
	}
	if err := r.checkRead(v2, snap, true); err != nil {
		t.Errorf("newest version rejected: %v", err)
	}
	if err := r.checkRead(v2+1, snap, false); err == nil {
		t.Error("a version never issued was accepted")
	}

	// Concurrent writers: either may be linearized last, so neither is stale.
	c := newRegister()
	a := c.begin(0)
	b := c.begin(5)
	c.finish(b, 8)
	c.finish(a, 12)
	for _, v := range []uint64{a, b} {
		if err := c.checkRead(v, c.maxStartDone, true); err != nil {
			t.Errorf("overlapping writes: version %d flagged: %v", v, err)
		}
	}
	// A write still in flight when the read began is always acceptable.
	w := c.begin(20)
	if err := c.checkRead(w, c.maxStartDone, true); err != nil {
		t.Errorf("in-flight write flagged: %v", err)
	}
}

func TestPayloadChecks(t *testing.T) {
	buf := make([]byte, 4096)
	fillRecord(buf, 7, 2, 99)
	if v, err := checkRecord(buf, 7, 2, 4096); err != nil || v != 99 {
		t.Fatalf("intact record: v=%d err=%v", v, err)
	}
	for _, off := range []int{0, 5, 31, 32, 2000, 4095} {
		bad := append([]byte(nil), buf...)
		bad[off] ^= 1
		if _, err := checkRecord(bad, 7, 2, 4096); err == nil {
			t.Errorf("bit flip at %d went unnoticed", off)
		}
	}
	if _, err := checkRecord(buf[:4000], 7, 2, 4096); err == nil {
		t.Error("truncated record accepted")
	}
	if _, err := checkRecord(buf, 8, 2, 4096); err == nil {
		t.Error("record of another object accepted")
	}

	lm := &logModel{}
	var log []byte
	rec := make([]byte, logRecLen)
	for i := 0; i < 3; i++ {
		seq := lm.begin()
		fillLogRecord(rec, 5, seq, 1)
		log = append(log, rec...)
		lm.finish(seq)
	}
	if err := lm.checkRead(log, 5, 3, true); err != nil {
		t.Errorf("intact log: %v", err)
	}
	if err := lm.checkRead(log[:2*logRecLen], 5, 3, true); err == nil {
		t.Error("a log missing a completed append was accepted")
	}
	if err := lm.checkRead(log[:2*logRecLen], 5, 3, false); err != nil {
		t.Errorf("an eventual log may lag: %v", err)
	}
	if err := lm.checkRead(append(append([]byte(nil), log...), log[:logRecLen]...), 5, 3, true); err == nil {
		t.Error("a duplicated log record was accepted")
	}
}

// TestCompare drives -compare over synthetic result files: a regression
// beyond the bound fails, a wide pass-to-pass spread is unresolved rather
// than a verdict, and an exact metric that differs fails.
func TestCompare(t *testing.T) {
	dir := t.TempDir()
	// The tool takes its bounds from the BENCHMARK.json beside the results;
	// this one fixes ops_per_s at 10% whatever the real file says.
	spec := `{"end_to_end": [
		{"name": "setup_s", "better": "lower", "bound": 0.25},
		{"name": "ops_per_s", "better": "higher", "bound": 0.10},
		{"name": "allocs_per_op", "better": "lower", "bound": 0.03},
		{"name": "peak_rss_mib", "better": "lower", "bound": 0.15}]}`
	if err := os.WriteFile(filepath.Join(dir, "BENCHMARK.json"), []byte(spec), 0o644); err != nil {
		t.Fatal(err)
	}
	build := func(opsPerS, q1, q3, virt float64) string {
		var f resultFile
		f.Env.Seed = 1
		for _, w := range workloads {
			f.Runs = append(f.Runs, runResult{
				Workload: w.Name, Correct: true, Attempted: 1, Digest: "d",
				Metrics: map[string]value{
					"setup_s":        {Value: 0.1, Unit: "s", Q1: 0.1, Q3: 0.1, N: 5},
					"ops_per_s":      {Value: opsPerS, Unit: "ops/s", Q1: q1, Q3: q3, N: 5},
					"allocs_per_op":  {Value: 10, Unit: "allocs/op", Q1: 10, Q3: 10, N: 5},
					"peak_rss_mib":   {Value: 100, Unit: "MiB"},
					"virtual_p50_us": {Value: virt, Unit: "us"},
				},
			})
		}
		path := filepath.Join(dir, strings.ReplaceAll(strings.Join([]string{
			formatValue(opsPerS), formatValue(q1), formatValue(q3), formatValue(virt)}, "_"), ".", "p")+".json")
		if err := writeJSON(path, f); err != nil {
			t.Fatal(err)
		}
		return path
	}
	base := build(1000, 990, 1010, 200)
	for _, c := range []struct {
		name     string
		change   string
		wantCode int
		wantText string
	}{
		{"same", build(1000, 990, 1010, 200), 0, "no end-to-end metric is worse"},
		{"within the bound", build(950, 940, 960, 200), 0, "ok"},
		{"regression", build(850, 840, 860, 200), 1, "REGRESSION"},
		{"noisy", build(850, 700, 1000, 200), 0, "unresolved"},
		{"exact mismatch", build(1000, 990, 1010, 201), 1, "MISMATCH"},
	} {
		var out bytes.Buffer
		code := compareMain(dir, base, c.change, &out)
		if code != c.wantCode || !strings.Contains(out.String(), c.wantText) {
			t.Errorf("%s: exit %d (want %d), output lacks %q:\n%s", c.name, code, c.wantCode, c.wantText, out.String())
		}
	}
}
