package main

import (
	"embed"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
)

// passCfg parameterises one pass of a workload: a fixed amount of work on a
// freshly built system.
type passCfg struct {
	seed int64
	// scale divides the amount of work; 1 in every measured run, larger in
	// the smoke test.
	scale int
	// rec records a host-clock span around every call into a layer; nil in
	// the untraced run.
	rec *recorder
	// corrupt makes the generator plant one payload the oracle did not
	// issue, to prove a failed check fails the run (tests only).
	corrupt bool
}

// passOut is what one pass measured.
type passOut struct {
	setupNS, runNS int64
	ops, failed    int64
	mallocs        uint64
	// digest summarises the simulated outcome (virtual end time, per-verb
	// counts, virtual-latency buckets, events, cache counters). It is
	// deterministic by seed; "" for workloads with nothing simulated to pin.
	digest string
	virtNS []int64 // per-op virtual latency
	hostNS []int64 // per-op host latency (loopback RPCs)
	// exact holds per-pass values that must repeat on every pass, keyed by
	// per-layer metric name; host holds per-pass host-clock values.
	exact      map[string]float64
	host       map[string]float64
	violations []string
	notes      []string
}

// workload is one of the six named workloads.
type workload interface {
	// pass builds a fresh system, runs the fixed work with every oracle on,
	// and reports what it measured.
	pass(cfg passCfg) (passOut, error)
	// ladder measures the layers the workload is responsible for, from
	// outside, and returns per-layer metrics by name. Spans go to rec.
	ladder(seed int64, scale int, rec *recorder) (map[string]value, []string, error)
}

func workloadByName(name string) (workload, bool) {
	switch name {
	case wEngine:
		return engineStorm{}, true
	case wRead:
		return dataWorkload{write: false}, true
	case wWrite:
		return dataWorkload{write: true}, true
	case wGraph:
		return graphBytes{}, true
	case wSuite:
		return reproSuite{}, true
	case wLoopback:
		return loopback{}, true
	}
	return nil, false
}

// runOpts are the settings of one run of one workload.
type runOpts struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	scale    int
	corrupt  bool
	root     string // checkout root ("" = do not write files)
	// updateGolden rewrites the workload's golden digest instead of
	// checking it.
	updateGolden bool
}

// runResult is one run's full record; the result file holds one per
// workload and mode, and -compare reads them back.
type runResult struct {
	Workload  string           `json:"workload"`
	Trace     bool             `json:"trace"`
	Env       envHeader        `json:"env"`
	Seconds   float64          `json:"seconds"`
	Scale     int              `json:"scale"`
	Passes    int              `json:"passes"`
	Correct   bool             `json:"correct"`
	Attempted int64            `json:"attempted"`
	Failed    int64            `json:"failed"`
	Digest    string           `json:"sim_digest,omitempty"`
	Metrics   map[string]value `json:"metrics"`
	Errors    []string         `json:"errors,omitempty"`
	Notes     []string         `json:"notes,omitempty"`
}

//go:embed golden
var goldenFS embed.FS

// goldenDigest returns the committed digest of a workload at seed 1.
func goldenDigest(workload string) (string, bool) {
	b, err := goldenFS.ReadFile("golden/" + workload + ".seed1")
	if err != nil {
		return "", false
	}
	return strings.TrimSpace(string(b)), true
}

// runWorkload executes one run: untraced (end-to-end metrics, median over
// timed passes) or traced (per-layer metrics: traced passes beside untraced
// ones, then the ladder).
func runWorkload(o runOpts) runResult {
	res := runResult{
		Workload: o.workload, Trace: o.trace, Env: newEnvHeader(o.seed, o.root),
		Seconds: o.seconds, Scale: o.scale, Correct: true, Metrics: map[string]value{},
	}
	w, ok := workloadByName(o.workload)
	if !ok {
		res.fail("unknown workload %q", o.workload)
		return res
	}
	canaryBefore := canaryNS()
	if o.trace {
		runTraced(w, o, &res)
	} else {
		runUntraced(w, o, &res)
	}
	canaryAfter := canaryNS()
	if o.trace {
		res.Metrics["bench.canary_ns"] = value{Value: float64(max(canaryBefore, canaryAfter)), Unit: "ns"}
	}
	res.Notes = append(res.Notes, fmt.Sprintf("canary before %d ns, after %d ns", canaryBefore, canaryAfter))
	return res
}

func (r *runResult) fail(format string, args ...any) {
	r.Correct = false
	if len(r.Errors) < 20 {
		r.Errors = append(r.Errors, fmt.Sprintf(format, args...))
	}
}

// note records a remark once.
func (r *runResult) note(n string) {
	for _, have := range r.Notes {
		if have == n {
			return
		}
	}
	r.Notes = append(r.Notes, n)
}

// passSet accumulates the passes of one mode (traced or untraced).
type passSet struct {
	setupS, opsPerS, allocsPerOp []float64
	passes                       []passOut
}

func (ps *passSet) add(p passOut) {
	ps.passes = append(ps.passes, p)
	ps.setupS = append(ps.setupS, float64(p.setupNS)/1e9)
	ps.opsPerS = append(ps.opsPerS, float64(p.ops)/(float64(p.runNS)/1e9))
	ps.allocsPerOp = append(ps.allocsPerOp, float64(p.mallocs)/float64(p.ops))
}

// onePass runs a pass and folds its oracle results into the run.
func onePass(w workload, cfg passCfg, res *runResult) (passOut, bool) {
	runtime.GC() // drop the previous pass's system before building the next
	out, err := w.pass(cfg)
	if err != nil {
		res.fail("pass: %v", err)
		return out, false
	}
	for _, v := range out.violations {
		res.fail("oracle: %s", v)
	}
	for _, n := range out.notes {
		res.note(n)
	}
	res.Attempted += out.ops
	res.Failed += out.failed
	return out, true
}

func runUntraced(w workload, o runOpts, res *runResult) {
	cfg := passCfg{seed: o.seed, scale: o.scale, corrupt: o.corrupt}
	// Warm-up: first-touch page faults and heap growth are not what a pass
	// costs in steady state. Its oracles still count.
	warm, ok := onePass(w, cfg, res)
	if !ok {
		return
	}
	var ps passSet
	budget := int64(o.seconds * 1e9)
	start := now()
	lastWall := warm.setupNS + warm.runNS
	for {
		if n := len(ps.passes); n >= 2 && now()-start+lastWall > budget {
			break
		}
		t0 := now()
		out, ok := onePass(w, cfg, res)
		if !ok {
			return
		}
		lastWall = now() - t0
		ps.add(out)
	}
	res.Passes = len(ps.passes)
	checkDigests(o, res, append([]passOut{warm}, ps.passes...))

	res.Metrics["setup_s"] = fromSamples("s", ps.setupS)
	res.Metrics["ops_per_s"] = fromSamples("ops/s", ps.opsPerS)
	res.Metrics["allocs_per_op"] = fromSamples("allocs/op", ps.allocsPerOp)
	res.Metrics["peak_rss_mib"] = value{Value: peakRSSMiB(), Unit: "MiB"}
	addPassMetrics(res, ps.passes)
	sorted := append([]float64(nil), ps.opsPerS...)
	sort.Float64s(sorted)
	res.Notes = append(res.Notes, fmt.Sprintf("ops_per_s by pass, sorted: %.4g", sorted))
}

func runTraced(w workload, o runOpts, res *runResult) {
	plain := passCfg{seed: o.seed, scale: o.scale, corrupt: o.corrupt}
	if _, ok := onePass(w, plain, res); !ok { // warm-up
		return
	}
	// The ladder runs first and the passes get the time it leaves.
	start := now()
	ladderRec := &recorder{}
	layer, notes, err := w.ladder(o.seed, o.scale, ladderRec)
	if err != nil {
		res.fail("ladder: %v", err)
	}
	budget := int64(o.seconds*1e9) - (now() - start)

	// Untraced and traced passes alternate so both see the same machine;
	// their ratio is the tracing overhead.
	rec := &recorder{}
	traced := plain
	traced.rec = rec
	var up, tp passSet
	start = now()
	for {
		t0 := now()
		u, ok := onePass(w, plain, res)
		if !ok {
			return
		}
		up.add(u)
		// Only the last traced pass's spans are kept: one pass is what the
		// trace file shows.
		rec.spans = rec.spans[:0]
		closePass := rec.openGroup("bench.pass")
		t, ok := onePass(w, traced, res)
		closePass()
		if !ok {
			return
		}
		tp.add(t)
		if pair := now() - t0; now()-start+pair > budget {
			break
		}
	}
	res.Passes = len(up.passes) + len(tp.passes)
	checkDigests(o, res, append(append([]passOut(nil), up.passes...), tp.passes...))
	addPassMetrics(res, up.passes)
	res.Metrics["bench.trace_overhead"] = value{
		Value: median(up.opsPerS)/median(tp.opsPerS) - 1, Unit: "ratio", N: len(up.passes),
		Note: fmt.Sprintf("untraced %.0f over traced %.0f ops/s, minus 1; %d spans in one traced pass",
			median(up.opsPerS), median(tp.opsPerS), len(rec.spans)),
	}
	for k, v := range layer {
		res.Metrics[k] = v
	}
	res.Notes = append(res.Notes, notes...)
	rec.merge(ladderRec) // ladder spans last: the trace file keeps the tail
	if o.root != "" {
		path := filepath.Join(outDir(o.root), "trace-"+o.workload+".json")
		if err := rec.writeTrace(path, o.workload); err != nil {
			res.fail("write trace: %v", err)
		} else {
			res.Notes = append(res.Notes, fmt.Sprintf("trace: %s (%d spans)", path, len(rec.spans)))
		}
	}
}

// addPassMetrics derives the per-layer metrics that come from the passes
// themselves: exact per-pass values (checked to repeat), host-clock
// per-pass values (median), and latency percentiles.
func addPassMetrics(res *runResult, passes []passOut) {
	if len(passes) == 0 {
		return
	}
	first := passes[0]
	fr := 0.0
	if res.Attempted > 0 {
		fr = float64(res.Failed) / float64(res.Attempted)
	}
	res.Metrics["fail_ratio"] = value{Value: fr, Unit: "ratio",
		Note: fmt.Sprintf("%d failed or refused of %d attempted", res.Failed, res.Attempted)}
	for _, name := range sortedKeys(first.exact) {
		v := first.exact[name]
		for i, p := range passes[1:] {
			if p.exact[name] != v {
				res.fail("%s is %v on pass 0 and %v on pass %d: not deterministic", name, v, p.exact[name], i+1)
			}
		}
		res.Metrics[name] = value{Value: v, Unit: unitOf(name)}
	}
	for _, name := range sortedKeys(first.host) {
		xs := make([]float64, 0, len(passes))
		for _, p := range passes {
			xs = append(xs, p.host[name])
		}
		res.Metrics[name] = fromSamples(unitOf(name), xs)
	}
	if len(first.virtNS) > 0 {
		p50, tail, tp := latencySummary(first.virtNS)
		note := fmt.Sprintf("virtual clock, %d ops per pass", len(first.virtNS))
		res.Metrics["virtual_p50_us"] = value{Value: p50, Unit: "us", Note: note}
		res.Metrics["virtual_p99_us"] = value{Value: tail, Unit: "us", Note: fmt.Sprintf("p%g; %s", tp, note)}
	}
	var hostNS []int64
	for _, p := range passes {
		hostNS = append(hostNS, p.hostNS...)
	}
	if len(hostNS) > 0 {
		p50, tail, tp := latencySummary(hostNS)
		res.Metrics["rpc_p50_us"] = value{Value: p50, Unit: "us", N: len(hostNS)}
		res.Metrics["rpc_p99_us"] = value{Value: tail, Unit: "us", N: len(hostNS), Note: fmt.Sprintf("p%g of %d RPCs", tp, len(hostNS))}
	}
}

// checkDigests requires every pass of a run to agree on the simulated
// outcome and, at seed 1 and full size, to match the committed golden.
func checkDigests(o runOpts, res *runResult, passes []passOut) {
	if len(passes) == 0 || passes[0].digest == "" {
		return
	}
	res.Digest = passes[0].digest
	for i, p := range passes[1:] {
		if p.digest != res.Digest {
			res.fail("sim_digest differs between pass 0 and pass %d:\n  %s\n  %s", i+1, res.Digest, p.digest)
			return
		}
	}
	if o.seed != 1 || o.scale != 1 || o.corrupt {
		return
	}
	if o.updateGolden {
		path := filepath.Join(o.root, "bench", "golden", o.workload+".seed1")
		if err := os.WriteFile(path, []byte(res.Digest+"\n"), 0o644); err != nil {
			res.fail("update golden: %v", err)
		}
		return
	}
	want, ok := goldenDigest(o.workload)
	if !ok {
		res.fail("no golden digest for %s (run with -update-golden)", o.workload)
	} else if want != res.Digest {
		res.fail("sim_digest does not match bench/golden/%s.seed1:\n  got  %s\n  want %s", o.workload, res.Digest, want)
	}
}

func outDir(root string) string {
	dir := filepath.Join(root, "bench", "out")
	os.MkdirAll(dir, 0o755) //nolint:errcheck // the write that follows reports the failure
	return dir
}

var unitByName = func() map[string]string {
	m := map[string]string{}
	for _, d := range endToEnd {
		m[d.Name] = d.Unit
	}
	for _, d := range perLayer {
		m[d.Name] = d.Unit
	}
	return m
}()

func unitOf(name string) string { return unitByName[name] }

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
