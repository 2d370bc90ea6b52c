package main

import (
	"fmt"
	"math"
	"sort"
)

// Workload names, in the order they run and print.
const (
	wEngine   = "engine-storm"
	wRead     = "data-read"
	wWrite    = "data-write"
	wGraph    = "graph-bytes"
	wSuite    = "repro-suite"
	wLoopback = "pcsid-loopback"
)

// workloadDef names a workload and records why it is in the benchmark.
type workloadDef struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

var workloads = []workloadDef{
	{wEngine, "only the sim engine runs (351,402 events per pass), so engine-handoff work shows at full size and a core or pcsinet change must show nothing"},
	{wRead, "small cached reads split evenly between sim and core/consistency/fncache, so a per-op pipeline gain separates from an engine gain; the cache holds the hot quarter"},
	{wWrite, "the same layers used the other way: 12 events per write, quorum fan-out and lease invalidation, so a read-path gain that taxes writes shows here"},
	{wGraph, "host time is 8 MiB byte copying, so copy elimination shows here and engine or pipeline gains predict no change; only here do faas, scheduler and taskgraph run"},
	{wSuite, "what a user of the reproduction runs: E1-E15 plus a 2-seed E4 chaos sweep; the only place a parallel seeds/arms harness can show"},
	{wLoopback, "the only real-network surface: pcsinet over host loopback, where transport, framing and the one server mutex dominate and an engine gain moves it by under a quarter"},
}

// metricDef declares one metric. The lists below are the benchmark's
// vocabulary: BENCHMARK.json repeats them (a drift test keeps the two equal)
// and every later performance claim in this repository is stated in these
// names.
type metricDef struct {
	Name   string
	Unit   string
	Better string  // "lower" or "higher"
	Bound  float64 // end-to-end only: share of the baseline median it may worsen by
	// Exact marks a virtual-clock value or a count that is deterministic by
	// seed: -compare requires equality instead of applying a bound.
	Exact bool
	// On lists the workloads that measure the metric; nil means all six. A
	// workload outside the list prints no row for it (and reports 0 in the
	// driver-facing JSON line, whose key set is fixed).
	On []string
}

func (d metricDef) on(workload string) bool {
	if d.On == nil {
		return true
	}
	for _, w := range d.On {
		if w == workload {
			return true
		}
	}
	return false
}

// endToEnd is what a user of the system sees, on the host clock. Every
// workload reports all four. The bounds are three times the widest
// run-to-run interquartile spread seen on the shared 2-core box over ten
// seeds (README, "Steadiness"): the box has phases in which identical runs
// of engine-storm differ by 13%.
var endToEnd = []metricDef{
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "ops_per_s", Unit: "ops/s", Better: "higher", Bound: 0.25},
	{Name: "allocs_per_op", Unit: "allocs/op", Better: "lower", Bound: 0.08},
	{Name: "peak_rss_mib", Unit: "MiB", Better: "lower", Bound: 0.25},
}

var (
	onData     = []string{wRead, wWrite}
	onVirtual  = []string{wRead, wWrite, wGraph}
	onSimMicro = []string{wEngine, wRead, wWrite, wLoopback}
	onSimRun   = []string{wEngine, wRead, wWrite, wGraph}
)

// perLayer is measured in the traced run, from outside, by timing calls into
// each layer's public functions. Host values are ns unless the unit says
// otherwise; *_events and counts are exact.
var perLayer = buildPerLayer()

func buildPerLayer() []metricDef {
	ns := func(name string, on ...string) metricDef {
		return metricDef{Name: name, Unit: "ns", Better: "lower", On: on}
	}
	exact := func(name, unit, better string, on ...string) metricDef {
		return metricDef{Name: name, Unit: unit, Better: better, Exact: true, On: on}
	}
	host := func(name, unit, better string, on ...string) metricDef {
		return metricDef{Name: name, Unit: unit, Better: better, On: on}
	}
	defs := []metricDef{
		// Demoted from the end-to-end list: the driver's contract wants every
		// end-to-end metric on every workload and never zero.
		exact("fail_ratio", "ratio", "lower"),
		exact("virtual_p50_us", "us", "lower", onVirtual...),
		exact("virtual_p99_us", "us", "lower", onVirtual...),
		host("rpc_p50_us", "us", "lower", wLoopback),
		host("rpc_p99_us", "us", "lower", wLoopback),

		exact("sim.events", "events", "lower", onSimRun...),
		host("sim.ns_per_event", "ns/event", "lower", onSimRun...),
		host("sim.allocs_per_event", "allocs/event", "lower", onSimRun...),
		exact("sim.peak_live_procs", "procs", "lower", wEngine),
		ns("sim.sleep_ns", onSimMicro...),
		ns("sim.wait_ns", wEngine),
		ns("sim.queue_ns", wEngine),
		ns("sim.spawn_ns", wEngine),
		ns("sim.callback_ns", wEngine),

		ns("simnet.send_ns", onData...),
		exact("simnet.send_events", "events/op", "lower", onData...),
		ns("simnet.call_ns", onData...),
		exact("simnet.call_events", "events/op", "lower", onData...),
	}
	for _, op := range []string{"read_lin", "read_ev", "apply_lin", "apply_ev"} {
		defs = append(defs,
			ns("consistency."+op+"_ns", onData...),
			exact("consistency."+op+"_events", "events/op", "lower", onData...))
	}
	defs = append(defs, ns("capability.check_ns", onData...))
	for _, op := range []string{"get", "put", "append", "readat", "create", "stat"} {
		defs = append(defs, ns("core."+op+"_ns", onData...))
	}
	for _, op := range []string{"get", "put"} {
		defs = append(defs,
			exact("core."+op+"_events", "events/op", "lower", onData...),
			host("core."+op+"_allocs", "allocs/op", "lower", onData...),
			ns("core."+op+"_self_ns", onData...),
			host("core."+op+"_engine_share", "ratio", "lower", onData...))
	}
	for _, hook := range hookNames {
		for _, op := range []string{"get", "put"} {
			defs = append(defs, ns("core.tax_"+hook+"_"+op+"_ns", onData...))
		}
	}
	defs = append(defs,
		ns("fncache.hit_get_ns", onData...),
		exact("fncache.hit_ratio", "ratio", "higher", wRead),
		exact("fncache.invalidations_per_write", "ratio", "lower", wWrite),
		exact("fncache.stale_serves", "count", "lower", onData...),
		exact("qos.shed_ratio", "ratio", "lower", onData...),
		exact("qos.queue_wait_virtual_us", "us", "lower", onData...),
		ns("faasfs.commit_ns", wWrite),
		exact("faasfs.commit_events", "events/op", "lower", wWrite),
		exact("faasfs.conflict_ratio", "ratio", "lower", wWrite),

		ns("faas.invoke_warm_ns", wGraph),
		ns("faas.invoke_cold_ns", wGraph),
		exact("faas.invoke_warm_events", "events/op", "lower", wGraph),
		exact("faas.cold_start_ratio", "ratio", "lower", wGraph),
		ns("taskgraph.graph_ns", wGraph),
		exact("taskgraph.graph_events", "events/op", "lower", wGraph),
		host("object.copy_ns_per_mib", "ns/MiB", "lower", wGraph),
		host("object.alloc_mib_per_graph", "MiB/graph", "lower", wGraph),
	)
	for i := 1; i <= 15; i++ {
		defs = append(defs, host(fmt.Sprintf("experiments.E%d_s", i), "s", "lower", wSuite))
	}
	defs = append(defs,
		host("experiments.chaos_seed_s", "s", "lower", wSuite),
		exact("experiments.checks_passed", "count", "higher", wSuite),
		exact("experiments.chaos_violations", "count", "lower", wSuite),

		ns("wire.binary_roundtrip_ns", wLoopback),
		ns("wire.json_roundtrip_ns", wLoopback),
		host("wire.binary_allocs", "allocs/op", "lower", wLoopback),
		ns("pcsinet.frame_ns", wLoopback),
		ns("pcsinet.dial_ns", wLoopback),
		ns("pcsinet.rpc_get_ns", wLoopback),
		ns("pcsinet.rpc_put_ns", wLoopback),
		host("pcsinet.events_per_rpc", "events/op", "lower", wLoopback),
		ns("pcsinet.sim_ns_per_rpc", wLoopback),
		ns("pcsinet.transport_ns", wLoopback),
		host("pcsinet.get_engine_share", "ratio", "lower", wLoopback),
		ns("restbase.http_get_ns", wLoopback),
		ns("restbase.tcp_roundtrip_ns", wLoopback),

		host("bench.trace_overhead", "ratio", "lower"),
		ns("bench.canary_ns"),
	)
	return defs
}

// hookNames are the optional layers threaded through every core verb; the
// ladder prices each by turning exactly one of them on.
var hookNames = []string{"retry", "qos", "fncache", "trace", "obs"}

// value is one reported number. Host-clock values are a median over passes
// (or over per-call samples) and carry the quartiles and the sample count
// behind them; exact values repeat on every pass and carry none.
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	Q1    float64 `json:"q1,omitempty"`
	Q3    float64 `json:"q3,omitempty"`
	N     int     `json:"n,omitempty"`
	Note  string  `json:"note,omitempty"`
}

// fromSamples summarises host-clock samples as median + quartiles.
func fromSamples(unit string, xs []float64) value {
	q1, q2, q3 := quartiles(xs)
	return value{Value: q2, Unit: unit, Q1: q1, Q3: q3, N: len(xs)}
}

// spread is the interquartile distance as a share of the median — the same
// steadiness measure the acceptance driver applies across runs.
func (v value) spread() float64 {
	if v.N < 2 || v.Value == 0 {
		return 0
	}
	return math.Abs(v.Q3-v.Q1) / math.Abs(v.Value)
}

// quartiles returns Q1, the median and Q3 by the exclusive method (what
// Python's statistics.quantiles(xs, n=4) computes), so spreads printed here
// are comparable with the driver's. Fewer than two samples give the single
// value three times.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	n := len(xs)
	if n == 0 {
		return 0, 0, 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if n == 1 {
		return s[0], s[0], s[0]
	}
	cut := func(i int) float64 {
		m := n + 1
		j := i * m / 4
		delta := i*m - j*4
		if j < 1 {
			j, delta = 1, 0
		}
		if j > n-1 {
			j, delta = n-1, 4
		}
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return cut(1), cut(2), cut(3)
}

func median(xs []float64) float64 {
	_, m, _ := quartiles(xs)
	return m
}

// tailLadder are the tail percentiles a latency metric may report.
var tailLadder = []float64{99, 95, 90, 75}

// tailPercentile picks the highest percentile of the ladder that still has
// at least ten samples beyond it; below twenty samples only the median is
// supported. Metric names say p99; the printed row states the percentile
// actually reported and the sample count.
func tailPercentile(n int) float64 {
	for _, p := range tailLadder {
		if n-rank(n, p) >= 10 {
			return p
		}
	}
	return 50
}

// rank is the 1-based nearest-rank position of the p-th percentile among n
// sorted samples. p*n is formed before dividing so whole percentiles of
// round counts stay exact.
func rank(n int, p float64) int {
	r := int(math.Ceil(p * float64(n) / 100))
	if r < 1 {
		r = 1
	}
	if r > n {
		r = n
	}
	return r
}

// percentile returns the nearest-rank p-th percentile of sorted samples.
func percentile(sorted []int64, p float64) int64 {
	if len(sorted) == 0 {
		return 0
	}
	return sorted[rank(len(sorted), p)-1]
}

// latencySummary reports the median and the supported tail of samples (ns)
// in microseconds.
func latencySummary(samplesNS []int64) (p50us, tailUS, tailP float64) {
	s := append([]int64(nil), samplesNS...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	tailP = tailPercentile(len(s))
	return float64(percentile(s, 50)) / 1e3, float64(percentile(s, tailP)) / 1e3, tailP
}

func toFloats(xs []int64) []float64 {
	fs := make([]float64, len(xs))
	for i, x := range xs {
		fs[i] = float64(x)
	}
	return fs
}

func medianInt64(xs []int64) float64 { return median(toFloats(xs)) }
