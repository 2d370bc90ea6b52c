package experiments

import (
	"slices"
	"syscall"
	"time"

	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/pcsinet"
	"repro/internal/platform"
	"repro/internal/restbase"
	"repro/internal/simnet"
	"repro/internal/wire"
)

// E1 regenerates Table 1, "Representative latency of various operations".
// Rows are either measured for real on this machine (marshaling, HTTP,
// sockets, system calls, function calls) or taken from the calibrated
// simulator profiles (network RTTs, hypervisor calls) — the source column
// says which. The paper's claim is about ordering and magnitude gaps, and
// the shape checks assert exactly those.

func init() {
	register(Experiment{ID: "E1", Title: "Table 1: representative operation latencies", fn: runE1})
}

// measureBatches is how many batches measure splits its iterations into.
const measureBatches = 25

// measure runs fn warmup times, then iters times in measureBatches timed
// batches, and returns the median batch's per-iteration latency. A host
// stall lands in one batch and leaves the median where it was, while a
// function that is slow every time is slow in every batch.
//
// This is the harness for Table 1's real-measurement rows (marshaling,
// loopback HTTP/TCP, getpid, indirect call), which are wall-clock by design:
// they measure this machine, not the simulated cloud.
//
//pcsi:allow wallclock Table 1 measured rows run on the real clock.
func measure(warmup, iters int, fn func()) time.Duration {
	for i := 0; i < warmup; i++ {
		fn()
	}
	per := make([]time.Duration, 0, measureBatches)
	for b := 0; b < measureBatches; b++ {
		n := iters*(b+1)/measureBatches - iters*b/measureBatches
		if n == 0 {
			continue
		}
		start := time.Now()
		for i := 0; i < n; i++ {
			fn()
		}
		per = append(per, time.Since(start)/time.Duration(n))
	}
	slices.Sort(per)
	return per[len(per)/2]
}

// loopbackPCSIGet times a Get of a 1 KiB object through an in-process
// pcsinet server on loopback. Like the HTTP server, the deployment is
// unobserved: the row measures this machine, not the simulated cloud.
func loopbackPCSIGet() (time.Duration, error) {
	srv := pcsinet.NewServer(core.New(core.DefaultOptions()))
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer srv.Close()
	cl, err := pcsinet.Dial(addr)
	if err != nil {
		return 0, err
	}
	defer cl.Close()
	tok, err := cl.Create("regular", "", "", false)
	if err == nil {
		err = cl.Put(tok, make([]byte, 1024))
	}
	if err != nil {
		return 0, err
	}
	return measure(20, 300, func() {
		if _, err := cl.Get(tok); err != nil {
			panic(err)
		}
	}), nil
}

func runE1(rn run) *Report {
	r := &Report{ID: "E1", Title: "Table 1: representative operation latencies"}

	type row struct {
		op     string
		paper  time.Duration
		ours   time.Duration
		source string
	}
	var rows []row

	// --- Simulated rows (calibrated profiles) ---
	simRTT := func(p simnet.Profile) time.Duration {
		env := rn.env()
		n := simnet.New(env, p)
		a, b := n.AddNode(0), n.AddNode(1)
		return n.RTT(a, b)
	}
	rows = append(rows,
		row{"2005 data center network RTT", 1000 * time.Microsecond, simRTT(simnet.DC2005), "simulated"},
		row{"2021 data center network RTT", 200 * time.Microsecond, simRTT(simnet.DC2021), "simulated"},
	)

	// --- Object marshaling (1k): real JSON envelope round trip ---
	msg := &wire.Message{Op: "GetObject", Key: "bucket/key", Auth: "token", Body: make([]byte, 1024)}
	codec := wire.JSONCodec{}
	marshal := measure(100, 2000, func() {
		enc, err := codec.Encode(msg)
		if err != nil {
			panic(err)
		}
		if _, err := codec.Decode(enc); err != nil {
			panic(err)
		}
	})
	rows = append(rows, row{"Object marshaling (1k)", 50 * time.Microsecond, marshal, "measured (JSON encode+decode)"})

	// --- HTTP protocol: real loopback GET minus raw socket round trip ---
	httpSrv, err := restbase.NewLoopbackHTTP(make([]byte, 1024))
	if err != nil {
		r.Check("http-loopback", false, "server failed: %v", err)
		return r
	}
	httpRT := measure(20, 300, func() {
		if _, err := httpSrv.Get(); err != nil {
			panic(err)
		}
	})
	// Closed here, not deferred: Close waits for the server's goroutines,
	// and the measurements below outlast the last few instructions each one
	// runs after it signals, so runNoLeak's exact count finds none of them.
	httpSrv.Close() //nolint:errcheck

	tcpSrv, err := restbase.NewLoopbackTCP()
	if err != nil {
		r.Check("tcp-loopback", false, "server failed: %v", err)
		return r
	}
	payload := make([]byte, 1024)
	buf := make([]byte, 1024)
	sockRT := measure(20, 500, func() {
		if err := tcpSrv.RoundTrip(payload, buf); err != nil {
			panic(err)
		}
	})
	tcpSrv.Close() //nolint:errcheck
	pcsiRT, err := loopbackPCSIGet()
	if err != nil {
		r.Check("pcsinet-loopback", false, "server failed: %v", err)
		return r
	}
	overhead := func(rt time.Duration) time.Duration {
		if rt < sockRT {
			return rt
		}
		return rt - sockRT
	}
	rows = append(rows,
		row{"HTTP protocol", 50 * time.Microsecond, overhead(httpRT), "measured (loopback HTTP - raw TCP)"},
		row{"PCSI binary protocol", 0, overhead(pcsiRT), "measured (loopback pcsinet Get - raw TCP)"},
		row{"Socket overhead", 5 * time.Microsecond, sockRT / 2, "measured (loopback TCP RT / 2)"},
	)

	rows = append(rows,
		row{"Emerging fast network RTT", time.Microsecond, simRTT(simnet.FastNet), "simulated"},
		row{"KVM hypervisor call", 700 * time.Nanosecond, platform.Specs(platform.MicroVM).InvokeOverhead, "simulated (calibrated)"},
	)

	// --- Linux system call: real getpid loop ---
	sysc := measure(1000, 200000, func() { _ = syscall.Getpid() })
	rows = append(rows, row{"Linux system call", 500 * time.Nanosecond, sysc, "measured (getpid)"})

	// --- WebAssembly call: in-runtime indirect call analogue ---
	var sink int
	call := func(x int) int { return x + 1 }
	fnPtr := &call
	wasmCall := measure(1000, 1_000_000, func() { sink = (*fnPtr)(sink) })
	_ = sink
	rows = append(rows, row{"WebAssembly call - V8 Engine", 17 * time.Nanosecond, wasmCall, "measured (indirect Go call analogue)"})

	tbl := metrics.NewTable("Table 1 — Representative latency of various operations",
		"Operation", "Paper", "Ours", "Source")
	for _, rw := range rows {
		paper := "—" // a row the paper's table does not have
		if rw.paper > 0 {
			paper = metrics.FmtDuration(rw.paper)
		}
		tbl.Row(rw.op, paper, metrics.FmtDuration(rw.ours), rw.source)
	}
	tbl.Note("simulated rows use the calibrated profiles; measured rows ran on this machine")
	r.Tables = append(r.Tables, tbl)

	// Shape checks: the orderings the paper's argument rests on.
	get := func(op string) time.Duration {
		for _, rw := range rows {
			if rw.op == op {
				return rw.ours
			}
		}
		return 0
	}
	rtt2021 := get("2021 data center network RTT")
	fast := get("Emerging fast network RTT")
	http := get("HTTP protocol")
	mar := get("Object marshaling (1k)")
	sys := get("Linux system call")
	wasm := get("WebAssembly call - V8 Engine")

	r.Check("rtt-dominates-today", rtt2021 > http,
		"2021 RTT %v > HTTP overhead %v: protocol hides behind the network today", rtt2021, http)
	r.Check("protocol-dominates-fastnet", http > 10*fast && mar > 10*fast,
		"HTTP %v and marshal %v ≫ fast-net RTT %v: web-service overheads become prohibitive", http, mar, fast)
	r.Check("syscall-under-micro", sys < 5*time.Microsecond,
		"system call %v is sub-5µs (paper: 500ns)", sys)
	r.Check("wasm-cheapest", wasm < sys,
		"in-runtime call %v < system call %v: lightweight isolation wins", wasm, sys)
	r.Check("network-generations", simRTT(simnet.DC2005) > simRTT(simnet.DC2021) && simRTT(simnet.DC2021) > fast,
		"RTT ordering 2005 > 2021 > emerging holds")
	return r
}
