package experiments

import (
	"fmt"
	"time"

	"repro/internal/consistency"
	"repro/internal/core"
	"repro/internal/media"
	"repro/internal/metrics"
	"repro/internal/object"
	"repro/internal/restbase"
	"repro/internal/sim"
	"repro/internal/simnet"
)

// E7 quantifies §2.1's central claim: "web service overheads will
// certainly become prohibitive on future fast networks, especially when
// supporting fine-grained operations such as small-block reads and
// writes." It sweeps read sizes from 64 B to 4 MB on the emerging
// fast-network profile (1 µs RTT) and compares the REST gateway against
// PCSI references, reporting the protocol-overhead fraction and the size
// below which REST spends most of its time on protocol.

func init() {
	register(Experiment{ID: "E7", Title: "§2.1: web-service overhead vs operation granularity (fast network)", fn: runE7})
}

var e7Sizes = []int{64, 1 << 10, 16 << 10, 256 << 10, 4 << 20}

func runE7(rn run) *Report {
	r := &Report{ID: "E7", Title: "§2.1: web-service overhead vs operation granularity (fast network)"}

	type point struct {
		size       int
		rest, pcsi time.Duration
	}
	// One job per size runs both sides one after the other, so the two
	// 4 MiB halves are never live at once.
	points := make([]point, len(e7Sizes))
	rn.fan(len(e7Sizes), func(i int) bool {
		size := e7Sizes[i]
		// REST path on the fast network.
		envR, netR, grpR := rn.replicated(simnet.FastNet, media.DRAM)
		gwCfg := restbase.DefaultConfig()
		gwCfg.RawBody = true // object-store style: large bodies stream raw
		gw := restbase.NewGateway(netR, grpR, gwCfg)
		clientR := netR.AddNode(0)
		var restLat time.Duration
		envR.Go("rest", func(p *sim.Proc) {
			id, err := gw.Create(p, clientR, "tok", object.Regular)
			if err != nil {
				return
			}
			if err := gw.Put(p, clientR, "tok", id, make([]byte, size), consistency.Eventual); err != nil {
				return
			}
			const n = 20
			t0 := p.Now()
			for i := 0; i < n; i++ {
				if _, err := gw.Get(p, clientR, "tok", id, consistency.Eventual); err != nil {
					return
				}
			}
			restLat = p.Now().Sub(t0) / n
		})
		envR.Run()

		// PCSI path on the same network profile.
		opts := rn.options()
		opts.NetProfile = simnet.FastNet
		opts.Media = media.DRAM
		cloud := core.New(opts)
		clientP := cloud.NewClient(0)
		var pcsiLat time.Duration
		cloud.Env().Go("pcsi", func(p *sim.Proc) {
			ref, err := clientP.Create(p, object.Regular, core.WithConsistency(consistency.Eventual))
			if err != nil {
				return
			}
			if err := clientP.PutOwned(p, ref, make([]byte, size)); err != nil {
				return
			}
			const n = 20
			t0 := p.Now()
			for i := 0; i < n; i++ {
				if _, err := clientP.ViewAt(p, ref, consistency.Eventual); err != nil {
					return
				}
			}
			pcsiLat = p.Now().Sub(t0) / n
		})
		cloud.Env().Run()
		points[i] = point{size, restLat, pcsiLat}
		return true
	})

	t := metrics.NewTable("1 µs-RTT network: eventual read latency by size",
		"Size", "REST", "PCSI", "REST/PCSI", "REST protocol share")
	cfg := restbase.DefaultConfig()
	cfg.RawBody = true
	for _, pt := range points {
		share := float64(restbase.ProtocolOverhead(cfg, pt.size)) / float64(pt.rest) * 100
		t.Row(metrics.FmtBytes(int64(pt.size)),
			metrics.FmtDuration(pt.rest), metrics.FmtDuration(pt.pcsi),
			fmt.Sprintf("%.1fx", ratio(float64(pt.rest), float64(pt.pcsi))),
			fmt.Sprintf("%.0f%%", share))
	}
	t.Note("protocol share = modelled fixed REST overhead / measured REST latency")
	r.Tables = append(r.Tables, t)

	small := points[0] // 64 B
	big := points[len(points)-1]
	r.Check("small-ops-prohibitive", ratio(float64(small.rest), float64(small.pcsi)) >= 10,
		"64B read: REST %v is %.0fx PCSI %v — prohibitive for fine-grained ops",
		small.rest, ratio(float64(small.rest), float64(small.pcsi)), small.pcsi)
	bigShare := float64(restbase.ProtocolOverhead(cfg, big.size)) / float64(big.rest)
	smallShare := float64(restbase.ProtocolOverhead(cfg, small.size)) / float64(small.rest)
	r.Check("large-ops-adequate", bigShare < 0.5,
		"4MB read: protocol is only %.0f%% of REST latency (bandwidth-dominated) — 'always adequate for ... fetching large data objects'",
		bigShare*100)
	r.Check("small-ops-protocol-bound", smallShare > 0.9,
		"64B read: protocol is %.0f%% of REST latency — the interface, not the network, is the bottleneck",
		smallShare*100)
	monotone := true
	for i := 1; i < len(points); i++ {
		ri := ratio(float64(points[i].rest), float64(points[i].pcsi))
		rp := ratio(float64(points[i-1].rest), float64(points[i-1].pcsi))
		if ri > rp*1.2 { // allow noise but require broadly decreasing
			monotone = false
		}
	}
	r.Check("overhead-shrinks-with-size", monotone,
		"REST/PCSI ratio decreases as operation size grows")
	return r
}
