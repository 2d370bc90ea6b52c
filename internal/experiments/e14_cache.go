package experiments

import (
	"encoding/binary"
	"fmt"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/fncache"
	"repro/internal/metrics"
	"repro/internal/object"
	"repro/internal/platform"
	"repro/internal/sim"
	"repro/internal/workload"
)

// E14 reproduces Cloudburst's prediction-serving shape (PAPERS.md): a
// high fan-out of "predict" invokes over Zipf-skewed model objects on a
// multi-node deployment, while a trainer keeps rewriting the hot models.
// Three arms differ only in coherence: no cache (every read round-trips
// the store and hot keys serialize on the primary's per-object lock),
// virtual-time leases with invalidate-on-write (linearizable semantics at
// DRAM cost), and lattice CRDT replicas merged through anti-entropy
// (eventual semantics with measured observed staleness).

func init() {
	register(Experiment{ID: "E14", Title: "Cloudburst shape: colocated caches under Zipf fan-out — leases vs lattices vs none", fn: runE14})
}

const (
	e14Keys      = 16
	e14ZipfS     = 1.2
	e14ModelSize = 4096
	e14Exec      = time.Millisecond
	e14Window    = 1500 * time.Millisecond
	// Base rate is what one warm instance could serve back-to-back; the
	// experiment offers 4x that, concentrated by the Zipf skew.
	e14BaseRate = 400.0
	e14FanOut   = 4
	// The trainer rewrites one of the 4 hottest models at this cadence.
	e14WriteEvery = 20 * time.Millisecond
	e14Writes     = 64
	// Readers on the lattice arm refresh their local replica every Nth
	// invocation (Cloudburst's periodic propagation, keyed off the request
	// sequence so it is deterministic).
	e14SyncEvery = 32
)

// e14Mode selects an arm's coherence.
type e14Mode int

const (
	e14Off e14Mode = iota
	e14Lease
	e14Lattice
)

func (m e14Mode) String() string {
	switch m {
	case e14Off:
		return "cache off"
	case e14Lease:
		return "lease"
	default:
		return "lattice"
	}
}

// e14Arm collects one deployment's view of the serving window.
type e14Arm struct {
	mode           e14Mode
	served, failed int64
	writes         int64
	readLat        *metrics.Histogram // data-path latency inside the handler
	invokeLat      *metrics.Histogram // end-to-end invoke latency
	stats          fncache.Stats
	linStale       int64
	audit          []string
}

func e14Run(rn run, mode e14Mode) *e14Arm {
	opts := rn.options()
	opts.Policy = core.PlacePacked
	opts.IdleTimeout = time.Second
	opts.ClusterCfg = cluster.Config{
		Racks: 4, NodesPerRack: 4,
		NodeCap: cluster.Resources{MilliCPU: 4000, MemMB: 16384},
	}
	if mode != e14Off {
		opts.FnCache = &fncache.Config{LeaseTTL: 500 * time.Millisecond}
	}
	cloud := core.New(opts)
	client := cloud.NewClient(0)
	trainer := cloud.NewClient(1)
	env := cloud.Env()
	defer env.Close() // RunUntil stops with processes still parked
	arm := &e14Arm{
		mode:      mode,
		readLat:   metrics.NewHistogram("model_read"),
		invokeLat: metrics.NewHistogram("predict"),
	}

	models := make([]core.Ref, e14Keys)
	var fnRef core.Ref
	setup := env.NewEvent()
	env.Go("setup", func(p *sim.Proc) {
		model := make([]byte, e14ModelSize)
		for i := range model {
			model[i] = byte(i)
		}
		for i := range models {
			var r core.Ref
			var err error
			if mode == e14Lattice {
				r, err = client.LatticeCreate(p, fncache.LWWReg{T: 1, Actor: -1, Val: model})
			} else {
				if r, err = client.Create(p, object.Regular); err == nil {
					err = client.Put(p, r, model)
				}
			}
			if err != nil {
				return
			}
			models[i] = r
		}
		var err error
		fnRef, err = client.RegisterFunction(p, core.FnConfig{
			Name: "predict", Kind: platform.Wasm,
			Res: cluster.Resources{MilliCPU: 990, MemMB: 128},
			Handler: func(fc *core.FnCtx) error {
				key := binary.BigEndian.Uint32(fc.Body)
				seq := binary.BigEndian.Uint32(fc.Body[4:])
				r := models[key]
				rp := fc.Proc()
				start := rp.Now()
				if mode == e14Lattice {
					if seq%e14SyncEvery == 0 {
						if err := fc.Client.LatticeSync(rp, r); err != nil {
							return err
						}
					}
					if _, err := fc.Client.LatticeRead(rp, r); err != nil {
						return err
					}
				} else {
					if _, err := fc.Client.View(rp, r); err != nil {
						return err
					}
				}
				arm.readLat.Observe(rp.Now().Sub(start))
				rp.Sleep(e14Exec)
				return nil
			},
		})
		if err == nil {
			setup.Complete(nil)
		}
	})

	env.Go("load", func(p *sim.Proc) {
		if _, err := p.Wait(setup); err != nil {
			return
		}
		p.Sleep(100 * time.Millisecond)
		zipf := workload.NewZipf(env, e14Keys, e14ZipfS)
		arr := workload.NewPoisson(env, e14FanOut*e14BaseRate)
		workload.Run(env, arr, p.Now().Add(e14Window), func(rp *sim.Proc, seq int) {
			body := make([]byte, 8)
			binary.BigEndian.PutUint32(body, uint32(zipf.Pick()))
			binary.BigEndian.PutUint32(body[4:], uint32(seq))
			start := rp.Now()
			if _, err := client.Invoke(rp, fnRef, core.InvokeArgs{Body: body}); err != nil {
				arm.failed++
				return
			}
			arm.served++
			arm.invokeLat.Observe(rp.Now().Sub(start))
		})
	})

	env.Go("trainer", func(p *sim.Proc) {
		if _, err := p.Wait(setup); err != nil {
			return
		}
		p.Sleep(100 * time.Millisecond)
		for i := 0; i < e14Writes; i++ {
			p.Sleep(e14WriteEvery)
			r := models[i%4] // the 4 hottest models under the Zipf pick
			model := make([]byte, e14ModelSize)
			for j := range model {
				model[j] = byte(i + j)
			}
			var err error
			if mode == e14Lattice {
				if err = trainer.LatticeUpdate(p, r, fncache.LWWReg{T: uint64(i + 2), Actor: 0, Val: model}); err == nil {
					err = trainer.LatticeSync(p, r)
				}
			} else {
				err = trainer.Put(p, r, model)
			}
			if err == nil {
				arm.writes++
			}
		}
	})

	env.RunUntil(sim.Time(100*time.Millisecond + e14Window + 5*time.Second))
	cloud.Runtime().Drain()
	if fc := cloud.FnCache(); fc != nil {
		arm.audit = cloud.LatticeAudit()
		arm.stats = fc.Snapshot()
	}
	arm.linStale = cloud.Group().LinStaleReads
	return arm
}

func runE14(rn run) *Report {
	r := &Report{}
	modes := []e14Mode{e14Off, e14Lease, e14Lattice}
	arms := make([]*e14Arm, len(modes))
	rn.fan(len(modes), func(i int) bool { arms[i] = e14Run(rn, modes[i]); return true })
	off, lease, lattice := arms[0], arms[1], arms[2]

	t1 := metrics.NewTable(
		fmt.Sprintf("Predict serving: %d models × %d B, Zipf s=%.1f, %.0f rps offered (%dx), trainer rewriting hot models every %v",
			e14Keys, e14ModelSize, e14ZipfS, e14FanOut*e14BaseRate, e14FanOut, metrics.FmtDuration(e14WriteEvery)),
		"Coherence", "Served", "Failed", "Read p50", "Read p99", "Invoke p99", "Hit rate")
	for _, a := range arms {
		hit := "-"
		if a.mode != e14Off {
			hit = fmt.Sprintf("%.1f%%", 100*a.stats.HitRate())
		}
		t1.Row(a.mode.String(), a.served, a.failed,
			metrics.FmtDuration(a.readLat.P50()), metrics.FmtDuration(a.readLat.P99()),
			metrics.FmtDuration(a.invokeLat.P99()), hit)
	}
	t1.Note("read = data-path latency inside the handler; cache off pays the store round trip and queues on hot-key locks")
	r.Tables = append(r.Tables, t1)

	t2 := metrics.NewTable("Coherence traffic and staleness over the window",
		"Coherence", "Writes", "Invalidations", "Lattice merges", "Stale lease serves", "Observed-stale reads")
	for _, a := range arms {
		if a.mode == e14Off {
			t2.Row(a.mode.String(), a.writes, "-", "-", "-", "-")
			continue
		}
		t2.Row(a.mode.String(), a.writes, a.stats.Invalidations, a.stats.LatticeMerges,
			a.stats.StaleLeaseServes, a.stats.LatticeStaleReads)
	}
	t2.Note("stale lease serves must be zero (coherence invariant); observed-stale lattice reads are the price of eventual, bounded by the sync cadence")
	r.Tables = append(r.Tables, t2)

	r.Check("arms-complete", off.failed == 0 && lease.failed == 0 && lattice.failed == 0,
		"every predict completes: %d/%d/%d failures across off/lease/lattice",
		off.failed, lease.failed, lattice.failed)
	r.Check("cache-beats-off-p99",
		lease.readLat.P99() < off.readLat.P99() && lattice.readLat.P99() < off.readLat.P99(),
		"read p99 %v (lease) and %v (lattice) beat %v (cache off) under %dx Zipf fan-out",
		metrics.FmtDuration(lease.readLat.P99()), metrics.FmtDuration(lattice.readLat.P99()),
		metrics.FmtDuration(off.readLat.P99()), e14FanOut)
	r.Check("hot-keys-hit",
		lease.stats.HitRate() >= 0.5 && lattice.stats.HitRate() >= 0.5,
		"hit rates %.1f%% (lease) and %.1f%% (lattice) — the Zipf head lives in the colocated caches",
		100*lease.stats.HitRate(), 100*lattice.stats.HitRate())
	r.Check("lease-invalidations-engage",
		lease.stats.Invalidations > 0 && lease.writes == e14Writes,
		"%d holder invalidations across %d trainer writes — invalidate-on-write is exercised, not idle",
		lease.stats.Invalidations, lease.writes)
	r.Check("lease-zero-stale",
		lease.stats.StaleLeaseServes == 0 && lease.linStale == 0,
		"%d stale lease serves, %d stale linearizable reads — leases never serve past an invalidation",
		lease.stats.StaleLeaseServes, lease.linStale)
	r.Check("lattice-staleness-observed",
		lattice.stats.LatticeStaleReads > 0,
		"%d observed-stale lattice reads recorded — eventual coherence is measured, not assumed",
		lattice.stats.LatticeStaleReads)
	r.Check("lattice-converges", len(lattice.audit) == 0,
		"lattice replicas converge to the store join after quiescent flush + anti-entropy (%d violations)",
		len(lattice.audit))
	return r
}
