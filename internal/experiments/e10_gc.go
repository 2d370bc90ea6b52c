package experiments

import (
	"fmt"

	"repro/internal/capability"
	"repro/internal/core"
	"repro/internal/media"
	"repro/internal/metrics"
	"repro/internal/object"
	"repro/internal/sim"
)

// E10 validates §3.2's reachability claim: "An object is only accessible
// by functions that hold a reference to it or to a namespace containing
// it ... Another benefit is automated resource reclamation for
// unreachable objects." A churn workload creates objects under
// namespaces and direct references, then progressively drops roots; after
// each phase a collection must reclaim exactly the newly unreachable
// objects — never a reachable one.

func init() {
	register(Experiment{ID: "E10", Title: "§3.2: automated reclamation of unreachable objects", fn: runE10})
}

func runE10(rn run) *Report {
	r := &Report{}
	opts := rn.options()
	opts.Media = media.DRAM
	cloud := core.New(opts)
	client := cloud.NewClient(0)
	env := cloud.Env()

	const nLoose = 40 // objects held only by direct references
	const nTree = 30  // objects reachable only through a namespace
	const objSize = 4096

	var loose []core.Ref
	var ns *core.NS
	var nsRoot core.Ref
	var reread bool
	ok := true
	env.Go("setup", func(p *sim.Proc) {
		for i := 0; i < nLoose; i++ {
			ref, err := client.Create(p, object.Regular)
			if err != nil {
				ok = false
				return
			}
			if err := client.Put(p, ref, make([]byte, objSize)); err != nil {
				ok = false
				return
			}
			loose = append(loose, ref)
		}
		var err error
		ns, nsRoot, err = client.NewNamespace(p)
		if err != nil {
			ok = false
			return
		}
		for i := 0; i < nTree; i++ {
			ref, err := ns.CreateAt(p, client, fmt.Sprintf("dir%d/file%d", i%5, i), object.Regular)
			if err != nil {
				ok = false
				return
			}
			if err := client.Put(p, ref, make([]byte, objSize)); err != nil {
				ok = false
				return
			}
			// The path keeps it alive; the direct reference is dropped.
			client.Drop(ref)
		}
		// Reachability through the namespace alone: collect, then re-read
		// a file that has no direct references left.
		cloud.Collect()
		ref, err := ns.Open(p, client, "dir0/file0", capability.Read)
		if err != nil {
			return
		}
		data, err := client.Get(p, ref)
		reread = err == nil && len(data) == objSize
		client.Drop(ref)
	})
	env.Run()
	if !ok {
		r.Check("setup", false, "setup failed")
		return r
	}

	st := cloud.Group().Primary0Store()
	t := metrics.NewTable("Reclamation phases (40 loose objects, 30 namespace-held, 5 dirs)",
		"Phase", "objects before", "reclaimed", "objects after", "bytes reclaimed")
	phase := func(name string, act func(), wantReclaimedMin, wantReclaimedMax int) {
		before := st.Len()
		act()
		n := cloud.Collect()
		t.Row(name, before, n, st.Len(), metrics.FmtBytes(cloud.Collector().LastReclaimed))
		if n < wantReclaimedMin || n > wantReclaimedMax {
			r.Check("phase-"+name, false, "reclaimed %d, want [%d,%d]", n, wantReclaimedMin, wantReclaimedMax)
		} else {
			r.Check("phase-"+name, true, "reclaimed %d objects", n)
		}
	}

	phase("all-roots-live", func() {}, 0, 0)
	phase("drop-half-loose", func() {
		for _, ref := range loose[:nLoose/2] {
			client.Drop(ref)
		}
	}, nLoose/2, nLoose/2)
	phase("drop-rest-loose", func() {
		for _, ref := range loose[nLoose/2:] {
			client.Drop(ref)
		}
	}, nLoose/2, nLoose/2)
	r.Check("namespace-keeps-alive", reread,
		"objects with no direct references remain reachable (and readable) through the namespace")
	phase("drop-namespace-root", func() {
		ns.DropRoot()
		client.Drop(nsRoot)
	}, nTree+1, nTree+1+5+10) // files + root + dirs (+ function/code slack)

	r.Tables = append(r.Tables, t)

	// Safety re-check: no replica still holds a swept object.
	leaks := 0
	for _, id := range cloud.Collector().LastSweptIDs {
		for _, rep := range cloud.Group().Replicas() {
			if rep.St.Contains(id) {
				leaks++
			}
		}
	}
	r.Check("sweep-propagates", leaks == 0, "swept objects removed from every replica (%d leaks)", leaks)
	return r
}
