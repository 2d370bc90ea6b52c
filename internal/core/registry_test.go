package core

import (
	"slices"
	"testing"

	"repro/internal/fncache"
	"repro/internal/object"
	"repro/internal/platform"
	"repro/internal/qos"
	"repro/internal/sim"
)

// TestRegistryNames pins every metric name a QoS+FnCache cloud registers
// once it has run data ops, an invocation and a shed. Each layer
// registers its own metrics, so a renamed, dropped or doubled metric shows
// here before it moves a dashboard series or an SLO.
func TestRegistryNames(t *testing.T) {
	opts := DefaultOptions()
	opts.QoS = &qos.Config{
		Data:   qos.ClassConfig{MaxConcurrency: 1, MaxQueue: 1},
		Invoke: qos.ClassConfig{MaxConcurrency: 2},
	}
	opts.FnCache = &fncache.Config{}
	c := New(opts)
	owner := c.NewClient(0)
	sheds := 0
	run(t, c, func(p *sim.Proc) {
		r, err := owner.Create(p, object.Regular)
		if err != nil {
			t.Error(err)
			return
		}
		fn, err := owner.RegisterFunction(p, FnConfig{Name: "noop", Kind: platform.Wasm, Handler: func(*FnCtx) error { return nil }})
		if err != nil {
			t.Error(err)
			return
		}
		if _, err := owner.Invoke(p, fn, InvokeArgs{}); err != nil {
			t.Error(err)
			return
		}
		// One data slot and a one-deep queue: the first put is admitted,
		// the second queues and the third is shed.
		for i := 0; i < 3; i++ {
			c.Env().Go("put", func(p *sim.Proc) {
				if err := owner.Put(p, r, []byte("x")); err != nil {
					sheds++
				}
			})
		}
	})
	if sheds != 1 {
		t.Fatalf("sheds = %d, want 1", sheds)
	}
	want := []string{
		"cold_starts",
		"fncache_hits",
		"fncache_invalidations",
		"fncache_lattice_merges",
		"fncache_misses",
		"fncache_stale_reads",
		"fncache_stale_serves",
		"invocations",
		"invoke_failures",
		"invoke_latency",
		"preemptions",
		"qos_data_admitted",
		"qos_data_inflight",
		"qos_data_queue_delay",
		"qos_data_queue_depth",
		"qos_data_shed",
		"qos_invoke_admitted",
		"qos_invoke_inflight",
		"qos_invoke_queue_delay",
		"qos_invoke_queue_depth",
		"qos_invoke_shed",
		"warm_starts",
	}
	if got := c.Metrics().Names(); !slices.Equal(got, want) {
		t.Errorf("registered metrics:\n%q\nwant:\n%q", got, want)
	}
}
