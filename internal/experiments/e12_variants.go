package experiments

import (
	"fmt"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/faas"
	"repro/internal/metrics"
	"repro/internal/platform"
	"repro/internal/sim"
)

// E12 (extension) exercises §3.1's universal compute interface claim:
// "Multiple implementations of the same function can even be provided
// simultaneously, allowing an optimizer to choose dynamically among them
// to meet performance and cost goals." One registered function carries a
// cheap Wasm implementation and a 20x-faster GPU implementation; the same
// call sites, run under different goals, transparently land on different
// hardware with the predicted latency/cost trade.

func init() {
	register(Experiment{ID: "E12", Title: "§3.1 (extension): one function, multiple implementations, goal-driven choice", fn: runE12})
}

const (
	e12Exec  = 200 * time.Millisecond
	e12Calls = 20
)

func runE12(rn run) *Report {
	r := &Report{}

	type outcome struct {
		goal     faas.Goal
		variants map[string]int
		lat      *metrics.Histogram
		usd      float64
	}
	runGoal := func(goal faas.Goal) *outcome {
		opts := rn.options()
		cloud := core.New(opts)
		client := cloud.NewClient(0)
		out := &outcome{goal: goal, variants: map[string]int{}, lat: metrics.NewHistogram(goal.String())}
		cloud.Env().Go("driver", func(p *sim.Proc) {
			fn, err := client.RegisterFunction(p, core.FnConfig{
				Name: "transcode", Kind: platform.Wasm,
				TypicalExec: e12Exec,
				Variants: []faas.Variant{
					{Name: "wasm", Kind: platform.Wasm, Res: cluster.Resources{MilliCPU: 1000, MemMB: 256}, SpeedFactor: 1},
					{Name: "gpu", Kind: platform.GPU, Res: cluster.Resources{GPUs: 1}, SpeedFactor: 5},
				},
				Handler: func(fc *core.FnCtx) error {
					fc.Proc().Sleep(fc.Inv.Scale(e12Exec))
					return nil
				},
			})
			if err != nil {
				r.Check("setup-"+goal.String(), false, "register: %v", err)
				return
			}
			for i := 0; i < e12Calls; i++ {
				start := p.Now()
				inst, err := client.Invoke(p, fn, core.InvokeArgs{Goal: goal})
				if err != nil {
					r.Check("invoke-"+goal.String(), false, "%v", err)
					return
				}
				out.variants[inst.Variant().Name]++
				out.lat.Observe(p.Now().Sub(start))
			}
		})
		cloud.Env().Run()
		out.usd = float64(cloud.Runtime().Meter.Total())
		return out
	}

	costRun := runGoal(faas.GoalCost)
	latRun := runGoal(faas.GoalLatency)
	if costRun == nil || latRun == nil {
		return r
	}

	t := metrics.NewTable(fmt.Sprintf("One function, two implementations: %d calls per goal", e12Calls),
		"Goal", "wasm runs", "gpu runs", "p50 latency", "compute cost")
	for _, o := range []*outcome{costRun, latRun} {
		t.Row(o.goal.String(), o.variants["wasm"], o.variants["gpu"],
			metrics.FmtDuration(o.lat.P50()), fmt.Sprintf("$%.6f", o.usd))
	}
	t.Note("identical call sites; the runtime optimizer picks the implementation per §3.1")
	r.Tables = append(r.Tables, t)

	r.Check("cost-goal-stays-cheap", costRun.variants["wasm"] == e12Calls,
		"cost goal ran all %d calls on the wasm implementation", e12Calls)
	r.Check("latency-goal-promotes-gpu", latRun.variants["gpu"] > e12Calls/2 && latRun.variants["wasm"] > 0,
		"latency goal started on wasm (%d cold calls), then promoted to GPU (%d calls) once traffic amortised the boot",
		latRun.variants["wasm"], latRun.variants["gpu"])
	r.Check("latency-win", latRun.lat.P50()*2 < costRun.lat.P50(),
		"latency goal p50 %v ≪ cost goal p50 %v", latRun.lat.P50(), costRun.lat.P50())
	r.Check("cost-win", costRun.usd < latRun.usd,
		"cost goal spent $%.6f < latency goal $%.6f", costRun.usd, latRun.usd)
	return r
}
