package pcsi_test

import (
	"fmt"
	"os"
	"strings"
	"testing"
	"time"

	"repro/internal/fault"
	"repro/internal/obs"
	"repro/internal/trace"
	"repro/pcsi"
)

// The benchmark's ladder prices tracing and telemetry by building clouds
// after trace.StartCollecting and pcsi.ActivateObs. Those two process
// defaults reach a cloud only through pcsi.New, only until Stop and
// Deactivate, and never override what Options sets.
func TestProcessDefaultsReachNew(t *testing.T) {
	col := trace.StartCollecting()
	if trace.Of(pcsi.New(pcsi.DefaultOptions()).Env()) == nil {
		t.Error("a cloud built after trace.StartCollecting is untraced")
	}
	act := pcsi.ActivateObs(pcsi.ObsConfig{})
	if pcsi.New(pcsi.DefaultOptions()).Obs() == nil {
		t.Error("a cloud built after pcsi.ActivateObs has no telemetry plane")
	}
	own := obs.NewSession(obs.Config{})
	opts := pcsi.DefaultOptions()
	opts.Obs = own
	pcsi.New(opts)
	if o, a := len(own.Timeline("", 0).Planes), len(act.Timeline("", 0).Planes); o != 1 || a != 1 {
		t.Errorf("Options.Obs lost to the default: own %d planes, default %d; want 1 and 1", o, a)
	}
	col.Stop()
	act.Deactivate()
	cloud := pcsi.New(pcsi.DefaultOptions())
	if trace.Of(cloud.Env()) != nil || cloud.Obs() != nil {
		t.Error("a cloud built after Stop and Deactivate is still observed")
	}
}

// README.md quotes the bodies of Example_faults and Example_dashboards
// between markers, so the snippets it shows are the ones go test runs.
func TestReadmeQuotesExamples(t *testing.T) {
	readme, err := os.ReadFile("../README.md")
	if err != nil {
		t.Fatal(err)
	}
	src, err := os.ReadFile("observe_test.go")
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"faults", "dashboards"} {
		head := "func Example_" + name + "() {\n"
		_, body, _ := strings.Cut(string(src), head)
		body, _, _ = strings.Cut(body, "\t// Output:")
		want := strings.ReplaceAll("\n"+body, "\n\t", "\n")[1:]
		begin, end := "<!-- BEGIN EXAMPLE "+name+" -->\n```go\n", "```\n<!-- END EXAMPLE "+name+" -->"
		_, rest, okBegin := strings.Cut(string(readme), begin)
		got, _, okEnd := strings.Cut(rest, end)
		if !okBegin || !okEnd || got != want {
			t.Errorf("README's %s example drifted from Example_%s; paste its body:\n%s", name, name, want)
		}
	}
}

// A fault session injects into the clouds whose Options carry it: here a
// scheduled crash and recovery of node 1 plus stochastic faults, ridden out
// by the session's default retry policy, and audited afterwards.
func Example_faults() {
	faults := fault.NewSession(fault.Spec{
		Rate: 0.05,
		Schedule: []fault.Event{
			{At: 10 * time.Millisecond, Action: fault.CrashNode, Node: 1},
			{At: 50 * time.Millisecond, Action: fault.RecoverNode, Node: 1},
		},
		Retry: fault.DefaultPolicy(),
	})
	opts := pcsi.DefaultOptions()
	opts.Faults = faults
	cloud := pcsi.New(opts) // injects per the session; other clouds do not
	client := cloud.NewClient(0)
	cloud.Env().Go("writer", func(p *pcsi.Proc) {
		ref, err := client.Create(p, pcsi.Regular)
		for i := 0; err == nil && i < 50; i++ {
			err = client.Put(p, ref, []byte("payload"))
			p.Sleep(2 * time.Millisecond)
		}
		fmt.Println("writes ok:", err == nil)
	})
	cloud.Env().Run()
	for _, c := range faults.Counters() {
		fmt.Println(c.Name, c.N)
	}
	fmt.Println("invariant violations:", len(faults.RunChecks()))
	// Output:
	// writes ok: true
	// link.delay 13
	// link.drop 17
	// link.dup 8
	// node.crash 1
	// node.recover 1
	// op.error 1
	// op.timeout 1
	// retry.attempt 2
	// invariant violations: 0
}

// A telemetry session gives each cloud built with it a plane that samples
// the cloud's metrics on virtual time and evaluates SLO burn rates.
func Example_dashboards() {
	opts := pcsi.DefaultOptions()
	opts.Obs = obs.NewSession(obs.Config{})
	cloud := pcsi.New(opts) // gets a telemetry plane
	cloud.Obs().SetObjectives(obs.Objective{
		Name:    "invoke-p99",
		Latency: &obs.LatencyTarget{Metric: "invoke_latency", Max: 150 * time.Millisecond},
		Budget:  0.25,
	})
	client := cloud.NewClient(0)
	cloud.Env().Go("caller", func(p *pcsi.Proc) {
		fn, err := client.RegisterFunction(p, pcsi.FnConfig{
			Name: "work", Kind: pcsi.PlatformWasm,
			Handler: func(fc *pcsi.FnCtx) error { fc.Proc().Sleep(20 * time.Millisecond); return nil },
		})
		for i := 0; err == nil && i < 40; i++ {
			_, err = client.Invoke(p, fn, pcsi.InvokeArgs{})
		}
		fmt.Println("invocations ok:", err == nil)
	})
	cloud.Env().Run()
	fmt.Println("p99 samples:", len(cloud.Obs().SeriesData("invoke_latency", "p99")))
	fmt.Println("alerts:", len(cloud.Obs().Alerts()))
	// Output:
	// invocations ok: true
	// p99 samples: 17
	// alerts: 0
}
